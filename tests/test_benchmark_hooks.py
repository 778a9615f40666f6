"""The benchmark's traced runs wrap fapsim functions by name; every name must still exist."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import fapsim.cli    # loads every fapsim module the tracer looks in

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_level_functions():
    tracer = load_tracer()
    for name in tracer.TRACED + tracer.SWEEPS:
        module_name, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"fapsim.{module_name}"), fn_name, None)
        assert inspect.isfunction(fn), f"{name} is not a function of fapsim.{module_name}"


def test_instrument_wraps_and_restores():
    tracer = load_tracer()
    original = fapsim.cli.build_experiment_config
    with tracer.instrument(tracer.Tracer()):
        assert fapsim.cli.build_experiment_config is not original
    assert fapsim.cli.build_experiment_config is original
