"""The benchmark's own correctness gate, run on this checkout at the reference seed.

The rate and BER sweeps at the stored trial counts must pass `gate.check_sweep` against
perfbench/reference/, and the stored link round trips (report, wire bytes, rebuild, hybrid
realization, rate) must pass `inproc.check_roundtrip` and `inproc.check_against_reference`.
The small-trial sweeps of three more configs must pass the same gate against tests/data/.
The gate's tolerances decide everywhere, since BLAS builds may move the last bits. Under the
numpy version and OpenBLAS core that tests/data/written_by.json names, those sweeps must also
regenerate byte for byte, so that a change that moves a rounding fails there.
"""

import ctypes
import dataclasses
import glob
import importlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from fapsim import cli, runner

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("gate", "inproc", "run", "tracer")
DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Sweep -> trial count of the stored references, regenerated from the repo root with
#   fapsim rate --config CONFIG --trials 20 --out tests/data/NAME-rate.csv
#   fapsim ber --config CONFIG --trials 6 --out tests/data/NAME-ber.csv
# for CONFIG tests/data/water_filling.yaml, configs/quantized.yaml and tests/data/k_above_m.yaml,
# with the numpy version and OpenBLAS core (`openblas_core`) written to tests/data/written_by.json.
DATA_TRIALS = {"rate": 20, "ber": 6}
DATA_CONFIGS = {"water_filling": DATA / "water_filling.yaml", "quantized": CONFIGS / "quantized.yaml",
                "k_above_m": DATA / "k_above_m.yaml"}


def stored_sweep(name, command):
    """The sweep that tests/data/NAME-COMMAND.csv stores, regenerated at its trial count: (cfg, CSV)."""
    cfg = dataclasses.replace(cli.build_experiment_config(cli.load_config(DATA_CONFIGS[name])),
                              trials=DATA_TRIALS[command])
    return cfg, {"rate": runner.run_rate_sweep, "ber": runner.run_ber_sweep}[command](cfg)


def openblas_core():
    """The core type whose kernels numpy's bundled OpenBLAS runs here, or None where it is absent."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        except OSError:
            continue
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


@pytest.fixture(scope="module")
def bench():
    """perfbench's `gate`, `inproc` and `run` modules, imported without writing bytecode there."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield tuple(importlib.import_module(name) for name in ("gate", "inproc", "run"))
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("command", ["rate", "ber"])
def test_reference_sweep_passes_the_gate(bench, command):
    gate, inproc, run = bench
    trials = run.REFERENCE_TRIALS[command]
    csv, _ = inproc._sweep_once(command, trials, run.REF_SEED)
    reference = (run.REFERENCE / f"{command}-ref.csv").read_text(encoding="utf-8")
    assert gate.check_sweep(csv, reference, run.REF_SEED, trials, against_reference=True) == []


def test_reference_link_round_trips_pass_the_gate(bench):
    _, inproc, run = bench
    record = json.loads((run.REFERENCE / "link-roundtrip.json").read_text(encoding="utf-8"))
    ctx = inproc.link_setup()
    assert inproc.config_hash(ctx) == record["config_sha256"]
    assert len(record["ops"]) == inproc.LINK_CYCLE
    for index, ref in enumerate(record["ops"]):
        rt = inproc.roundtrip(ctx, run.REF_SEED, index)
        assert inproc.check_roundtrip(rt) + inproc.check_against_reference(rt, ref) == [], index


@pytest.mark.parametrize("command", sorted(DATA_TRIALS))
@pytest.mark.parametrize("name", sorted(DATA_CONFIGS))
def test_stored_sweep_passes_the_gate(bench, name, command):
    # The `# config:` line holds every scheme's label, so the comparison pins the labels too.
    cfg, csv = stored_sweep(name, command)
    reference = (DATA / f"{name}-{command}.csv").read_text(encoding="utf-8")
    assert bench[0].check_sweep(csv, reference, cfg.seed, cfg.trials, against_reference=True) == []


@pytest.mark.parametrize("command", sorted(DATA_TRIALS))
@pytest.mark.parametrize("name", sorted(DATA_CONFIGS))
def test_stored_sweep_regenerates_byte_for_byte(name, command):
    # A one-pass Gram-Schmidt in OmpPath moves rate cells by about 4e-16 relative: inside the
    # gate's rtol, but not these bytes. Elsewhere LAPACK may round differently, so it skips.
    written = json.loads((DATA / "written_by.json").read_text(encoding="utf-8"))
    here = {"numpy": np.__version__, "openblas_core": openblas_core()}
    if here != written:
        pytest.skip(f"tests/data/*.csv were written under {written}, this run has {here}")
    assert stored_sweep(name, command)[1].encode() == (DATA / f"{name}-{command}.csv").read_bytes()
