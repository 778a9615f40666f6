"""The benchmark's own correctness gate, run on this checkout at the reference seed.

The rate and BER sweeps at the stored trial counts must pass `gate.check_sweep` against
perfbench/reference/, and the stored link round trips (report, wire bytes, rebuild, hybrid
realization, rate) must pass `inproc.check_roundtrip` and `inproc.check_against_reference`.
The small-trial sweeps of three more configs must pass the same gate against tests/data/.
The gate's tolerances, not a byte comparison, decide: BLAS builds may move the last bits.
"""

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

from fapsim import cli, runner

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("gate", "inproc", "run", "tracer")
DATA = Path(__file__).resolve().parent / "data"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# Sweep -> trial count of the stored references, regenerated from the repo root with
#   fapsim rate --config CONFIG --trials 20 --out tests/data/NAME-rate.csv
#   fapsim ber --config CONFIG --trials 6 --out tests/data/NAME-ber.csv
# for CONFIG tests/data/water_filling.yaml, configs/quantized.yaml and tests/data/k_above_m.yaml.
DATA_TRIALS = {"rate": 20, "ber": 6}
DATA_CONFIGS = {"water_filling": DATA / "water_filling.yaml", "quantized": CONFIGS / "quantized.yaml",
                "k_above_m": DATA / "k_above_m.yaml"}


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
    gate, trials = bench[0], DATA_TRIALS[command]
    cfg = dataclasses.replace(cli.build_experiment_config(cli.load_config(DATA_CONFIGS[name])),
                              trials=trials)
    csv = {"rate": runner.run_rate_sweep, "ber": runner.run_ber_sweep}[command](cfg)
    reference = (DATA / f"{name}-{command}.csv").read_text(encoding="utf-8")
    assert gate.check_sweep(csv, reference, cfg.seed, trials, against_reference=True) == []
