"""The benchmark's own correctness gate, run on this checkout at the reference seed.

The rate and BER sweeps at the stored trial counts must pass `gate.check_sweep` against
perfbench/reference/, and the stored link round trips (report, wire bytes, rebuild, hybrid
realization, rate) must pass `inproc.check_roundtrip` and `inproc.check_against_reference`.
The gate's tolerances, not a byte comparison, decide: BLAS builds may move the last bits.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCH_MODULES = ("gate", "inproc", "run", "tracer")


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
