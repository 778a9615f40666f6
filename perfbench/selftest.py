"""The benchmark's own tests (about a minute on two cores):

    python3 -m pytest -q perfbench/selftest.py

Each workload, rate-ref-w2 included, gets a one-second smoke run in both
modes, the sweeps at 2 trials per invocation. The file name keeps it out of
the repository's default pytest collection: it starts the benchmark end to
end, which the package tests have no need for.
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
from run import PRINTED_ONLY, REF_SEED, REFERENCE_TRIALS, WORKLOADS, derive_seed  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--trials", "2"],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], float) or isinstance(m["value"], int)
               for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in ("failed_frac", "provenance") + (() if trace else PRINTED_ONLY):
        assert name in proc.stdout


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    # rate-ref-w2 stays runnable but undeclared: its spread exceeds any allowed bound.
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS) - {"rate-ref-w2"}
    assert not set(PRINTED_ONLY) & set(_declared("end_to_end"))
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


def test_traced_and_untraced_sweeps_give_identical_csv_bytes():
    for command in ("rate", "ber"):
        plain, _ = inproc._sweep_once(command, 2, derive_seed(5, 0))
        tracer = Tracer()
        with instrument(tracer):
            traced, _ = inproc._sweep_once(command, 2, derive_seed(5, 0))
        assert traced == plain
        assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)


def test_instrument_restores_every_binding():
    import fapsim.benchmarks
    import fapsim.feedback

    original = fapsim.feedback.omp_approximate
    with instrument(Tracer()):
        assert fapsim.benchmarks.omp_approximate is not original
        assert fapsim.feedback.omp_approximate is fapsim.benchmarks.omp_approximate
    assert fapsim.feedback.omp_approximate is original
    assert fapsim.benchmarks.omp_approximate is original


@pytest.mark.parametrize("command", ["rate", "ber"])
def test_gate_accepts_the_reference_and_catches_a_tampered_csv(command):
    reference = (BENCH / "reference" / f"{command}-ref.csv").read_text(encoding="utf-8")
    trials = REFERENCE_TRIALS[command]
    assert gate.check_sweep(reference, reference, REF_SEED, trials, True) == []
    assert gate.check_sweep(reference, reference, REF_SEED, trials, False) == []
    assert gate.check_sweep(reference, reference, REF_SEED + 1, trials, False)  # wrong seed line
    assert gate.check_sweep(reference, reference, REF_SEED, trials + 1, False)  # wrong trials

    comments, columns, rows = gate.parse_csv(reference)
    value_col = columns.index("mean_rate" if command == "rate" else "bit_errors")
    bits_col = columns.index("feedback_angle_bits")
    for col, change in ((value_col, lambda v: repr(float(v) * 1.001 + 3)),
                        (bits_col, lambda v: str(int(v) + 1))):
        tampered = [list(row) for row in rows]
        tampered[5][col] = change(tampered[5][col])
        text = "\n".join(comments + [",".join(columns)] + [",".join(r) for r in tampered]) + "\n"
        assert gate.check_sweep(text, reference, REF_SEED, trials, True), columns[col]
    truncated = "\n".join(reference.splitlines()[:-1]) + "\n"
    assert gate.check_sweep(truncated, reference, REF_SEED, trials, True)


def test_gate_scales_bits_sent_with_the_trial_count():
    reference = (BENCH / "reference" / "ber-ref.csv").read_text(encoding="utf-8")
    seed = derive_seed(5, 0)
    csv, _ = inproc._sweep_once("ber", 2 * REFERENCE_TRIALS["ber"], seed)
    assert gate.check_sweep(csv, reference, seed, 2 * REFERENCE_TRIALS["ber"], False) == []
    comments, columns, rows = gate.parse_csv(csv)
    sent = columns.index("bits_sent")
    rows[0][sent] = str(int(rows[0][sent]) // 2)
    text = "\n".join(comments + [",".join(columns)] + [",".join(r) for r in rows]) + "\n"
    assert gate.check_sweep(text, reference, seed, 2 * REFERENCE_TRIALS["ber"], False)


def test_gate_catches_a_flipped_wire_byte():
    ctx = inproc.link_setup()
    rt = inproc.roundtrip(ctx, REF_SEED, 0)
    assert inproc.check_roundtrip(rt) == []
    spec = ctx.specs[inproc.LINK_GAMMAS[0]]
    for position in (12, len(rt.data) - 1):        # an angle index, a combining entry
        data = bytearray(rt.data)
        data[position] ^= 0x10
        decoded = inproc.feedback.deserialize_report(bytes(data), spec, ctx.cc, ctx.cfg.streams)
        flipped = dataclasses.replace(rt, data=bytes(data), decoded=decoded)
        assert inproc.check_roundtrip(flipped), position


def test_link_reference_check_catches_a_changed_rate():
    ctx = inproc.link_setup()
    pairs = {(i % len(inproc.LINK_GAMMAS), i % len(ctx.snrs)) for i in range(inproc.LINK_CYCLE)}
    assert len(pairs) == inproc.LINK_CYCLE == len(inproc.LINK_GAMMAS) * len(ctx.snrs)
    rt = inproc.roundtrip(ctx, REF_SEED, 1)
    record = inproc.reference_record(rt)
    assert inproc.check_against_reference(rt, record) == []
    assert inproc.check_against_reference(rt, dict(record, rate=record["rate"] * 1.001))


def test_inproc_exits_nonzero_when_the_program_raises(tmp_path, monkeypatch):
    def broken(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(inproc, "roundtrip", broken)
    out = tmp_path / "result.json"
    assert inproc.main(["link", "--seconds", "0.01", "--out", str(out)]) == 1
    result = json.loads(out.read_text(encoding="utf-8"))
    assert "latencies_s" not in result and result["failed"] == 1


class _FakeRunner:
    """Stands in for run.Runner: writes a given inproc.py result and exits 0."""

    def __init__(self, result):
        self.result = result

    def run(self, argv, tag):
        Path(argv[argv.index("--out") + 1]).write_text(json.dumps(self.result), encoding="utf-8")
        return run.Invocation(0.1, 10.0, 0, "", "")


@pytest.mark.parametrize("keys", [("latencies_s",), ("metrics", "samples", "config_sha256")])
def test_a_result_without_its_keys_is_a_failure(keys):
    run.WORK.mkdir(exist_ok=True)
    outcome = run.Outcome()
    broken = {"attempted": 1, "failed": 1, "problems": ["link: RuntimeError: injected"]}
    result, _ = run._inproc(_FakeRunner(broken), outcome, ["link"], "selftest-inproc", keys)
    assert result is None and not outcome.correct
    assert any("result lacks" in problem for problem in outcome.problems)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("rate-ref", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
