"""fapsim benchmark: sweep throughput end to end, per-layer self time when traced.

    python3 perfbench/run.py --workload rate-ref --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The program under test is the
checkout's own `src/fapsim`, started as `python3 -m fapsim.cli` (sweeps) or
through `perfbench/inproc.py` (the library round trip), with the caller's
environment plus PYTHONPATH: no BLAS/OpenMP thread count or CPU affinity is
set for it. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it prints the per-layer metrics of an in-process traced run. The
last line of stdout is one JSON object; the exit code is 0 only when every
correctness check passed. See perfbench/README.md.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from gate import check_sweep

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference"

# The reference config's own seed; the stored reference outputs use it.
REF_SEED = 20250809
# Trial counts of the stored reference sweeps (reference/<command>-ref.csv).
# The correctness check at the reference seed uses them; the timed
# invocations use the workload's own count.
REFERENCE_TRIALS = {"rate": 10, "ber": 5}
# Fresh set-up starts per run, after one untimed warm-up start. They are
# spread over the run, a few before each timed unit, so that their median
# samples the same stretch of the machine's speed as the throughput does.
SETUP_STARTS = 16
SETUP_PER_UNIT = 2
# A link-roundtrip run is split into fresh processes of this many seconds.
LINK_CHUNK_S = 5.0
# At most this many alternating workers=1/workers=2 CLI pairs behind
# runner.w2_speedup, within --seconds (at least one).
W2_PAIRS = 3
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
# Printed with the metrics but left out of the result line, so not gated:
# a sweep run has a handful of invocations, too few for latency percentiles.
PRINTED_ONLY = ("op_ms.p50", "op_ms.p90")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Sweep:
    """`fapsim <command> --trials <trials> --workers <workers>` on the built-in config."""

    command: str
    trials: int
    workers: int


# rate-ref runs the reference config's own 200 trials per invocation (7-9 s
# on two cores, of which set-up is 3 %). ber-ref's trials cost about 2.5
# times as much, so it runs 40 (4.5-5 s, set-up 5 %), which keeps several
# invocations in a 30-second run.
# `rate-ref-w2` is runnable but not declared in BENCHMARK.json: its invocation
# times are bimodal (the pool's workers and their BLAS threads compete for two
# cores), and a 200-trial invocation takes 12-35 s, one or two per run.
WORKLOADS = {
    "rate-ref": Sweep("rate", 200, 1),
    "ber-ref": Sweep("ber", 40, 1),
    "rate-ref-w2": Sweep("rate", 200, 2),
    "link-roundtrip": None,
}


def derive_seed(seed, index):
    """Seed of the index-th sweep invocation (or traced pair) of a run."""
    return (seed * 1_000_003 + index) % 2**31


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Starts program processes from the checkout root and reaps each one."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def time_left(self):
        return self.deadline - time.perf_counter()

    def run(self, argv, tag):
        """Run `python3 <argv>`; wall time, peak RSS of the largest process, output."""
        out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
        with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err, start_new_session=True)
            lock, reaped = threading.Lock(), []

            def kill():
                with lock:
                    if not reaped:
                        os.killpg(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(self.time_left(), 1.0), kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                wall = time.perf_counter() - start
                with lock:
                    reaped.append(True)
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                          out_path.read_text(encoding="utf-8"), err_path.read_text(encoding="utf-8"))


class Outcome:
    """Attempt/failure bookkeeping and the metrics of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}          # name -> (value, unit, samples)
        self.raw = {}              # name -> list of per-op samples, kept in the result file

    def attempt(self, problems, what):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems += [f"{what}: {p}" for p in problems[:3]]

    def fail(self, problem):
        self.problems.append(problem)

    @property
    def correct(self):
        return self.attempted > 0 and self.failed == 0 and not self.problems


def _exit_problems(inv):
    if inv.code == 0:
        return []
    tail = inv.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return [f"exit {inv.code}: {tail[0]}"]


class SetupTimer:
    """Fresh starts of the program's set-up path; setup_s is their median."""

    def __init__(self, runner, argv, tag):
        self.runner, self.argv, self.tag = runner, argv, tag
        self.walls = []
        self.problem = None

    def _start(self, name):
        inv = self.runner.run(self.argv, f"{self.tag}-{name}")
        if inv.code != 0:
            self.problem = f"setup: {_exit_problems(inv)[0]}"
            return None
        return inv

    def warm_up(self):
        """One untimed start; its stdout, or None when it failed."""
        inv = self._start("setup-warmup")
        return inv and inv.stdout

    def time(self, count):
        for _ in range(count):
            if self.problem is not None:
                return
            inv = self._start(f"setup{len(self.walls)}")
            if inv is not None:
                self.walls.append(inv.wall_s)

    def report(self, outcome):
        self.time(SETUP_STARTS - len(self.walls))
        if self.problem is not None:
            outcome.fail(self.problem)
        elif self.walls:
            outcome.metrics["setup_s"] = (statistics.median(self.walls), "s", len(self.walls))


def _config_hash(text):
    line = next((line for line in text.splitlines() if line.startswith("# config: ")), "")
    return hashlib.sha256(line.encode()).hexdigest()


def _reference_sweep(sweep):
    return (REFERENCE / f"{sweep.command}-ref.csv").read_text(encoding="utf-8")


def _sweep_argv(sweep, seed, workers, trials=None):
    return ["-m", "fapsim.cli", sweep.command, "--trials", str(trials or sweep.trials),
            "--seed", str(seed), "--workers", str(workers)]


@dataclass
class Unit:
    """One timed piece of work: a sweep invocation, or a chunk of link round trips."""

    spent_s: float             # wall time of the process
    trials: int = 0            # trials (round trips) completed correctly
    timed_s: float = 0.0       # time the throughput divides by
    ops_s: tuple = ()          # latency samples
    rss_mb: float = 0.0


def run_untraced(runner, sweep, seed, seconds, outcome, provenance, tag):
    """Correctness at the reference seed, then timed units for about `seconds`.

    A few set-up starts precede every unit. Units run one at a time until the
    next one would end more than half a unit past `seconds`.
    """
    if sweep is None:
        setup = SetupTimer(runner, [str(BENCH / "inproc.py"), "setup"], tag)
    else:
        setup = SetupTimer(runner, ["-m", "fapsim.cli", "overhead", "--trials",
                                    str(sweep.trials), "--seed", str(seed)], tag)
    first = setup.warm_up()
    if first is None:
        outcome.fail(setup.problem)
        return
    if sweep is None:
        provenance["config_sha256"] = json.loads(first)["config_sha256"]
        ops_done = [0]

        def unit(index):
            args = ["link", "--seed", str(seed), "--first-op", str(ops_done[0]),
                    "--seconds", str(min(LINK_CHUNK_S, seconds)), "--trace", "0",
                    "--check-reference", "1" if index == 0 else "0"]
            result, inv = _inproc(runner, outcome, args, f"{tag}-link{index}", ("latencies_s",))
            if result is None:
                return Unit(inv.wall_s)
            latencies = result["latencies_s"]
            ops_done[0] += len(latencies)
            ok = [t for t, good in zip(latencies, result["op_ok"]) if good]
            return Unit(inv.wall_s, len(ok), sum(ok), tuple(ok), inv.rss_mb)
    else:
        provenance["config_sha256"] = _config_hash(first)
        reference = _reference_sweep(sweep)
        ref_trials = REFERENCE_TRIALS[sweep.command]
        # Correctness at the reference seed; with workers > 1 the CSV must also
        # be byte-identical to a single-worker run of the same sweep.
        check = runner.run(_sweep_argv(sweep, REF_SEED, sweep.workers, ref_trials),
                           f"{tag}-check")
        outcome.attempt(_exit_problems(check)
                        or check_sweep(check.stdout, reference, REF_SEED, ref_trials, True),
                        f"reference sweep, workers={sweep.workers}")
        if sweep.workers > 1:
            single = runner.run(_sweep_argv(sweep, REF_SEED, 1, ref_trials), f"{tag}-check-w1")
            problems = _exit_problems(single)
            if not problems and single.stdout != check.stdout:
                problems = [f"workers={sweep.workers} CSV is not byte-identical to workers=1"]
            outcome.attempt(problems, "reference sweep, workers=1")

        def unit(index):
            run_seed = derive_seed(seed, index)
            inv = runner.run(_sweep_argv(sweep, run_seed, sweep.workers), f"{tag}-{index}")
            problems = _exit_problems(inv) or check_sweep(inv.stdout, reference, run_seed,
                                                          sweep.trials, False)
            outcome.attempt(problems, f"sweep seed {run_seed}")
            if problems:
                return Unit(inv.wall_s)
            return Unit(inv.wall_s, sweep.trials, inv.wall_s, (inv.wall_s,), inv.rss_mb)

    units = []
    while runner.time_left() > 0:
        setup.time(SETUP_PER_UNIT)
        units.append(unit(len(units)))
        spent = sum(u.spent_s for u in units)
        if spent + spent / len(units) / 2 >= seconds:
            break
    setup.report(outcome)
    good = [u for u in units if u.trials]
    if not good:
        outcome.fail("no successful timed unit")
        return
    ops = [t for u in good for t in u.ops_s]
    outcome.raw.update(unit_s=[u.timed_s for u in good], unit_trials=[u.trials for u in good],
                       op_s=ops)
    trials, timed = sum(u.trials for u in good), sum(u.timed_s for u in good)
    outcome.metrics["trials_per_s"] = (trials / timed, "trials/s", len(good))
    outcome.metrics["op_ms.p50"] = (statistics.median(ops) * 1e3, "ms", len(ops))
    outcome.metrics["op_ms.p90"] = (percentile(ops, 0.9) * 1e3, "ms", len(ops))
    outcome.metrics["peak_rss_mb"] = (statistics.median(u.rss_mb for u in good), "MiB",
                                      len(good))


def _inproc(runner, outcome, args, tag, keys):
    """Run perfbench/inproc.py; its JSON result, or None after recording the failure.

    A result counts only when the process exited 0 and wrote every key in `keys`.
    """
    out = WORK / f"{tag}.json"
    out.unlink(missing_ok=True)
    inv = runner.run([str(BENCH / "inproc.py")] + args + ["--out", str(out)], tag)
    try:
        result = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {}
    outcome.attempted += result.get("attempted", 0)
    outcome.failed += result.get("failed", 0)
    outcome.problems += result.get("problems", [])
    missing = [key for key in keys if key not in result]
    if inv.code != 0 or missing:
        why = (_exit_problems(inv) or [f"result lacks {', '.join(missing)}"])[0]
        outcome.fail(f"inproc.py {args[0]}: {why}")
        return None, inv
    return result, inv


def run_traced(runner, sweep, seed, seconds, outcome, provenance, tag):
    """Per-layer metrics from one in-process traced run at workers=1."""
    spans = str(WORK / f"{tag}-spans.json")
    if sweep is None:
        args = ["link", "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    else:
        args = ["sweep", "--command", sweep.command, "--trials", str(sweep.trials),
                "--seed", str(seed), "--seconds", str(seconds)]
    result, _ = _inproc(runner, outcome, args + ["--spans", spans], f"{tag}-traced",
                        ("metrics", "samples", "config_sha256"))
    if result is None:
        return
    provenance["config_sha256"] = result["config_sha256"]
    for name, (value, unit) in result["metrics"].items():
        outcome.metrics[name] = (value, unit, result["samples"])

    # The worker-pool speedup comes from untraced CLI pairs of the same sweep,
    # alternating which worker count goes first, for about `seconds`.
    speedups, spent = [], 0.0
    for pair in range(W2_PAIRS if sweep is not None else 0):
        run_seed = derive_seed(seed, pair)
        order = (1, 2) if pair % 2 == 0 else (2, 1)
        inv = {w: runner.run(_sweep_argv(sweep, run_seed, w), f"{tag}-pair{pair}-w{w}")
               for w in order}
        problems = _exit_problems(inv[1]) + _exit_problems(inv[2])
        if not problems and inv[1].stdout != inv[2].stdout:
            problems = ["workers=2 CSV is not byte-identical to workers=1"]
        outcome.attempt(problems, "worker speedup pair")
        if not problems:
            speedups.append(inv[1].wall_s / inv[2].wall_s)
        spent += inv[1].wall_s + inv[2].wall_s
        if spent + spent / (pair + 1) / 2 >= seconds:
            break
    speedup = statistics.median(speedups) if speedups else 0.0
    outcome.metrics["runner.w2_speedup"] = (speedup, "ratio", len(speedups))


def provenance_record(seed):
    import numpy

    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
        "reference_seed": REF_SEED,
    }
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        record["git_commit"] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        record["git_commit"] = None
    # The benchmark's checkout need not be a git repository: hash the sources too.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    record["src_sha256"] = digest.hexdigest()
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trials", type=int,
                        help="trials per sweep invocation instead of the workload's "
                             "(smoke tests only; the figures are then not comparable)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.trials is not None and args.trials < 1):
        parser.error("--seed must be >= 0, --seconds > 0 and --trials >= 1")
    if not (ROOT / "src" / "fapsim" / "cli.py").is_file():
        print(f"perfbench: no fapsim sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    runner = Runner(time.perf_counter() + RUN_DEADLINE_S)
    outcome = Outcome()
    provenance = provenance_record(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sweep = WORKLOADS[args.workload]
    if sweep is not None and args.trials:
        sweep = dataclasses.replace(sweep, trials=args.trials)
    run = run_traced if args.trace else run_untraced
    run(runner, sweep, args.seed, args.seconds, outcome, provenance, tag)

    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<12} n={samples}")
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} {'ratio':<12} "
          f"n={outcome.attempted} attempts")
    for problem in outcome.problems[:20]:
        print(f"  FAIL {problem}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance, "failed_frac": failed_frac,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "problems": outcome.problems, "raw": outcome.raw,
              "metrics": {name: {"value": v, "unit": u, "samples": n}
                          for name, (v, u, n) in outcome.metrics.items()}}
    (WORK / f"{tag}.result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, u, _) in outcome.metrics.items()
                                  if name not in PRINTED_ONLY}}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
