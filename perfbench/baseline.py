"""Measure the current checkout and write perfbench/baseline.json.

    python3 perfbench/baseline.py --sets 2 --seeds 10 --seconds 30

Makes `--sets` sets of runs of the same code, one after the other. A set
runs every workload once per seed with --trace 0, interleaving the workloads
so that slow drift of the machine spreads over all of them; set k uses the
seeds k*seeds+1 .. (k+1)*seeds. For each end-to-end metric, workload and set
it records the per-run values, their median, quartiles
(`statistics.quantiles(n=4)`) and spread (interquartile distance / median),
and how much worse each later set's median is than the first set's, as a
share of it. It checks both against the bounds in BENCHMARK.json (the spread
of setup_s aside) and prints the verdict. It also records the traced
per-layer table of every workload (one --trace 1 run at seed 1) and the
per-invocation wall times of the sweep workloads, which show the bimodality
of `rate-ref-w2`. About an hour on two cores with the defaults.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORK, WORKLOADS

BASELINE = BENCH / "baseline.json"


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=240)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-3000:]}")
    return json.loads((WORK / f"{workload}-seed{seed}-trace{trace}.result.json").read_text())


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def measure_set(seeds, seconds):
    values = {w: {} for w in WORKLOADS}
    invocations = {w: [] for w in WORKLOADS}
    provenance = None
    for seed in seeds:
        for workload, sweep in WORKLOADS.items():
            record = run_once(workload, seed, seconds, 0)
            provenance = provenance or record["provenance"]
            for name, metric in record["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            if sweep is not None:
                invocations[workload] += record["raw"]["op_s"]
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in record["metrics"].items()), flush=True)
    result = {"seeds": list(seeds), "end_to_end": {}, "sweep_invocation_wall_s": {}}
    for workload, sweep in WORKLOADS.items():
        result["end_to_end"][workload] = {name: summarize(v)
                                          for name, v in values[workload].items()}
        if sweep is not None:
            walls = invocations[workload]
            deciles = statistics.quantiles(walls, n=10, method="inclusive")
            result["sweep_invocation_wall_s"][workload] = {
                "trials_per_invocation": sweep.trials, "workers": sweep.workers,
                "count": len(walls), "p10": deciles[0], "p50": deciles[4], "p90": deciles[-1],
                "sorted": [round(w, 3) for w in sorted(walls)]}
    return result, provenance


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    gated = {m["name"]: m for m in spec["end_to_end"]}

    sets, provenance = [], None
    for k in range(args.sets):
        result, prov = measure_set(range(k * args.seeds + 1, (k + 1) * args.seeds + 1),
                                   args.seconds)
        sets.append(result)
        provenance = provenance or prov

    checks, worse_by = [], {}
    for workload in WORKLOADS:
        for name, first in sets[0]["end_to_end"][workload].items():
            if name not in gated:
                continue
            metric = gated[name]
            for k, later in enumerate(sets[1:], start=2):
                median = later["end_to_end"][workload][name]["median"]
                share = (first["median"] - median if metric["better"] == "higher"
                         else median - first["median"]) / first["median"]
                worse_by.setdefault(workload, {}).setdefault(name, []).append(share)
                if workload in declared:
                    checks.append((workload, name, f"set {k} median worse by", share,
                                   metric["bound"]))
            for k, one in enumerate(sets, start=1):
                if workload in declared and name != "setup_s":
                    checks.append((workload, name, f"set {k} spread",
                                   one["end_to_end"][workload][name]["spread"], metric["bound"]))

    per_layer = {}
    for workload in WORKLOADS:
        record = run_once(workload, 1, args.seconds, 1)
        per_layer[workload] = {name: {"value": m["value"], "unit": m["unit"],
                                      "samples": m["samples"]}
                               for name, m in record["metrics"].items()}
        print(f"traced {workload}: trace.overhead_frac="
              f"{record['metrics']['trace.overhead_frac']['value']:.3f}", flush=True)

    speedup = [s["end_to_end"]["rate-ref-w2"]["trials_per_s"]["median"]
               / s["end_to_end"]["rate-ref"]["trials_per_s"]["median"] for s in sets]
    baseline = {"command": f"python3 perfbench/baseline.py --sets {args.sets} "
                           f"--seeds {args.seeds} --seconds {args.seconds:g}",
                "seconds": args.seconds, "provenance": provenance,
                "declared_workloads": sorted(declared), "sets": sets,
                "median_worse_than_set_1_by": worse_by,
                "w2_speedup_from_untraced_medians": speedup,
                "checks": [{"workload": w, "metric": n, "what": what, "value": v, "bound": b,
                            "within": v <= b} for w, n, what, v, b in checks],
                "per_layer": per_layer}
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    for workload in WORKLOADS:
        for name in sets[0]["end_to_end"][workload]:
            print(f"{workload:15} {name:13} " + "  ".join(
                f"set {k} median {s['end_to_end'][workload][name]['median']:10.4f} "
                f"spread {s['end_to_end'][workload][name]['spread']:.3f}"
                for k, s in enumerate(sets, start=1)))
    print(f"w2 speedup from untraced medians: {', '.join(f'{s:.3f}' for s in speedup)}")
    for w, n, what, v, b in checks:
        print(f"{'ok  ' if v <= b else 'OVER'} {w:15} {n:13} {what:22} {v:+.3f} bound {b}")


if __name__ == "__main__":
    main()
