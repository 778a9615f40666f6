"""Regenerate perfbench/reference/ from the checkout's current program.

    python3 perfbench/make_reference.py

Writes the rate and BER sweep CSVs at the reference seed (workers=1,
REFERENCE_TRIALS) and the first LINK_CYCLE link round trips
at the reference seed. Run it only on the commit that defines the baseline:
the correctness gate compares every later commit against these files.
"""

import json
import sys
import time

from run import REF_SEED, REFERENCE, REFERENCE_TRIALS, ROOT, WORK, Runner, Sweep, _sweep_argv


def main():
    WORK.mkdir(exist_ok=True)
    REFERENCE.mkdir(exist_ok=True)
    runner = Runner(time.perf_counter() + 600.0)
    for sweep in (Sweep(command, trials, 1) for command, trials in REFERENCE_TRIALS.items()):
        inv = runner.run(_sweep_argv(sweep, REF_SEED, 1), f"reference-{sweep.command}")
        if inv.code != 0:
            sys.exit(f"fapsim {sweep.command} failed: {inv.stderr}")
        (REFERENCE / f"{sweep.command}-ref.csv").write_text(inv.stdout, encoding="utf-8")

    sys.path.insert(0, str(ROOT / "src"))
    import inproc

    ctx = inproc.link_setup()
    ops = []
    for index in range(inproc.LINK_CYCLE):
        rt, problems, _ = inproc._guarded(ctx, REF_SEED, index)
        if problems:
            sys.exit(f"link op {index} failed: {problems}")
        ops.append(inproc.reference_record(rt))
    record = {"seed": REF_SEED, "config_sha256": inproc.config_hash(ctx), "ops": ops}
    (REFERENCE / "link-roundtrip.json").write_text(json.dumps(record, indent=1) + "\n",
                                                   encoding="utf-8")


if __name__ == "__main__":
    main()
