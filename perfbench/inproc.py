"""In-process side of the benchmark: runs inside a fresh interpreter that
imports the checkout's `fapsim` (run.py puts `src` on PYTHONPATH).

    inproc.py setup                      import, config and BasisSpec construction only
    inproc.py link  --seed S --seconds T --trace 0|1 --out F [--spans F]
                    [--first-op N] [--check-reference 0|1]
    inproc.py sweep --command rate|ber --trials N --seed S --seconds T --out F --spans F

`link` runs the closed-loop library round trip, one op per channel draw,
in whole cycles from op --first-op (a multiple of LINK_CYCLE); with
--check-reference 1 it first checks the stored reference ops. With --trace 1
it alternates untraced and traced blocks of the same ops.
`sweep` alternates untraced and traced `run_rate_sweep`/`run_ber_sweep`
calls at workers=1 on the same seed. Results go to --out as JSON. The exit
code is 1 when the program raised anything the round trip does not expect.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from fapsim import channel, cli, evaluation, feedback, hybrid, precoding, runner
from fapsim.errors import DomainError, InvalidInputError

from run import REF_SEED, REFERENCE, Outcome, derive_seed
from tracer import Tracer, instrument, layer_metrics

# Link round trip: K fed-back angles, gamma cycled per op, 16x16 polar coefficients.
LINK_K = 16
LINK_GAMMAS = (1, 2, 4)
LINK_MAGNITUDE_LEVELS = 16
LINK_PHASE_LEVELS = 16
LINK_CODEBOOK_SIZE = 256
# Op i runs gamma LINK_GAMMAS[i % 3] at SNR point i % 13, so every LINK_CYCLE
# consecutive ops from a multiple of LINK_CYCLE cover each (gamma, SNR) pair
# once. The stored reference holds the first cycle at the reference seed.
LINK_CYCLE = 39
LINK_RATE_RTOL = 1e-6
HYBRID_TOL = 1e-10
TRACE_BLOCK_OPS = 10
WARMUP_TRIALS = 2


@dataclass(frozen=True)
class LinkContext:
    cfg: object
    specs: dict
    cc: object
    snrs: tuple


@dataclass(frozen=True)
class Roundtrip:
    report: object
    data: bytes
    decoded: object
    f_hat: np.ndarray
    f_hybrid: np.ndarray
    rate: float


def link_setup():
    """The reference config, one BasisSpec per gamma, and the coefficient codebook."""
    cfg = cli.build_experiment_config(cli.load_config())
    cb = feedback.AngleCodebook(cfg.channel.tx_sector, LINK_CODEBOOK_SIZE)
    specs = {g: feedback.BasisSpec(codebook=cb, tx=cfg.channel.tx, gamma=g) for g in LINK_GAMMAS}
    cc = feedback.ComplexCodebook.uniform_polar(LINK_MAGNITUDE_LEVELS, LINK_PHASE_LEVELS)
    snrs = tuple(10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_db_grid)
    return LinkContext(cfg, specs, cc, snrs)


def config_hash(ctx):
    blob = dataclasses.asdict(ctx.cfg)
    blob["link"] = {"k": LINK_K, "gammas": LINK_GAMMAS, "codebook_size": LINK_CODEBOOK_SIZE,
                    "coeff_codebook": [LINK_MAGNITUDE_LEVELS, LINK_PHASE_LEVELS]}
    text = json.dumps(blob, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def roundtrip(ctx, seed, index):
    """One closed-loop op: channel draw -> report -> wire -> rebuild -> hybrid -> rate."""
    snr = ctx.snrs[index % len(ctx.snrs)]
    spec = ctx.specs[LINK_GAMMAS[index % len(LINK_GAMMAS)]]
    streams = ctx.cfg.streams
    ch = channel.sample_channel(ctx.cfg.channel, channel.substream(seed, index))
    alloc = precoding.PowerAllocation("water_filling", total_power=snr)
    f_opt = precoding.optimal_precoder(ch.matrix, streams, alloc)
    report = feedback.build_report(f_opt, spec, LINK_K, ctx.cc)
    data = feedback.serialize_report(report, spec, ctx.cc)
    decoded = feedback.deserialize_report(data, spec, ctx.cc, streams)
    f_hat = feedback.reconstruct_precoder(decoded, spec).matrix
    f_hybrid = hybrid.reconstruct(hybrid.decompose(f_hat))
    rate = evaluation.achievable_rate(ch.matrix, f_hybrid, snr)
    return Roundtrip(report, data, decoded, f_hat, f_hybrid, rate)


def check_roundtrip(rt):
    """Problems with one round trip (empty when it passes)."""
    problems = []
    if rt.decoded.angle_indices != rt.report.angle_indices:
        problems.append("decoded angle indices differ")
    if not np.array_equal(rt.decoded.combining, rt.report.combining):
        problems.append("decoded combining matrix differs")
    payload_bits = rt.decoded.bits_angles + rt.decoded.bits_amplitudes
    if (rt.decoded.bits_angles, rt.decoded.bits_amplitudes) != (rt.report.bits_angles,
                                                                rt.report.bits_amplitudes):
        problems.append("decoded bit counts differ from the report's")
    if len(rt.data) != 4 + 8 + (payload_bits + 7) // 8:
        problems.append(f"{len(rt.data)} bytes for a {payload_bits}-bit payload")
    error = float(np.linalg.norm(rt.f_hybrid - rt.f_hat))
    if not error <= HYBRID_TOL:
        problems.append(f"hybrid realization error {error:.3g} > {HYBRID_TOL}")
    if not (np.isfinite(rt.rate) and rt.rate > 0):
        problems.append(f"rate {rt.rate} is not finite and positive")
    return problems


def _guarded(ctx, seed, index):
    """(round trip or None, problems, seconds spent in the program)."""
    start = time.perf_counter()
    try:
        rt = roundtrip(ctx, seed, index)
    except (InvalidInputError, DomainError, np.linalg.LinAlgError) as exc:
        return None, [f"{type(exc).__name__}: {exc}"], time.perf_counter() - start
    elapsed = time.perf_counter() - start
    return rt, check_roundtrip(rt), elapsed


def reference_record(rt):
    return {"angle_indices": list(rt.report.angle_indices), "report_bytes": len(rt.data),
            "bits": [rt.report.bits_angles, rt.report.bits_amplitudes], "rate": rt.rate}


def check_against_reference(rt, ref):
    got = reference_record(rt)
    problems = [f"{key} {got[key]} != reference {ref[key]}"
                for key in ("angle_indices", "report_bytes", "bits") if got[key] != ref[key]]
    if abs(got["rate"] - ref["rate"]) > LINK_RATE_RTOL * abs(ref["rate"]):
        problems.append(f"rate {got['rate']!r} != reference {ref['rate']!r}")
    return problems


def run_link(args, outcome):
    ctx = link_setup()
    if args.check_reference:
        with open(REFERENCE / "link-roundtrip.json", encoding="utf-8") as fh:
            reference = json.load(fh)["ops"]
        for index, ref in enumerate(reference):
            rt, problems, _ = _guarded(ctx, REF_SEED, index)
            outcome.attempt(problems or check_against_reference(rt, ref), f"reference op {index}")

    result = {"config_sha256": config_hash(ctx)}
    if args.trace:
        result.update(_traced_link(args, outcome))
        return result
    # Time whole cycles only, so that every cycle carries the same mix of ops.
    latencies, ok = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(latencies) % LINK_CYCLE:
        index = args.first_op + len(latencies)
        _, problems, elapsed = _guarded(ctx, args.seed, index)
        outcome.attempt(problems, f"op {index}")
        latencies.append(elapsed)
        ok.append(not problems)
    result.update(latencies_s=latencies, op_ok=ok)
    return result


def _traced_link(args, outcome):
    """Alternate untraced and traced blocks over the same ops; outputs must match."""
    tracer = Tracer()
    with instrument(tracer):
        ctx = link_setup()
    ratios, traced_ops = [], 0
    start = time.perf_counter()
    block = 0
    while time.perf_counter() - start < args.seconds or not ratios:
        first = block * TRACE_BLOCK_OPS
        indices = range(first, first + TRACE_BLOCK_OPS)
        plain_start = time.perf_counter()
        plain = [_guarded(ctx, args.seed, i)[0] for i in indices]
        plain_s = time.perf_counter() - plain_start
        with instrument(tracer):
            traced_start = time.perf_counter()
            traced = [_guarded(ctx, args.seed, i) for i in indices]
            traced_s = time.perf_counter() - traced_start
        for i, a, (b, problems, _) in zip(indices, plain, traced):
            if not problems and (a is None or a.data != b.data or a.rate != b.rate):
                problems = ["traced round trip differs from the untraced one"]
            outcome.attempt(problems, f"traced op {i}")
        ratios.append(traced_s / plain_s)
        traced_ops += TRACE_BLOCK_OPS
        block += 1
    tracer.dump(args.spans)
    metrics = layer_metrics(tracer, traced_ops)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    return {"metrics": metrics, "samples": traced_ops}


def _sweep_once(command, trials, seed):
    raw = cli.load_config()
    raw["seed"] = seed
    raw["trials"] = trials
    cfg = cli.build_experiment_config(raw)
    sweep = runner.run_rate_sweep if command == "rate" else runner.run_ber_sweep
    return sweep(cfg, workers=1), cfg


def run_traced_sweep(args, outcome):
    """Pairs of untraced and traced in-process sweeps, alternating which goes first."""
    tracer = Tracer()
    ratios = []
    config = None
    _sweep_once(args.command, WARMUP_TRIALS, args.seed)    # lazy imports, BLAS threads
    start = time.perf_counter()
    pair = 0
    # Pairs run until the next one would end more than half a pair past --seconds.
    while not pair or (time.perf_counter() - start) * (1 + 0.5 / pair) < args.seconds:
        seed = derive_seed(args.seed, pair)
        timings, outputs = {}, {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            with instrument(tracer) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                outputs[traced], cfg = _sweep_once(args.command, args.trials, seed)
                timings[traced] = time.perf_counter() - t0
        config = config or cfg
        problems = [] if outputs[True] == outputs[False] else [
            "traced CSV bytes differ from the untraced CSV"]
        outcome.attempt(problems, f"sweep pair seed {seed}")
        ratios.append(timings[True] / timings[False])
        pair += 1
    tracer.dump(args.spans)
    metrics = layer_metrics(tracer, args.trials * pair)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    text = json.dumps(dataclasses.asdict(config), sort_keys=True, default=repr)
    return {"metrics": metrics, "samples": args.trials * pair,
            "config_sha256": hashlib.sha256(text.encode()).hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "link", "sweep"))
    parser.add_argument("--seed", type=int, default=REF_SEED)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-op", type=int, default=0)
    parser.add_argument("--check-reference", type=int, choices=(0, 1), default=1)
    parser.add_argument("--command", choices=("rate", "ber"))
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    if args.mode == "setup":
        print(json.dumps({"config_sha256": config_hash(link_setup())}))
        return 0
    outcome = Outcome()
    code = 0
    try:
        if args.mode == "link":
            result = run_link(args, outcome)
        else:
            result = run_traced_sweep(args, outcome)
    except Exception:
        # Boundary of the measured process: report, do not hide, anything unexpected.
        traceback.print_exc()
        outcome.attempt([traceback.format_exc().strip().splitlines()[-1]], args.mode)
        result = {}
        code = 1
    result.update(attempted=outcome.attempted, failed=outcome.failed, problems=outcome.problems)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
