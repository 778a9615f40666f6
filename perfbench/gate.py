"""Correctness gate for sweep CSVs.

A sweep at the reference seed and trial count must match the stored
reference: the same header, schemes and SNR points, feedback-bit columns exactly, integer
columns exactly, bit-error counts within BIT_ERRORS_ABS/BIT_ERRORS_REL and
floating-point columns within FLOAT_RTOL/FLOAT_ATOL. A sweep at any other
seed or trial count must have the reference's structure, config (seed and
trials aside) and feedback-bit columns, echo its own seed and trial count,
send the reference's bits per trial, and hold only values in range: finite,
rate > 0, stderr >= 0, BER in [0, 1] and equal to bit_errors / bits_sent.
"""

import json
import math

# Tolerances for the reference-seed comparison. They admit changes in the
# order of floating-point operations (a different BLAS path, a batched
# solver) and nothing that moves a result a user would read.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-12
BIT_ERRORS_ABS = 2
BIT_ERRORS_REL = 1e-3

BIT_COLUMNS = ("feedback_angle_bits", "feedback_amplitude_bits")
INT_COLUMNS = BIT_COLUMNS + ("bit_errors", "bits_sent")


def parse_csv(text):
    """(comment lines, column names, rows as lists of strings)."""
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        raise ValueError("no header row")
    return comments, body[0].split(","), [line.split(",") for line in body[1:]]


def _config(comments):
    line = next((c for c in comments if c.startswith("# config: ")), None)
    return {} if line is None else json.loads(line[len("# config: "):])


def _config_rest(config):
    # The config line embeds the seed and trial count; the rest must match the reference.
    return {k: v for k, v in config.items() if k not in ("seed", "trials")}


def check_sweep(text, reference, seed, trials, against_reference):
    """Return a list of problems (empty when the CSV passes)."""
    try:
        comments, columns, rows = parse_csv(text)
        ref_comments, ref_columns, ref_rows = parse_csv(reference)
    except ValueError as exc:
        return [f"unparseable CSV: {exc}"]
    problems = []
    if comments[:1] != ref_comments[:1]:
        problems.append(f"title {comments[:1]} != {ref_comments[:1]}")
    if f"# seed: {seed}" not in comments:
        problems.append(f"seed line for {seed} missing")
    try:
        config, ref_config = _config(comments), _config(ref_comments)
    except ValueError as exc:
        return problems + [f"unparseable config line: {exc}"]
    if _config_rest(config) != _config_rest(ref_config):
        problems.append("resolved config differs from the reference")
    if config.get("trials") != trials:
        problems.append(f"config trials {config.get('trials')} != {trials}")
    if against_reference and trials != ref_config.get("trials"):
        problems.append(f"{trials} trials, the reference has {ref_config.get('trials')}")
    if problems:
        return problems
    if columns != ref_columns:
        return problems + [f"columns {columns} != {ref_columns}"]
    if len(rows) != len(ref_rows):
        return problems + [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(columns):
            problems.append(f"row {n}: {len(row)} fields")
            continue
        values = dict(zip(columns, row))
        ref_values = dict(zip(columns, ref))
        where = f"row {n} ({ref_values['scheme']} @ {ref_values['snr_db']} dB)"
        for key in ("scheme", "snr_db") + tuple(c for c in BIT_COLUMNS if c in values):
            if values[key] != ref_values[key]:
                problems.append(f"{where}: {key} {values[key]} != {ref_values[key]}")
        try:
            problems += _check_row(values, ref_values, trials / ref_config["trials"], where,
                                   against_reference)
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
    return problems


def _check_row(values, ref, scale, where, against_reference):
    problems = []
    numeric = {k: (int(v) if k in INT_COLUMNS else float(v))
               for k, v in values.items() if k not in ("scheme", "snr_db")}
    if not all(math.isfinite(v) for v in numeric.values()):
        problems.append(f"{where}: non-finite value")
    if numeric["stderr"] < 0:
        problems.append(f"{where}: negative stderr")
    if "mean_rate" in numeric and not numeric["mean_rate"] > 0:
        problems.append(f"{where}: mean_rate {numeric['mean_rate']} not positive")
    if "ber" in numeric:
        expected = int(ref["bits_sent"]) * scale
        if numeric["bits_sent"] != expected:
            problems.append(f"{where}: bits_sent {numeric['bits_sent']} != {expected:g}")
        if not 0.0 <= numeric["ber"] <= 1.0:
            problems.append(f"{where}: ber {numeric['ber']} outside [0, 1]")
        elif numeric["bits_sent"] and not math.isclose(
                numeric["ber"], numeric["bit_errors"] / numeric["bits_sent"], rel_tol=1e-12):
            problems.append(f"{where}: ber != bit_errors / bits_sent")
    if not against_reference:
        return problems
    for key, value in numeric.items():
        expected = int(ref[key]) if key in INT_COLUMNS else float(ref[key])
        if key == "bit_errors":
            ok = abs(value - expected) <= max(BIT_ERRORS_ABS, BIT_ERRORS_REL * expected)
        elif key in INT_COLUMNS:
            ok = value == expected
        else:
            ok = math.isclose(value, expected, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
        if not ok:
            problems.append(f"{where}: {key} {value!r} != reference {expected!r}")
    return problems
