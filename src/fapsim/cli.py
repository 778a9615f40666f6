"""Command-line experiment harness.

Subcommands: the keys of COMMANDS. A YAML config file is merged
over built-in defaults, then --seed/--trials/--gammas over that; a key the
defaults lack is an error. Exit codes: 0 success, 1 config error, 2 numeric
failure.
"""

import argparse
import copy
import dataclasses
import re
import sys

import numpy as np

from .channel import ArrayGeometry, ChannelConfig, _check_sector
from .errors import DomainError, InvalidInputError
from .evaluation import BEAM_PATTERN_MIN_GRID
from .feedback import ComplexCodebook
from .runner import (SCHEMES, BeamPatternConfig, ExperimentConfig, run_beam_pattern, run_ber_sweep,
                     run_overhead_table, run_rate_sweep)

DEFAULT_CONFIG = {
    "channel": {
        "tx_antennas": 128,
        "rx_antennas": 16,
        "spacing_over_wavelength": 0.5,
        "clusters": 12,
        "rays_per_cluster": 20,
        "tx_sector_deg": [-45.0, 45.0],
        "rx_sector_deg": [-180.0, 180.0],
        "angular_spread_deg": 0.875,
    },
    "streams": 4,
    "allocation": "unitary",
    "snr_db": {"start": -20.0, "stop": 10.0, "step": 2.5},
    "trials": 200,
    "symbols_per_trial": 1000,
    "seed": 20250809,
    "schemes": [
        {"type": "optimal"},
        {"type": "proposed", "k": 6, "gamma": 1, "angle_codebook_size": 256},
        {"type": "proposed", "k": 8, "gamma": 1, "angle_codebook_size": 256},
        {"type": "proposed", "k": 16, "gamma": 1, "angle_codebook_size": 256},
        {"type": "sparse", "q": 8, "angle_codebook_size": 256},
        {"type": "multilevel", "k": 16, "angle_codebook_size": 256},
    ],
    "beam_pattern": {
        "sector_deg": [-30.0, 30.0],
        "codebook_size": 16,
        "center_index": 8,
        "grid_size": 2048,
        "gammas": [1, 2, 4],
    },
}

# The accepted [lowest, highest] of every numeric config value, keyed by leaf name: a list's
# entries as `name[]`, a list itself by its length (an SNR grid, list or range, holds at most
# MAX_SNR_POINTS). One leaf at its highest, the rest at the reference values, stays cheap to run.
MAX_SNR_POINTS, DEGREES, SNR_DB = 10_000, (-180.0, 180.0), (-300.0, 300.0)
RANGES = {
    "tx_antennas": (1, 1024), "rx_antennas": (1, 512), "spacing_over_wavelength": (0.01, 100.0),
    "clusters": (1, 256), "rays_per_cluster": (1, 256), "angular_spread_deg": (0.001, 180.0),
    "tx_sector_deg": (2, 2), "rx_sector_deg": (2, 2), "sector_deg": (2, 2),
    "tx_sector_deg[]": DEGREES, "rx_sector_deg[]": DEGREES, "sector_deg[]": DEGREES,
    "streams": (1, 64), "trials": (1, 100_000), "symbols_per_trial": (1, 100_000),
    "seed": (0, 2 ** 64 - 1), "snr_db": (1, MAX_SNR_POINTS), "snr_db[]": SNR_DB,
    "start": SNR_DB, "stop": SNR_DB, "step": (0.001, 600.0),
    "k": (1, 128), "q": (1, 128), "gamma": (1, 64), "angle_codebook_size": (1, 4096),
    "magnitude_levels": (1, 2 ** 16), "phase_levels": (1, 2 ** 16),
    "codebook_size": (1, 4096), "center_index": (0, 4095),
    "grid_size": (BEAM_PATTERN_MIN_GRID, 2 ** 16), "gammas": (1, 16), "gammas[]": (1, 64),
}


def _merge(base, override, where):
    """`override` merged into a copy of `base`; a key that `base` lacks is an error."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise InvalidInputError(f"{where}{key}: unknown key")
        if isinstance(value, dict) and isinstance(out[key], dict):
            out[key] = _merge(out[key], value, f"{where}{key}.")
        else:
            out[key] = value
    return out


def load_config(path=None):
    """Built-in defaults, optionally merged with a YAML file."""
    user = {}
    if path is not None:
        import yaml                    # only here: a run without --config never loads PyYAML
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = yaml.safe_load(fh)
        except (OSError, UnicodeError, yaml.YAMLError) as exc:
            raise InvalidInputError(f"--config: {exc}") from None
    if not isinstance(user, (dict, type(None))):
        raise InvalidInputError("config: top level must be a mapping")
    return _merge(DEFAULT_CONFIG, user or {}, "")


def _get(tree, path, kind, where=""):
    """The `kind` value at dotted `path`; errors name the field as `where` + `path`."""
    node = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise InvalidInputError(f"{where}{path}: missing required key")
        node = node[part]
    return _typed(node, kind, where + path)


def _typed(value, kind, name):
    """`value` if it is a `kind` within its RANGES entry, found by the last part of `name` (a
    list: its length). Strict: an int passes as a float, a bool never passes as a number."""
    numeric = kind is float and isinstance(value, int)
    if not (isinstance(value, kind) or numeric) or isinstance(value, bool):
        raise InvalidInputError(f"{name}: expected {kind.__name__}, got {value!r}")
    bounded = len(value) if kind is list else value
    lo, hi = RANGES.get(re.sub(r"\[\d+\]", "[]", name).split(".")[-1].lstrip("-"), (None, None))
    if lo is not None and not lo <= bounded <= hi:
        what = "length " if kind is list else ""
        raise InvalidInputError(f"{name}: {what}{bounded!r} is outside [{lo}, {hi}]")
    return float(value) if numeric else value


def _entries(values, kind, name):
    """A list within its length range, each entry a `kind` within its own range."""
    return tuple(_typed(v, kind, f"{name}[{i}]") for i, v in enumerate(_typed(values, list, name)))


def _sector(tree, path):
    return _check_sector(np.deg2rad(_entries(_get(tree, path, list), float, path)), path)


def _coeff_codebook(node, where):
    where, ideal = where + ".coeff_codebook", ComplexCodebook.ideal()
    if node is None or node == ideal.mode:
        return ideal
    if not isinstance(node, dict):
        raise InvalidInputError(f"{where}: expected {ideal.mode!r} or a level mapping")
    keys = _merge(dict.fromkeys(("magnitude_levels", "phase_levels")), node, where + ".")  # unknown keys
    levels = {key: _get(node, key, int, where + ".") for key in keys}
    try:
        return ComplexCodebook.uniform_polar(**levels)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{where}: {exc}") from None


def _scheme(node, index):
    """One scheme from its config node: `type` picks the class, every other key is one of its fields."""
    where = f"schemes[{index}]"
    if not isinstance(node, dict):
        raise InvalidInputError(f"{where}: expected a mapping with a 'type' key")
    kind = _get(node, "type", str, where + ".")
    if kind not in SCHEMES:
        raise InvalidInputError(f"{where}.type: unknown scheme type {kind!r}")
    fields = dataclasses.fields(SCHEMES[kind])
    _merge(dict.fromkeys(["type"] + [f.name for f in fields]), node, where + ".")  # unknown keys
    values = {}
    for f in fields:
        if f.type is ComplexCodebook:
            values[f.name] = _coeff_codebook(node.get(f.name), where)
        elif f.name in node or f.default is dataclasses.MISSING:
            values[f.name] = _get(node, f.name, f.type, where + ".")
    return SCHEMES[kind](**values)


def _snr_grid(tree):
    node = tree["snr_db"]
    if isinstance(node, list):
        return _entries(node, float, "snr_db")
    if isinstance(node, dict):
        start, stop, step = (_get(tree, f"snr_db.{key}", float) for key in ("start", "stop", "step"))
        count = int(np.floor((stop - start) / step + 1e-9)) + 1        # below 1 when stop < start
        return tuple(_typed([start + i * step for i in range(count)], list, "snr_db"))
    raise InvalidInputError("snr_db: expected a list or {start, stop, step}")


def build_experiment_config(raw):
    """Validate a raw config tree and build the typed experiment config."""
    spacing = _get(raw, "channel.spacing_over_wavelength", float)
    channel = ChannelConfig(
        tx=ArrayGeometry(_get(raw, "channel.tx_antennas", int), spacing),
        rx=ArrayGeometry(_get(raw, "channel.rx_antennas", int), spacing),
        num_clusters=_get(raw, "channel.clusters", int),
        rays_per_cluster=_get(raw, "channel.rays_per_cluster", int),
        tx_sector=_sector(raw, "channel.tx_sector_deg"),
        rx_sector=_sector(raw, "channel.rx_sector_deg"),
        angular_spread=float(np.deg2rad(_get(raw, "channel.angular_spread_deg", float))),
    )
    schemes = tuple(_scheme(node, i) for i, node in enumerate(_get(raw, "schemes", list)))
    beam = BeamPatternConfig(
        sector=_sector(raw, "beam_pattern.sector_deg"),
        codebook_size=_get(raw, "beam_pattern.codebook_size", int),
        center_index=_get(raw, "beam_pattern.center_index", int),
        grid_size=_get(raw, "beam_pattern.grid_size", int),
        gammas=_entries(_get(raw, "beam_pattern.gammas", list), int, "beam_pattern.gammas"),
    )
    return ExperimentConfig(
        channel=channel,
        streams=_get(raw, "streams", int),
        schemes=schemes,
        snr_db_grid=_snr_grid(raw),
        trials=_get(raw, "trials", int),
        symbols_per_trial=_get(raw, "symbols_per_trial", int),
        seed=_get(raw, "seed", int),
        allocation=_get(raw, "allocation", str),
        beam_pattern=beam,
    )


# Each subcommand: its help line, and its runner of (config, workers). A runner is looked up
# among this module's globals when it is called, so a patched `run_rate_sweep` is the one run.
COMMANDS = {
    "rate": ("achievable-rate sweep over SNR", lambda cfg, workers: run_rate_sweep(cfg, workers=workers)),
    "ber": ("uncoded QPSK BER sweep over SNR", lambda cfg, workers: run_ber_sweep(cfg, workers=workers)),
    "beam-pattern": ("beam-pattern profile per gamma", lambda cfg, workers: run_beam_pattern(cfg)),
    "overhead": ("feedback-bit table per scheme", lambda cfg, workers: run_overhead_table(cfg)),
}


class _Parser(argparse.ArgumentParser):
    """A malformed flag (`--trials x`) is a config error naming the flag, not argparse's exit 2."""

    def error(self, message):
        raise InvalidInputError(message)


def _add_common(parser):
    parser.add_argument("--config", help="YAML config file merged over the defaults")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--trials", type=int, help="override the config trial count")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel trial workers, capped at the trial count and the CPU "
                             "count (default 1; results are identical)")


def main(argv=None):
    parser = _Parser(
        prog="fapsim",
        description="Feedback-aware hybrid precoding Monte-Carlo experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (descr, _) in COMMANDS.items():
        p = sub.add_parser(name, help=descr)
        _add_common(p)
        if name == "beam-pattern":
            p.add_argument("--gammas", help="comma-separated gamma list, e.g. 1,2,4")
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            raise InvalidInputError(f"--workers: must be >= 1, got {args.workers}")
        flags = {key: value for key, value in (("seed", args.seed), ("trials", args.trials))
                 if value is not None}
        if getattr(args, "gammas", None) is not None:
            try:
                gammas = [int(g) for g in args.gammas.split(",")]
            except ValueError:
                raise InvalidInputError(f"--gammas: expected comma-separated integers, "
                                        f"got {args.gammas!r}") from None
            flags["beam_pattern"] = {"gammas": list(_entries(gammas, int, "--gammas"))}
        cfg = build_experiment_config(_merge(load_config(args.config), flags, ""))
        csv_text = COMMANDS[args.command][1](cfg, args.workers)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(csv_text)
            except OSError as exc:
                raise InvalidInputError(f"--out: {exc}") from None
        else:
            sys.stdout.write(csv_text)
    except (InvalidInputError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DomainError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
