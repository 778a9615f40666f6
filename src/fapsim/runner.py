"""Monte-Carlo experiment runner.

Each trial owns an independent random sub-stream derived from (seed, trial),
so results are identical for any worker count; per-trial values land in a
trial-indexed buffer and are reduced serially. All sweeps emit CSV text with
the resolved configuration embedded in '#' comment lines.
"""

import ctypes
import dataclasses
import functools
import glob
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import multilevel_csi_feedback
from .channel import ChannelConfig, _check_sector, sample_channel, substream
from .errors import InvalidInputError
from .evaluation import BEAM_PATTERN_MIN_GRID, MmseLink, achievable_rate, beam_pattern, draw_qpsk
from .feedback import (AngleCodebook, BasisSpec, ComplexCodebook, OmpPath, _log2_exact,
                       deserialize_report, overhead_bits, pack_report, proposed_bits,
                       reconstruct_precoder, serialize_report)
from .precoding import PowerAllocation, optimal_precoder


def _coeff_suffix(cc):
    """Label suffix naming a quantized coefficient codebook; empty when ideal."""
    if cc.mode == "ideal":
        return ""
    return f"_m{cc.magnitude_levels}p{cc.phase_levels}"


# A scheme class is its whole definition: `label`; `validate(cfg, where)`, which
# names the failing field as `where.<field>`; `overhead(cfg)`, the nominal
# (angle_bits, amplitude_bits); and `precoder(ch, cfg, alloc, f_opt, omp)`, its unit-norm
# M x S matrix on one draw given the shared optimal precoder `f_opt` and the group's
# memo `omp(spec)`, the one `OmpPath` of `f_opt` per BasisSpec that every scheme reads.

@dataclass(frozen=True)
class OptimalScheme:
    """Upper bound: optimal precoder from exact CSI, no feedback constraint."""

    label = "optimal"

    def validate(self, cfg, where):
        pass

    def overhead(self, cfg):
        return 0, 0

    def precoder(self, ch, cfg, alloc, f_opt, omp):
        return f_opt.matrix


@dataclass(frozen=True)
class ProposedScheme:
    """Greedy basis selection: K fed-back angles and a K x S combining matrix."""

    k: int
    gamma: int = 1
    angle_codebook_size: int = 256
    coeff_codebook: ComplexCodebook = field(default_factory=ComplexCodebook.ideal)

    @property
    def label(self):
        return (f"proposed_k{self.k}_g{self.gamma}_cb{self.angle_codebook_size}"
                + _coeff_suffix(self.coeff_codebook))

    def validate(self, cfg, where):
        _log2_exact(self.angle_codebook_size, f"{where}.angle_codebook_size")
        if not 1 <= self.k <= self.angle_codebook_size:
            raise InvalidInputError(f"{where}.k: must be in [1, angle_codebook_size]")
        if not (isinstance(self.gamma, (int, np.integer)) and self.gamma >= 1):
            raise InvalidInputError(f"{where}.gamma: must be an integer >= 1, got {self.gamma!r}")

    def _spec(self, cfg):
        return BasisSpec(codebook=AngleCodebook(cfg.channel.tx_sector, self.angle_codebook_size),
                         tx=cfg.channel.tx, gamma=self.gamma)

    def overhead(self, cfg):
        return proposed_bits(self.k, cfg.streams, self._spec(cfg).codebook, self.coeff_codebook)

    def precoder(self, ch, cfg, alloc, f_opt, omp):
        spec, cc = self._spec(cfg), self.coeff_codebook
        report = pack_report(*omp(spec).at(self.k)[:2], spec, cc)
        if cc.mode != "ideal":             # the transmitter rebuilds F_hat from the wire bytes alone
            report = deserialize_report(serialize_report(report, spec, cc), spec, cc, cfg.streams)
        return reconstruct_precoder(report, spec).matrix


@dataclass(frozen=True)
class SparseScheme:
    """Q RF-chain benchmark: the proposed engine at K = Q, gamma = 1, ideal amplitudes."""

    q: int
    angle_codebook_size: int = 256

    @property
    def label(self):
        return f"sparse_q{self.q}_cb{self.angle_codebook_size}"

    def validate(self, cfg, where):
        _log2_exact(self.angle_codebook_size, f"{where}.angle_codebook_size")
        if self.q < cfg.streams:
            raise InvalidInputError(f"{where}.q: must be >= streams")
        if self.q > self.angle_codebook_size:
            raise InvalidInputError(f"{where}.q: must be <= angle_codebook_size")

    def _proposed(self):
        return ProposedScheme(k=self.q, gamma=1, angle_codebook_size=self.angle_codebook_size)

    def overhead(self, cfg):
        return self._proposed().overhead(cfg)

    def precoder(self, ch, cfg, alloc, f_opt, omp):
        return self._proposed().precoder(ch, cfg, alloc, f_opt, omp)


@dataclass(frozen=True)
class MultilevelScheme:
    """Quantized-CSI benchmark: the K strongest paths fed back, F_opt of the rebuilt channel."""

    k: int
    angle_codebook_size: int = 256
    coeff_codebook: ComplexCodebook = field(default_factory=ComplexCodebook.ideal)

    @property
    def label(self):
        return f"multilevel_k{self.k}_cb{self.angle_codebook_size}" + _coeff_suffix(self.coeff_codebook)

    def validate(self, cfg, where):
        _log2_exact(self.angle_codebook_size, f"{where}.angle_codebook_size")
        if not 1 <= self.k <= cfg.channel.num_paths:
            raise InvalidInputError(f"{where}.k: must be in [1, clusters*rays_per_cluster]")

    def overhead(self, cfg):
        return overhead_bits("multilevel_csi", k=self.k, angle_codebook_size=self.angle_codebook_size,
                             coeff_codebook_size=2 ** self.coeff_codebook.bits_per_value)

    def precoder(self, ch, cfg, alloc, f_opt, omp):
        h_hat = multilevel_csi_feedback(ch, cfg.channel, self.k, self.angle_codebook_size,
                                        self.coeff_codebook)
        return optimal_precoder(h_hat, cfg.streams, alloc).matrix


# Scheme classes keyed on the config file's `type`.
SCHEMES = {
    "optimal": OptimalScheme,
    "proposed": ProposedScheme,
    "sparse": SparseScheme,
    "multilevel": MultilevelScheme,
}


@dataclass(frozen=True)
class BeamPatternConfig:
    sector: tuple = (-np.pi / 6, np.pi / 6)
    codebook_size: int = 16
    center_index: int = 8
    grid_size: int = 2048
    gammas: tuple = (1, 2, 4)

    def __post_init__(self):
        _check_sector(self.sector, "beam_pattern.sector")
        _log2_exact(self.codebook_size, "beam_pattern.codebook_size")
        if not 0 <= self.center_index < self.codebook_size:
            raise InvalidInputError("beam_pattern.center_index: must be in [0, codebook_size)")
        if self.grid_size < BEAM_PATTERN_MIN_GRID:
            raise InvalidInputError(f"beam_pattern.grid_size: must be >= {BEAM_PATTERN_MIN_GRID}")
        if not self.gammas or not all(isinstance(g, (int, np.integer)) and g >= 1 for g in self.gammas):
            raise InvalidInputError(f"beam_pattern.gammas: must be integers >= 1, got {self.gammas}")
        if len(set(self.gammas)) != len(self.gammas):
            raise InvalidInputError("beam_pattern.gammas: entries must be unique")


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelConfig
    streams: int
    schemes: tuple
    snr_db_grid: tuple
    trials: int
    symbols_per_trial: int
    seed: int
    allocation: str = "unitary"
    beam_pattern: BeamPatternConfig = field(default_factory=BeamPatternConfig)

    def __post_init__(self):
        if self.streams < 1 or self.streams > min(self.channel.tx.num_elements,
                                                  self.channel.rx.num_elements):
            raise InvalidInputError("streams: must be in [1, min(tx, rx antennas)]")
        if len(self.snr_db_grid) == 0:
            raise InvalidInputError("snr_db_grid: must be non-empty")
        for i, snr_db in enumerate(self.snr_db_grid):
            if not (math.isfinite(snr_db) and 0.0 < _db_to_linear(snr_db) < math.inf):
                raise InvalidInputError(
                    f"snr_db[{i}]: must be finite with a positive, finite linear value, got {snr_db}")
        if self.trials < 1:
            raise InvalidInputError("trials: must be >= 1")
        if self.symbols_per_trial < 1:
            raise InvalidInputError("symbols_per_trial: must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed: must be >= 0")
        if self.allocation not in ("unitary", "water_filling"):
            raise InvalidInputError("allocation: must be 'unitary' or 'water_filling'")
        if len(self.schemes) == 0:
            raise InvalidInputError("schemes: must be non-empty")
        for i, scheme in enumerate(self.schemes):
            scheme.validate(self, f"schemes[{i}]")
        labels = [s.label for s in self.schemes]
        if len(set(labels)) != len(labels):
            raise InvalidInputError("schemes: labels must be unique")


def _db_to_linear(snr_db):
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return math.inf


def _snr_linear(cfg):
    return np.array([_db_to_linear(snr_db) for snr_db in cfg.snr_db_grid])


def _precoder_groups(cfg, ch):
    """(SNR indices, their linear SNRs, precoder of every scheme) groups covering the SNR grid.

    Unitary precoders do not depend on the SNR, so one group holds every point;
    water-filling gives one group per point. A group's schemes share one F_opt and
    one `OmpPath` per distinct BasisSpec, extended to the largest K read off it.
    """
    snrs = _snr_linear(cfg)
    unitary = cfg.allocation == "unitary"
    for cols in [list(range(len(snrs)))] if unitary else [[j] for j in range(len(snrs))]:
        alloc = PowerAllocation(cfg.allocation, total_power=snrs[cols[0]])
        f_opt = optimal_precoder(ch.matrix, cfg.streams, alloc)
        omp = functools.cache(functools.partial(OmpPath, f_opt))
        precoders = [s.precoder(ch, cfg, alloc, f_opt, omp) for s in cfg.schemes]
        omp.cache_clear()                  # free the paths' Psi^H copies while the caller detects
        yield cols, snrs[cols], precoders


def _rate_trial(cfg, trial):
    ch = sample_channel(cfg.channel, substream(cfg.seed, trial))
    out = np.empty((len(cfg.schemes), len(cfg.snr_db_grid)))
    for cols, snrs, precoders in _precoder_groups(cfg, ch):
        for i, f in enumerate(precoders):
            # One SVD of H F per scheme gives the rate at every SNR of the group.
            out[i, cols] = achievable_rate(ch.matrix, f, snrs)
    return out


def _ber_trial(cfg, trial):
    ch = sample_channel(cfg.channel, substream(cfg.seed, trial))
    errors = np.zeros((len(cfg.schemes), len(cfg.snr_db_grid)), dtype=np.int64)
    for cols, snrs, precoders in _precoder_groups(cfg, ch):
        links = [MmseLink(ch.matrix, f) for f in precoders]   # one SVD of H F per scheme and group
        for j, snr in zip(cols, snrs):
            # One symbol/noise block per (trial, snr), shared by every scheme: each
            # scheme sees the same symbols and noise, pairing the comparison.
            symbols, noise = draw_qpsk(substream(cfg.seed, trial, j), cfg.streams,
                                       ch.matrix.shape[0], cfg.symbols_per_trial)
            for i, link in enumerate(links):
                errors[i, j] = link.bit_errors(snr, symbols, noise)
    return errors


def _worker_count(workers, trials):
    """Pool size: never more processes than trials or than the machine's CPUs."""
    return max(1, min(workers, trials, os.cpu_count() or 1))


def _one_blas_thread():
    """Pool initializer: pin the OpenBLAS that numpy's wheel bundles to one thread in this
    worker, so that workers and BLAS threads do not compete for the same cores. A no-op where
    that library or its set-threads symbol is absent."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        try:
            set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        except OSError:
            continue
        if set_threads is not None:
            set_threads(1)


def _map_trials(fn, cfg, workers):
    trials = range(cfg.trials)
    workers = _worker_count(workers, cfg.trials)
    if workers <= 1:
        return [fn(cfg, t) for t in trials]
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        return list(pool.map(fn, [cfg] * cfg.trials, trials))


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv(cfg, title, columns, rows):
    blob = dataclasses.asdict(cfg)
    for scheme, node in zip(cfg.schemes, blob["schemes"]):
        node["label"] = scheme.label
    lines = [f"# fapsim {title}"]
    lines.append("# config: " + json.dumps(blob, sort_keys=True, default=_json_default))
    lines.append(f"# seed: {cfg.seed}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _sweep_csv(cfg, title, metric_columns, cells):
    """One row per (scheme, SNR): label, snr_db, the metric's `cells(i, j)` for scheme i at
    SNR point j, then the scheme's feedback angle and amplitude bits."""
    columns = ["scheme", "snr_db", *metric_columns, "feedback_angle_bits", "feedback_amplitude_bits"]
    rows = []
    for i, scheme in enumerate(cfg.schemes):
        bits = scheme.overhead(cfg)
        rows += [[scheme.label, snr_db, *cells(i, j), *bits]
                 for j, snr_db in enumerate(cfg.snr_db_grid)]
    return _csv(cfg, title, columns, rows)


def run_rate_sweep(cfg, workers=1):
    """Mean achievable rate per (scheme, SNR) over independent channel draws."""
    per_trial = np.stack(_map_trials(_rate_trial, cfg, workers))   # trials x schemes x snrs

    def cells(i, j):
        values = per_trial[:, i, j]
        stderr = float(np.std(values, ddof=1) / np.sqrt(cfg.trials)) if cfg.trials > 1 else 0.0
        return float(np.mean(values)), stderr
    return _sweep_csv(cfg, "rate sweep", ["mean_rate", "stderr"], cells)


def run_ber_sweep(cfg, workers=1):
    """Uncoded QPSK BER per (scheme, SNR): bit errors over all trials, of 2 S T trials bits."""
    errors = sum(_map_trials(_ber_trial, cfg, workers))        # integer sums, order-independent
    sent = 2 * cfg.streams * cfg.symbols_per_trial * cfg.trials

    def cells(i, j):
        ber = int(errors[i, j]) / sent
        return ber, float(np.sqrt(ber * (1.0 - ber) / sent)), errors[i, j], sent
    return _sweep_csv(cfg, "ber sweep", ["ber", "stderr", "bit_errors", "bits_sent"], cells)


def run_beam_pattern(cfg):
    """Normalized beam-pattern profile of one codebook element, one column per gamma."""
    bp = cfg.beam_pattern
    codebook = AngleCodebook(bp.sector, bp.codebook_size)
    patterns = []
    for gamma in bp.gammas:
        spec = BasisSpec(codebook=codebook, tx=cfg.channel.tx, gamma=gamma)
        patterns.append(beam_pattern(spec, bp.center_index, bp.grid_size))
    columns = ["angle_rad"] + [f"g_gamma{g}" for g in bp.gammas]
    rows = [[patterns[0].angles[idx]] + [p.gain[idx] for p in patterns] for idx in range(bp.grid_size)]
    return _csv(cfg, "beam pattern", columns, rows)


def run_overhead_table(cfg):
    """Feedback-bit budget of every configured scheme."""
    columns = ["scheme", "angle_bits", "amplitude_bits", "total_bits"]
    rows = []
    for scheme in cfg.schemes:
        abits, cbits = scheme.overhead(cfg)
        rows.append([scheme.label, abits, cbits, abits + cbits])
    return _csv(cfg, "overhead table", columns, rows)
