"""Monte-Carlo experiment runner.

The engine's unit is the (trial, precoder group) target. Targets run in blocks
whose size depends on the config alone, and a block's targets share one
lockstep OMP run per basis spec, one call per scheme and one stacked rate SVD.
Each trial owns an independent random sub-stream derived from (seed, trial), so
a trial whose groups straddle two blocks draws the same channel in each. Workers
map whole blocks, and per-target values are reduced serially in target order, so
results are identical for any worker count. All sweeps emit CSV text with the
resolved configuration embedded in '#' comment lines.
"""

import ctypes
import dataclasses
import glob
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import multilevel_csi_feedback
from .channel import ChannelConfig, _check_sector, sample_channel, substream
from .errors import InvalidInputError
from .evaluation import (BEAM_PATTERN_MIN_GRID, MmseLink, beam_pattern, check_channel, draw_qpsk,
                         link_gains, link_rates)
from .feedback import (AngleCodebook, BasisSpec, ComplexCodebook, OmpPath, deserialize_report,
                       overhead_bits, pack_report, proposed_bits, reconstruct_precoder,
                       serialize_report)
from .numerics import _count, _log2_exact, _reals
from .precoding import PowerAllocation, factor


# A block holds the (trial, precoder group) targets of BLOCK_TRIALS trials at the reference
# shapes; `_block_targets` takes fewer when their state would exceed BLOCK_BYTES.
BLOCK_TRIALS = 16
BLOCK_BYTES = 32 * 2 ** 20


class _Scheme:
    """A scheme class is its whole definition: a frozen dataclass whose fields are the keys of
    its config node, keyed on its `type` in SCHEMES. It defines `overhead(cfg)`, the nominal
    (angle_bits, amplitude_bits), and `precoders(cfg, stage)`, its unit-norm P x M x S stack for
    a block's P targets (`_Stage`). It may define `validate(cfg, where)`, naming a failing field
    `where.<field>` and storing K or Q as an int, and `omp_basis(cfg)`, its OMP (BasisSpec, K).
    """

    _label_keys = {"k": "k", "q": "q", "gamma": "g", "angle_codebook_size": "cb"}   # short names

    def validate(self, cfg, where):
        pass

    def omp_basis(self, cfg):
        return None

    @property
    def label(self):
        """Its type, each field as short name and value, and `_m{M}p{P}` for quantized amplitudes."""
        parts = [next(kind for kind, cls in SCHEMES.items() if cls is type(self))]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, ComplexCodebook):
                parts.append(f"{self._label_keys[f.name]}{value}")
            elif value.mode != "ideal":
                parts.append(f"m{value.magnitude_levels}p{value.phase_levels}")
        return "_".join(parts)


@dataclass(frozen=True)
class OptimalScheme(_Scheme):
    """Upper bound: optimal precoder from exact CSI, no feedback constraint."""

    def overhead(self, cfg):
        return 0, 0

    def precoders(self, cfg, stage):
        return [f.matrix for f in stage.f_opt]


class _ReportScheme(_Scheme):
    """`proposed` and `sparse`: a K-angle report read off their spec's `OmpPath`, then rebuilt."""

    def _spec(self, cfg):
        return BasisSpec(codebook=AngleCodebook(cfg.channel.tx_sector, self.angle_codebook_size),
                         tx=cfg.channel.tx, gamma=self.gamma)

    def overhead(self, cfg):
        return proposed_bits(self.k, cfg.streams, self._spec(cfg).codebook, self.coeff_codebook)

    def omp_basis(self, cfg):
        return self._spec(cfg), self.k

    def precoders(self, cfg, stage):
        spec, cc = self._spec(cfg), self.coeff_codebook
        reports = [pack_report(*stage.paths[spec].at(self.k, p)[:2], spec, cc)
                   for p in range(len(stage.targets))]
        if cc.mode != "ideal":             # the transmitter rebuilds F_hat from the wire bytes alone
            reports = [deserialize_report(serialize_report(r, spec, cc), spec, cc, cfg.streams)
                       for r in reports]
        return [reconstruct_precoder(r, spec).matrix for r in reports]


@dataclass(frozen=True)
class ProposedScheme(_ReportScheme):
    """Greedy basis selection: K fed-back angles and a K x S combining matrix."""

    k: int
    gamma: int = 1
    angle_codebook_size: int = 256
    coeff_codebook: ComplexCodebook = field(default_factory=ComplexCodebook.ideal)

    def validate(self, cfg, where):
        _log2_exact(self.angle_codebook_size, f"{where}.angle_codebook_size")
        object.__setattr__(self, "k", _count(self.k, f"{where}.k", 1, self.angle_codebook_size))
        _count(self.gamma, f"{where}.gamma")


@dataclass(frozen=True)
class SparseScheme(_ReportScheme):
    """Q RF-chain benchmark: the proposed report at K = Q, gamma = 1, ideal amplitudes."""

    q: int
    angle_codebook_size: int = 256
    k = property(lambda self: self.q)
    gamma, coeff_codebook = 1, ComplexCodebook.ideal()      # not fields: the config has neither

    def validate(self, cfg, where):
        _log2_exact(self.angle_codebook_size, f"{where}.angle_codebook_size")
        object.__setattr__(self, "q", _count(self.q, f"{where}.q", cfg.streams, self.angle_codebook_size))


@dataclass(frozen=True)
class MultilevelScheme(_Scheme):
    """Quantized-CSI benchmark: the K strongest paths fed back, F_opt of the rebuilt channel."""

    k: int
    angle_codebook_size: int = 256
    coeff_codebook: ComplexCodebook = field(default_factory=ComplexCodebook.ideal)

    def validate(self, cfg, where):
        _log2_exact(self.angle_codebook_size, f"{where}.angle_codebook_size")
        object.__setattr__(self, "k", _count(self.k, f"{where}.k", 1, cfg.channel.num_paths))

    def overhead(self, cfg):
        return overhead_bits("multilevel_csi", k=self.k, angle_codebook_size=self.angle_codebook_size,
                             coeff_codebook_size=2 ** self.coeff_codebook.bits_per_value)

    def precoders(self, cfg, stage):
        return [f.matrix for f in stage.split(lambda ch: multilevel_csi_feedback(
            ch, cfg.channel, self.k, self.angle_codebook_size, self.coeff_codebook))]


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
        object.__setattr__(self, "sector", _check_sector(self.sector, "beam_pattern.sector"))
        _log2_exact(self.codebook_size, "beam_pattern.codebook_size")
        _count(self.center_index, "beam_pattern.center_index", 0, self.codebook_size - 1)
        _count(self.grid_size, "beam_pattern.grid_size", BEAM_PATTERN_MIN_GRID)
        gammas = tuple(self.gammas) if np.iterable(self.gammas) else ()
        object.__setattr__(self, "gammas", tuple(_count(gamma, f"beam_pattern.gammas[{i}]")
                                                 for i, gamma in enumerate(gammas)))
        if not 0 < len(set(self.gammas)) == len(self.gammas):
            raise InvalidInputError("beam_pattern.gammas: entries must be unique, with at least one")


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
        object.__setattr__(self, "streams", _count(self.streams, "streams", 1, min(
            self.channel.tx.num_elements, self.channel.rx.num_elements)))
        object.__setattr__(self, "snr_db_grid", _reals(self.snr_db_grid, "snr_db_grid"))
        for i, snr_db in enumerate(self.snr_db_grid):
            if not 0.0 < _db_to_linear(snr_db) < math.inf:
                raise InvalidInputError(
                    f"snr_db[{i}]: must be finite with a positive, finite linear value, got {snr_db}")
        object.__setattr__(self, "trials", _count(self.trials, "trials"))
        object.__setattr__(self, "symbols_per_trial", _count(self.symbols_per_trial, "symbols_per_trial"))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        if self.allocation not in PowerAllocation.MODES:
            raise InvalidInputError("allocation: must be " + " or ".join(map(repr, PowerAllocation.MODES)))
        object.__setattr__(self, "schemes", tuple(self.schemes) if np.iterable(self.schemes) else ())
        if len(self.schemes) == 0 or not all(isinstance(s, _Scheme) for s in self.schemes):
            raise InvalidInputError("schemes: must be a non-empty sequence of scheme objects")
        for i, scheme in enumerate(self.schemes):
            scheme.validate(self, f"schemes[{i}]")
        labels = [s.label for s in self.schemes]
        if len(set(labels)) != len(labels):
            raise InvalidInputError("schemes: labels must be unique")


def _db_to_linear(snr_db):
    try:
        return 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        return math.inf


def _snr_linear(cfg):
    return np.array([_db_to_linear(snr_db) for snr_db in cfg.snr_db_grid])


def _groups(cfg):
    """(SNR indices, their linear SNRs, power allocation) per precoder group. Unitary
    precoders do not depend on the SNR, so one group holds every point; water-filling gives
    one group per point."""
    snrs = _snr_linear(cfg)
    unitary = cfg.allocation == "unitary"
    return [(cols, snrs[cols], PowerAllocation(cfg.allocation, total_power=snrs[cols[0]]))
            for cols in ([list(range(len(snrs)))] if unitary else [[j] for j in range(len(snrs))])]


def _omp_bases(cfg):
    """Every BasisSpec the schemes read off OMP, with the largest K read off it."""
    bases = {}
    for spec, k in filter(None, (s.omp_basis(cfg) for s in cfg.schemes)):
        bases[spec] = max(k, bases.get(spec, 0))
    return bases


def _target_bytes(cfg):
    """Bytes of one (trial, precoder group) target's state: every scheme's precoder, and the
    OMP state under each basis spec (`OmpPath.target_bytes`)."""
    s = cfg.streams
    return (16 * len(cfg.schemes) * cfg.channel.tx.num_elements * s
            + sum(OmpPath.target_bytes(spec, k, s) for spec, k in _omp_bases(cfg).items()))


def _block_targets(cfg):
    """(Trial, precoder group) targets per block: BLOCK_TRIALS trials' worth, fewer (at least
    1) when their state would exceed BLOCK_BYTES. Target i is trial i // G in group i % G, for
    G = len(_groups(cfg)). It depends on the config's shapes alone, never on the worker count."""
    return max(1, min(BLOCK_TRIALS * len(_groups(cfg)), BLOCK_BYTES // _target_bytes(cfg)))


class _Stage:
    """A block's one record, built from `(cfg, block)`: `targets`, each target's (trial, SNR
    indices, linear SNRs, power allocation), and `channels`, each distinct trial's channel, drawn
    once from its own sub-stream and checked once. `f_opt`, `split` of the checked channels, and
    `paths`, one lockstep `OmpPath` per BasisSpec, serve each scheme's `precoders`, run once into
    `precoders`, the P x I x M x S stack; both are released then, before any metric runs."""

    def __init__(self, cfg, block):
        groups, snr, self._streams = _groups(cfg), _snr_linear(cfg), cfg.streams
        self.targets = [(i // len(groups), *groups[i % len(groups)]) for i in block]
        self.channels = {t: sample_channel(cfg.channel, substream(cfg.seed, t))
                         for t in dict.fromkeys(t for t, *_ in self.targets)}
        self.f_opt = self.split(lambda ch: check_channel(ch.matrix, snr)[0])
        self.paths = {spec: OmpPath(self.f_opt, spec, k) for spec, k in _omp_bases(cfg).items()}
        self.precoders = np.empty((len(block), len(cfg.schemes), *self.f_opt[0].matrix.shape), complex)
        for i, s in enumerate(cfg.schemes):
            self.precoders[:, i] = s.precoders(cfg, self)
        del self.f_opt, self.paths

    def split(self, estimate):
        """Each target's F_opt of `estimate(its trial's channel)`: each trial's matrix factored once."""
        factors = {t: factor(estimate(ch), self._streams) for t, ch in self.channels.items()}
        return [alloc.split(*factors[t]) for t, _, _, alloc in self.targets]


def _rate_block(cfg, block):
    """Rates per target of `block`, schemes x its SNR points: one stacked SVD of H F."""
    stage = _Stage(cfg, block)
    hf = np.stack([stage.channels[t].matrix @ f for (t, *_), f in zip(stage.targets, stage.precoders)])
    snrs = np.array([snrs for _, _, snrs, _ in stage.targets])[:, None]     # P x 1 x C
    return list(link_rates(link_gains(hf)[:, :, None], snrs))               # P x I x C


def _ber_block(cfg, block):
    """Bit errors per target of `block`, schemes x its SNR points: one stacked link per target,
    and one symbol/noise block per (trial, SNR) shared by every scheme, pairing the comparison."""
    stage, out = _Stage(cfg, block), []
    for (t, cols, snrs, _), precoders in zip(stage.targets, stage.precoders):
        link = MmseLink(stage.channels[t].matrix, precoders)
        out.append(np.column_stack([
            link.bit_errors(snr, *draw_qpsk(substream(cfg.seed, t, j), cfg.streams,
                                            cfg.channel.rx.num_elements, cfg.symbols_per_trial))
            for j, snr in zip(cols, snrs)]))
    return out


def _worker_count(workers, blocks):
    """Pool size: never more processes than blocks of targets or than the machine's CPUs."""
    return max(1, min(workers, blocks, os.cpu_count() or 1))


def _one_blas_thread():
    """Pin the OpenBLAS that numpy's wheel bundles to one thread in this process, so that
    workers and BLAS threads do not compete for the same cores, and return a callable that
    restores its count. A no-op where that library or its thread symbols are absent."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, set_ = (getattr(lib, f"scipy_openblas_{op}_num_threads64_", None) for op in ("get", "set"))
        if get is not None and set_ is not None:
            before = get()
            set_(1)
            return lambda: set_(before)
    return lambda: None


def _map_targets(fn, cfg, workers):
    """`fn(cfg, block)` over consecutive ranges of `_block_targets(cfg)` target indices, each
    returning one result per target; the per-target results in target order."""
    size, count = _block_targets(cfg), cfg.trials * len(_groups(cfg))
    blocks = [range(lo, min(lo + size, count)) for lo in range(0, count, size)]
    workers = _worker_count(_count(workers, "workers"), len(blocks))
    if workers <= 1:
        restore = _one_blas_thread()
        try:
            results = [fn(cfg, block) for block in blocks]
        finally:
            restore()
    else:
        from concurrent.futures import ProcessPoolExecutor     # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            results = list(pool.map(fn, [cfg] * len(blocks), blocks))
    return [r for block in results for r in block]


def _fmt(value):
    return str(np.asarray(value).tolist())      # the Python str, int or float numpy reads it as


def _csv(cfg, title, columns, rows):
    blob = dataclasses.asdict(cfg)
    for scheme, node in zip(cfg.schemes, blob["schemes"]):
        node["label"] = scheme.label
    config = json.dumps(blob, sort_keys=True, default=lambda obj: obj.tolist())   # numpy values too
    return "\n".join([f"# fapsim {title}", f"# config: {config}", f"# seed: {cfg.seed}",
                      ",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]) + "\n"


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
    # A trial's groups hold its SNR points in order, so its targets side by side are its row.
    per_trial = np.hstack(_map_targets(_rate_block, cfg, workers)).reshape(
        len(cfg.schemes), cfg.trials, -1)                           # schemes x trials x snrs

    def cells(i, j):
        values = per_trial[i, :, j]
        stderr = np.std(values, ddof=1) / np.sqrt(cfg.trials) if cfg.trials > 1 else 0.0
        return np.mean(values), stderr
    return _sweep_csv(cfg, "rate sweep", ["mean_rate", "stderr"], cells)


def run_ber_sweep(cfg, workers=1):
    """Uncoded QPSK BER per (scheme, SNR): bit errors over all trials, of 2 S T trials bits."""
    errors = np.hstack(_map_targets(_ber_block, cfg, workers)).reshape(
        len(cfg.schemes), cfg.trials, -1).sum(axis=1)             # integer sums, order-independent
    sent = 2 * cfg.streams * cfg.symbols_per_trial * cfg.trials

    def cells(i, j):
        ber = int(errors[i, j]) / sent
        return ber, np.sqrt(ber * (1.0 - ber) / sent), errors[i, j], sent
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
