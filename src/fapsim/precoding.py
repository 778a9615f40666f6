"""Optimal unconstrained precoding from full CSI.

The precoder stacks the top-S right singular vectors of H, scaled per stream
either equally (unitary mode) or by water-filling. The matrix is normalized
to unit Frobenius norm; transmit power enters through the signal model, not
through the precoder.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import DegenerateChannelError, InvalidInputError

PRECODER_NORM_TOL = 1e-9
# A column's phase pivot is its lowest-index entry within this relative distance of its largest
# modulus, so entries that tie up to rounding (a single-path channel) always give the same one.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class PowerAllocation:
    MODES = ("unitary", "water_filling")    # a class attribute, not a field
    mode: str                      # one of MODES
    total_power: float = 1.0       # linear SNR for water-filling (unit noise variance)

    def __post_init__(self):
        if not (isinstance(self.mode, str) and self.mode in self.MODES):
            raise InvalidInputError(f"unknown allocation mode {self.mode!r}")
        object.__setattr__(self, "total_power", numerics._positive(self.total_power, "total_power"))

    def split(self, sigma, cols):
        """The Precoder of `factor`'s (sigma, cols): equal stream powers, or `water_fill`'s, which
        gives a stream below the water level a zero column."""
        alpha = (np.full(len(sigma), 1.0 / np.sqrt(len(sigma))) if self.mode == "unitary"
                 else np.sqrt(water_fill(sigma, self.total_power)))
        return Precoder(cols * alpha[None, :])


@dataclass(frozen=True, eq=False)
class Precoder:
    matrix: np.ndarray             # M x S complex, unit Frobenius norm

    def __post_init__(self):
        object.__setattr__(self, "matrix", numerics._as_matrix(self.matrix, "precoder", finite=False))
        norm = np.linalg.norm(self.matrix)
        if not abs(norm - 1.0) <= PRECODER_NORM_TOL:           # a non-finite entry: a NaN or inf norm
            raise InvalidInputError(f"precoder must have unit Frobenius norm, got {norm}")

    @property
    def num_streams(self):
        return self.matrix.shape[1]


def water_fill(sigma, snr):
    """Power split p_s >= 0, sum(p) = 1, maximizing sum_s log2(1 + p_s * sigma_s^2 * snr).

    Classic water level with iterative exclusion of weak channels; zero-gain
    channels receive zero power.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise InvalidInputError("sigma must be a non-empty 1-D vector")
    if np.any(sigma < 0) or not np.all(np.isfinite(sigma)):
        raise InvalidInputError("sigma must be finite and non-negative")
    numerics._positive(snr, "snr")
    if not np.any(sigma > 0):
        raise DegenerateChannelError("all singular values are zero")

    # Each channel's noise floor times snr: infinite at zero gain and where 1 / sigma^2
    # overflows. Gaps above the strongest channel's floor, in units of the power budget: an
    # active gap is at most 1, so none cancels at low SNR, and an infinite one is never active.
    # When even the strongest floor overflows (every sigma below ~1e-154), the floors are taken
    # in units of the strongest one and snr is scaled to match (at least the smallest float).
    with np.errstate(divide="ignore", over="ignore"):
        inv, top = 1.0 / sigma ** 2, np.max(sigma)
        if np.isinf(1.0 / top ** 2):
            inv, snr = (top / sigma) ** 2, max(snr * top * top, np.finfo(float).smallest_subnormal)
        order = np.argsort(inv)                  # strongest channels first
        gap = (inv - inv[order[0]]) / snr
    power = np.zeros_like(sigma)
    for count in range(int(np.sum(np.isfinite(gap))), 0, -1):
        active = order[:count]
        level = (1.0 + np.sum(gap[active])) / count
        if level >= gap[active[-1]]:             # weakest active stays above water
            power[active] = level - gap[active]
            break
    return power


def factor(h, num_streams):
    """H's top-S singular values, and its top-S right singular vectors, each phase-fixed so that
    its largest-magnitude entry (the lowest index among those within PIVOT_RTOL of the largest)
    is real non-negative, making the output deterministic. Only the power split depends on SNR."""
    h = numerics._as_matrix(h, "h")
    num_streams = numerics._count(num_streams, "num_streams", 1, min(h.shape))
    u, s, v = numerics.svd(h)
    if s[0] <= 0:
        raise DegenerateChannelError("channel matrix is zero")

    # A unit-norm column's largest entry has modulus >= 1/sqrt(M), so the pivot is never zero.
    cols = v[:, :num_streams]
    mags = np.abs(cols)
    first = np.argmax(mags >= (1.0 - PIVOT_RTOL) * np.max(mags, axis=0), axis=0)
    pivot = cols[first, np.arange(num_streams)]
    return s[:num_streams], cols * (np.conj(pivot) / np.abs(pivot))


def optimal_precoder(h, num_streams, alloc):
    """Top-S right singular vectors of H (`factor`) with the requested power split."""
    return alloc.split(*factor(h, num_streams))
