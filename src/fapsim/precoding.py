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


@dataclass(frozen=True)
class PowerAllocation:
    mode: str                      # "unitary" | "water_filling"
    total_power: float = 1.0       # linear SNR for water-filling (unit noise variance)

    def __post_init__(self):
        if self.mode not in ("unitary", "water_filling"):
            raise InvalidInputError(f"unknown allocation mode {self.mode!r}")
        if not (self.total_power > 0 and np.isfinite(self.total_power)):
            raise InvalidInputError("total_power must be positive and finite")


@dataclass(frozen=True, eq=False)
class Precoder:
    matrix: np.ndarray             # M x S, unit Frobenius norm

    def __post_init__(self):
        norm = np.linalg.norm(self.matrix)
        if not abs(norm - 1.0) <= PRECODER_NORM_TOL:           # also rejects a NaN norm
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
    if not (snr > 0 and np.isfinite(snr)):
        raise InvalidInputError("snr must be positive and finite")
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


def optimal_precoder(h, num_streams, alloc):
    """Top-S right singular vectors of H with the requested power split.

    Each singular vector's phase is fixed so that its largest-magnitude entry
    is real non-negative, making the output deterministic. Under water-filling,
    `water_fill` sets each stream's power; one below the water level gets a zero column.
    """
    u, s, v = numerics.svd(h)
    if num_streams < 1 or num_streams > min(h.shape):
        raise InvalidInputError(
            f"num_streams must be in [1, {min(h.shape)}] for a {h.shape} channel"
        )
    if s[0] <= 0:
        raise DegenerateChannelError("channel matrix is zero")

    # A unit-norm column's largest entry has modulus >= 1/sqrt(M), so the pivot is never zero.
    cols = v[:, :num_streams]
    pivot = cols[np.argmax(np.abs(cols), axis=0), np.arange(num_streams)]
    cols = cols * (np.conj(pivot) / np.abs(pivot))

    if alloc.mode == "unitary":
        alpha = np.full(num_streams, 1.0 / np.sqrt(num_streams))
    else:
        alpha = np.sqrt(water_fill(s[:num_streams], alloc.total_power))
    return Precoder(cols * alpha[None, :])
