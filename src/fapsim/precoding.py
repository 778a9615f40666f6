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

    inv = np.full(sigma.shape, np.inf)
    pos = sigma > 0
    inv[pos] = 1.0 / (snr * sigma[pos] ** 2)

    order = np.argsort(inv)                      # strongest channels first
    power = np.zeros_like(sigma)
    for count in range(int(np.sum(pos)), 0, -1):
        active = order[:count]
        level = (1.0 + np.sum(inv[active])) / count
        if level >= inv[active[-1]]:             # weakest active stays above water
            power[active] = level - inv[active]
            break
    return power


def optimal_precoder(h, num_streams, alloc):
    """Top-S right singular vectors of H with the requested power split.

    Each singular vector's phase is fixed so that its largest-magnitude entry
    is real non-negative, making the output deterministic.
    """
    u, s, v = numerics.svd(h)
    if num_streams < 1 or num_streams > min(h.shape):
        raise InvalidInputError(
            f"num_streams must be in [1, {min(h.shape)}] for a {h.shape} channel"
        )
    if s[0] <= 0:
        raise DegenerateChannelError("channel matrix is zero")

    cols = v[:, :num_streams].copy()
    for j in range(num_streams):
        i = int(np.argmax(np.abs(cols[:, j])))
        pivot = cols[i, j]
        if np.abs(pivot) > 0:
            cols[:, j] *= np.conj(pivot) / np.abs(pivot)

    if alloc.mode == "unitary":
        alpha = np.full(num_streams, 1.0 / np.sqrt(num_streams))
    else:
        if s[num_streams - 1] <= 1e-12 * s[0]:
            raise InvalidInputError(
                "water_filling requires num_streams nonzero singular values"
            )
        alpha = np.sqrt(water_fill(s[:num_streams], alloc.total_power))
    return Precoder(cols * alpha[None, :])
