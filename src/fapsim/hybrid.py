"""Exact hybrid realization of arbitrary precoders with two phase shifters per coefficient.

Any F splits as F = (Rbar + Rtil) @ B where B is diagonal real non-negative
and Rbar, Rtil carry unit-modulus entries only: each entry of F is written as
2*B_ss*cos(theta)*exp(j*phase), i.e. the sum of two phasors of equal length.
Equivalently F = R T B with R = [Rbar, Rtil] and T = [I_S, I_S]^T, which maps
onto S RF chains driving 2*M*S phase shifters.
"""

from dataclasses import dataclass

import numpy as np

from . import numerics


@dataclass(frozen=True, eq=False)
class HybridDecomposition:
    baseband: np.ndarray          # S x S diagonal, real non-negative
    rf_bar: np.ndarray            # M x S, unit-modulus entries
    rf_tilde: np.ndarray          # M x S, unit-modulus entries


def decompose(f):
    """Split F into baseband gains and two unit-modulus phase-shifter banks.

    B_ss = max_m |F_ms| / 2 and the two phase banks sit at
    angle(F_ms) +/- arccos(|F_ms| / (2 B_ss)). Zero columns get B_ss = 0 with
    all-ones phases; zero entries inside a nonzero column use phase 0, where
    arccos(0) makes the pair antipodal so it sums to zero.
    """
    f = numerics._as_matrix(f, "f")

    mags = np.abs(f)
    b = 0.5 * mags.max(axis=0)
    nonzero = b > 0
    # |F_ms| / (2 B_ss) <= 1 by construction; zero columns fall back to ratio 1
    # so their arccos term vanishes and the phases are exactly 0.
    ratio = np.ones_like(mags)
    np.divide(mags, 2.0 * b[None, :], out=ratio, where=nonzero[None, :])
    theta = np.arccos(ratio)
    phase = np.angle(f)
    rbar = np.exp(1j * (phase + theta))
    rtil = np.exp(1j * (phase - theta))
    return HybridDecomposition(baseband=np.diag(b), rf_bar=rbar, rf_tilde=rtil)


def reconstruct(d):
    """Recombine a decomposition: (Rbar + Rtil) @ B."""
    return (d.rf_bar + d.rf_tilde) @ d.baseband

