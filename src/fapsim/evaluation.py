"""Link-level metrics: achievable rate, uncoded QPSK BER, and beam-pattern profiles."""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import _steering_matrix
from .errors import InvalidInputError
from .feedback import basis_matrix
from .precoding import Precoder

BEAM_PATTERN_GRID = 2048
BEAM_PATTERN_MIN_GRID = 64
# Grid points per block of array responses: beam_pattern holds M x this many at once.
BEAM_PATTERN_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class BeamPattern:
    angles: np.ndarray
    gain: np.ndarray               # normalized so the trapezoidal integral is 1


def check_channel(h, snr_linear):
    """A link's checked (H, SNR array): H finite, SNRs positive and finite, snr * ||H||^2 finite."""
    h = numerics._as_matrix(h, "h")
    snr = np.asarray(snr_linear, dtype=float)
    if snr.size == 0 or not np.all((snr > 0) & np.isfinite(snr)):
        raise InvalidInputError("snr_linear must be positive and finite")
    with np.errstate(over="ignore"):       # ||F|| = 1, so this bounds every snr * sigma^2 of H F
        bound = np.max(snr) * np.linalg.norm(h) ** 2
    if not bound < np.inf:
        raise InvalidInputError(f"snr * ||H||^2 must be finite, got {bound}")
    return h, snr


def _link_inputs(h, f, snr_linear):
    """A link metric's checked (H F, SNR array): `check_channel`, and a unit-norm F that fits H."""
    h, snr = check_channel(h, snr_linear)
    f = Precoder(numerics._as_matrix(f, "f")).matrix
    if h.shape[1] != f.shape[0]:
        raise InvalidInputError(f"shape mismatch: H is {h.shape}, F is {f.shape}")
    return h @ f, snr


def link_gains(hf):
    """Squared singular values of a product H F, or of each in a stack of them; unchecked."""
    return np.linalg.svd(hf, compute_uv=False) ** 2


def link_rates(gains, snr):
    """sum_i log2(1 + snr g_i) over the last axis of `link_gains`; SNRs broadcast against the
    rest."""
    return np.sum(np.log2(1.0 + snr[..., None] * gains), axis=-1)


def achievable_rate(h, f, snr_linear):
    """log2 det(I_N + snr * H F F^H H^H) for a unit-Frobenius-norm precoder F.

    Evaluated as sum_i log2(1 + snr * sigma_i^2) over the singular values of
    H F, so one SVD serves every SNR: `snr_linear` may be a scalar (returns a
    float) or an array of SNRs (returns an array of rates of the same shape).
    """
    hf, snr = _link_inputs(h, f, snr_linear)
    rate = link_rates(link_gains(hf), snr)
    return float(rate) if rate.ndim == 0 else rate


def draw_qpsk(rng, num_streams, num_rx, num_symbols):
    """Random inputs of one QPSK block: (symbols, noise).

    symbols is S x T, unit-energy Gray-mapped QPSK ((1 - 2 b0) + 1j (1 - 2 b1)) / sqrt 2 of
    uniform bits b0, b1; noise is N x T circularly-symmetric CN(0, 1). The draw order is fixed
    (bits, then noise), so one generator state gives the same block to every precoder.
    """
    for value, name in ((num_streams, "num_streams"), (num_rx, "num_rx"), (num_symbols, "num_symbols")):
        numerics._count(value, name)
    bits = rng.integers(0, 2, size=(2, num_streams, num_symbols))
    symbols = np.empty(bits.shape[1:], dtype=np.complex128)          # mapped in place
    symbols.real, symbols.imag = 1 - 2 * bits[0], 1 - 2 * bits[1]
    symbols /= np.sqrt(2.0)
    noise = np.empty((num_rx, num_symbols), dtype=np.complex128)   # (a + 1j b) / sqrt 2, in place
    noise.real, noise.imag = rng.standard_normal(noise.shape), rng.standard_normal(noise.shape)
    noise /= np.sqrt(2.0)
    return symbols, noise


class MmseLink:
    """The links y = sqrt(P) H F s + z of a stack of products H F (I x N x S, or one N x S),
    factored once for joint LMMSE detection at any SNR P.

    With H F = U diag(sigma) V^H, the estimator P F^H H^H (P H F F^H H^H + I)^{-1} y (unit
    noise variance) is V diag(sigma / (sigma^2 + 1/P)) U^H y: one SVD serves every SNR, and no
    rank of H F and no SNR makes it singular. It checks only that a block fits the links; its
    caller hands it a checked product (finite H, unit-norm F that fits H) and a positive P.
    """

    def __init__(self, hf):
        self.hf = hf.reshape(-1, *hf.shape[-2:])                                   # I x N x S
        u, self.sigma, self.vh = np.linalg.svd(self.hf, full_matrices=False)
        self.uh, self.v = u.conj().transpose(0, 2, 1), self.vh.conj().transpose(0, 2, 1)

    def bit_errors(self, snr_linear, symbols, noise):
        """Bit errors per precoder of `draw_qpsk`'s symbols sent at SNR P: each sign of the
        estimate, real and imaginary, against the sign of the symbol sent (negative for a 1 bit).
        As U^H H F = Sigma V^H, the estimate is V diag(w sigma sqrt(P)) V^H s + V diag(w) U^H z,
        w = sigma / (sigma^2 + 1/P). A precoder with an entry within `delta` of zero, a bound on
        its distance from the U^H y form (||z||_F >= ||z_t||), is counted in that form instead,
        unless each such entry is of a stream whose row of V diag(w) is exactly zero (a zero-power
        column of F): that stream's entries are exactly 0 in both forms."""
        i, n, s = self.hf.shape
        if symbols.shape[0] != s or noise.shape != (n, symbols.shape[1]):
            raise InvalidInputError(f"symbols {symbols.shape} and noise {noise.shape} do not fit "
                                    f"{s} streams and {n} receive antennas")
        p, symbols = float(snr_linear), np.ascontiguousarray(symbols)   # .view interleaves re, im
        w = self.sigma / (self.sigma ** 2 + 1.0 / p)
        vw = self.v * w[:, None]
        est = (((vw * (np.sqrt(p) * self.sigma)[:, None]) @ self.vh).reshape(-1, s) @ symbols
               + (vw @ self.uh).reshape(-1, n) @ noise).view(np.float64).reshape(i, -1)
        errors = np.count_nonzero((est < 0) != (symbols.view(np.float64) < 0).ravel(), axis=1)
        delta = (8 * (n + s + 8) * np.finfo(np.float64).eps * np.sqrt(s) * w.max(axis=1)
                 * (np.sqrt(p) * self.sigma[:, 0] * np.sqrt(s) + np.sqrt(np.vdot(noise, noise).real)))
        for k in np.flatnonzero(~(np.abs(est, out=est).min(axis=1, initial=np.inf) > delta)):
            live = vw[k].any(axis=1)                             # streams with a nonzero row
            if not est[k].reshape(s, -1)[live].min(initial=np.inf) > delta[k]:
                errors[k] = self.exact_bit_errors(k, p, symbols, noise)
        return errors

    def exact_bit_errors(self, k, p, symbols, noise):
        """Bit errors of precoder k at SNR p in the U^H y form, the reference arithmetic of
        `bit_errors`, which passes `symbols` C-ordered."""
        y = np.sqrt(p) * (self.hf[k] @ symbols) + noise
        est = (self.v[k] * (self.sigma[k] / (self.sigma[k] ** 2 + 1.0 / p))) @ (self.uh[k] @ y)
        return int(np.count_nonzero((est.view(np.float64) < 0) != (symbols.view(np.float64) < 0)))


def ber_qpsk_mmse(h, f, snr_linear, num_symbols, rng):
    """Uncoded QPSK over y = H F s + z with joint linear MMSE detection.

    Checks its inputs as `achievable_rate` does (the SNR a scalar), then draws one block
    from `rng` (`draw_qpsk`) and detects it (`MmseLink`): (bit_errors, bits_sent).
    """
    hf, snr = _link_inputs(h, f, snr_linear)
    if snr.ndim != 0:
        raise InvalidInputError("snr_linear must be a scalar")
    symbols, noise = draw_qpsk(rng, hf.shape[1], hf.shape[0], num_symbols)
    return int(MmseLink(hf).bit_errors(snr, symbols, noise)[0]), 2 * symbols.size


def beam_pattern(spec, center_index, grid_size=BEAM_PATTERN_GRID):
    """Normalized radiated power of one basis element across the codebook sector.

    g(phi) = |h_t^H(phi) psi_k|^2 scaled so that its trapezoidal integral
    over the angle grid equals one. The responses are built BEAM_PATTERN_BLOCK
    grid points at a time, so memory is bounded by M x block, not M x grid.
    A gain sums h_m conj(psi_m) without BLAS, so no block size or thread count moves it.
    """
    numerics._count(grid_size, "grid_size", BEAM_PATTERN_MIN_GRID)
    cb = spec.codebook
    numerics._count(center_index, "center_index", 0, cb.size - 1)
    conj_psi = basis_matrix(spec, np.array([cb.centers[center_index]]))[:, 0].conj()
    grid = np.linspace(*cb.sector, grid_size)
    blocks = (grid[i:i + BEAM_PATTERN_BLOCK] for i in range(0, grid_size, BEAM_PATTERN_BLOCK))
    gain = np.concatenate([np.abs(np.multiply(_steering_matrix(spec.tx, b).T, conj_psi, order="C")
                                  .sum(axis=1)) ** 2 for b in blocks])
    gain /= np.trapezoid(gain, grid)
    return BeamPattern(angles=grid, gain=gain)
