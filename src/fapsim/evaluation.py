"""Link-level metrics: achievable rate, uncoded QPSK BER, and beam-pattern profiles."""

from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import _steering_matrix
from .errors import InvalidInputError
from .feedback import basis_matrix

BEAM_PATTERN_GRID = 2048
BEAM_PATTERN_MIN_GRID = 64
# Grid points per block of array responses: beam_pattern holds M x this many at once.
BEAM_PATTERN_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class BeamPattern:
    angles: np.ndarray
    gain: np.ndarray               # normalized so the trapezoidal integral is 1


def achievable_rate(h, f, snr_linear):
    """log2 det(I_N + snr * H F F^H H^H) for a unit-Frobenius-norm precoder F.

    Evaluated as sum_i log2(1 + snr * sigma_i^2) over the singular values of
    H F, so one SVD serves every SNR: `snr_linear` may be a scalar (returns a
    float) or an array of SNRs (returns an array of rates of the same shape).
    """
    h = numerics._as_matrix(h, "h")
    f = numerics._as_matrix(f, "f")
    if h.shape[1] != f.shape[0]:
        raise InvalidInputError(f"shape mismatch: H is {h.shape}, F is {f.shape}")
    if abs(np.linalg.norm(f) - 1.0) > 1e-6:
        raise InvalidInputError("precoder must have unit Frobenius norm")
    snr = np.asarray(snr_linear, dtype=float)
    if snr.size == 0 or not np.all((snr > 0) & np.isfinite(snr)):
        raise InvalidInputError("snr_linear must be positive and finite")
    gains = np.linalg.svd(h @ f, compute_uv=False) ** 2
    rate = np.sum(np.log2(1.0 + snr[..., None] * gains), axis=-1)
    return float(rate) if rate.ndim == 0 else rate


def draw_qpsk(rng, num_streams, num_rx, num_symbols):
    """Random inputs of one QPSK block: (bits, noise).

    bits is 2 x S x T (in-phase, quadrature) in {0, 1}; noise is N x T
    circularly-symmetric CN(0, 1). The draw order is fixed, so one generator
    state gives the same block to every precoder detected on it.
    """
    if num_symbols < 1:
        raise InvalidInputError("num_symbols must be >= 1")
    bits = rng.integers(0, 2, size=(2, num_streams, num_symbols))
    noise = (rng.standard_normal((num_rx, num_symbols))
             + 1j * rng.standard_normal((num_rx, num_symbols))) / np.sqrt(2.0)
    return bits, noise


def detect_qpsk_mmse(h, f, snr_linear, bits, noise):
    """Send `bits` over y = H F s + z with noise `noise`; joint LMMSE detection.

    Gray-mapped QPSK symbols with E[s s^H] = P * I (P = snr, unit noise
    variance), estimator s_hat = P F^H H^H (P H F F^H H^H + I)^{-1} y, and
    per-quadrature sign slicing. Returns (bit_errors, bits_sent).
    """
    h = np.asarray(h, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    if h.shape[1] != f.shape[0]:
        raise InvalidInputError(f"shape mismatch: H is {h.shape}, F is {f.shape}")
    n = h.shape[0]
    s = f.shape[1]
    if bits.shape[:2] != (2, s) or noise.shape != (n, bits.shape[2]):
        raise InvalidInputError(f"bits {bits.shape} and noise {noise.shape} do not fit "
                                f"{s} streams and {n} receive antennas")
    p = float(snr_linear)
    symbols = ((1.0 - 2.0 * bits[0]) + 1j * (1.0 - 2.0 * bits[1])) / np.sqrt(2.0)

    hf = h @ f
    y = np.sqrt(p) * (hf @ symbols) + noise
    cov = p * (hf @ hf.conj().T) + np.eye(n)
    detector = p * np.linalg.solve(cov, hf).conj().T      # S x N, Hermitian cov
    est = detector @ y

    errors = int(np.count_nonzero((est.real < 0) != bits[0]))
    errors += int(np.count_nonzero((est.imag < 0) != bits[1]))
    return errors, bits.size


def ber_qpsk_mmse(h, f, snr_linear, num_symbols, rng):
    """Uncoded QPSK over y = H F s + z with joint linear MMSE detection.

    Draws one block from `rng` (`draw_qpsk`) and detects it
    (`detect_qpsk_mmse`). Returns (bit_errors, bits_sent).
    """
    bits, noise = draw_qpsk(rng, np.shape(f)[1], np.shape(h)[0], num_symbols)
    return detect_qpsk_mmse(h, f, snr_linear, bits, noise)


def beam_pattern(spec, center_index, grid_size=BEAM_PATTERN_GRID):
    """Normalized radiated power of one basis element across the codebook sector.

    g(phi) = |h_t^H(phi) psi_k|^2 scaled so that its trapezoidal integral
    over the angle grid equals one. The responses are built BEAM_PATTERN_BLOCK
    grid points at a time, so memory is bounded by M x block, not M x grid.
    A gain sums h_m conj(psi_m) without BLAS, so no block size or thread count moves it.
    """
    if grid_size < BEAM_PATTERN_MIN_GRID:
        raise InvalidInputError(f"grid_size must be >= {BEAM_PATTERN_MIN_GRID}")
    cb = spec.codebook
    if not 0 <= center_index < cb.size:
        raise InvalidInputError(f"center_index must be in [0, {cb.size}), got {center_index}")
    conj_psi = basis_matrix(spec, np.array([cb.centers[center_index]]))[:, 0].conj()
    lo, hi = cb.sector
    grid = np.linspace(lo, hi, grid_size)
    blocks = (grid[i:i + BEAM_PATTERN_BLOCK] for i in range(0, grid_size, BEAM_PATTERN_BLOCK))
    gain = np.concatenate([np.abs(np.multiply(_steering_matrix(spec.tx, b).T, conj_psi, order="C")
                                  .sum(axis=1)) ** 2 for b in blocks])
    gain /= np.trapezoid(gain, grid)
    return BeamPattern(angles=grid, gain=gain)
