"""Feedback-aware precoder approximation and feedback-bit accounting.

The receiver approximates the optimal precoder as F_hat = Psi(phi) @ G where
Psi's columns are (multi-beam) transmit array responses at angles drawn from
a shared discrete codebook. Orthogonal matching pursuit picks the K best
angles, a least-squares solve gives G, and the feedback message carries only
the K angle indices plus the (optionally quantized) K x S combining matrix.
OMP is greedy, so one run (`OmpPath`), extended as far as it is asked, yields
the result of every K as a prefix; `omp_approximate` reads it off at one K.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from . import numerics
from .channel import ArrayGeometry, _check_sector, _steering_matrix
from .errors import DomainError, InvalidInputError
from .precoding import Precoder

# Residuals at or below this norm are treated as exact recoveries; the
# greedy argmax is meaningless on a numerically zero residual.
_ZERO_RESIDUAL = 1e-12


def _log2_exact(n, name):
    if n < 1 or (n & (n - 1)) != 0:
        raise InvalidInputError(f"{name} must be a power of two, got {n}")
    return n.bit_length() - 1


@dataclass(frozen=True)
class AngleCodebook:
    """Uniform angle grid over a sector; entry i is the middle of sub-sector i."""

    sector: tuple
    size: int

    def __post_init__(self):
        # A float tuple, so equal codebooks are equal and hashable (the dictionary cache key).
        object.__setattr__(self, "sector", _check_sector(self.sector, "sector"))
        _log2_exact(self.size, "codebook size")

    @property
    def resolution(self):
        lo, hi = self.sector
        return (hi - lo) / self.size

    @property
    def centers(self):
        lo, _ = self.sector
        return lo + (np.arange(self.size) + 0.5) * self.resolution

    @property
    def index_bits(self):
        return _log2_exact(self.size, "codebook size")


@dataclass(frozen=True)
class BasisSpec:
    """Shared transmitter/receiver agreement: codebook, array geometry, beams per element."""

    codebook: AngleCodebook
    tx: ArrayGeometry
    gamma: int = 1

    def __post_init__(self):
        if self.gamma < 1:
            raise InvalidInputError("gamma must be >= 1")


@dataclass(frozen=True)
class ComplexCodebook:
    """Quantizer for fed-back complex values: ideal passthrough or uniform polar grid."""

    mode: str                      # "ideal" | "uniform_polar"
    magnitude_levels: int = 0
    phase_levels: int = 0

    def __post_init__(self):
        if self.mode not in ("ideal", "uniform_polar"):
            raise InvalidInputError(f"unknown complex codebook mode {self.mode!r}")
        if self.mode == "uniform_polar":
            _log2_exact(self.magnitude_levels, "magnitude_levels")
            _log2_exact(self.phase_levels, "phase_levels")

    @classmethod
    def ideal(cls):
        return cls(mode="ideal")

    @classmethod
    def uniform_polar(cls, magnitude_levels, phase_levels):
        return cls(mode="uniform_polar", magnitude_levels=magnitude_levels, phase_levels=phase_levels)

    @property
    def bits_per_value(self):
        # Ideal amplitude feedback is excluded from the bit accounting.
        if self.mode == "ideal":
            return 0
        return _log2_exact(self.magnitude_levels * self.phase_levels, "complex codebook size")

    def quantize(self, values):
        """(grid values, grid magnitude range = largest |value|); ideal gives (values, None)."""
        if self.mode == "ideal":
            return values, None
        scale = float(np.max(np.abs(values)))
        return self.decode(self.encode(values, scale), scale), scale

    def encode(self, values, scale):
        """Polar-grid word per value: magnitude index in the high bits, phase index low."""
        dm, dp = scale / self.magnitude_levels, 2.0 * np.pi / self.phase_levels
        mi = np.clip(np.floor(np.abs(values) / dm).astype(int), 0, self.magnitude_levels - 1)
        pi_ = np.clip(np.floor((np.angle(values) + np.pi) / dp).astype(int), 0, self.phase_levels - 1)
        return mi * self.phase_levels + pi_

    def decode(self, words, scale):
        """Grid value (cell center) of each `encode` word."""
        dm, dp = scale / self.magnitude_levels, 2.0 * np.pi / self.phase_levels
        mi, pi_ = np.divmod(words, self.phase_levels)
        return (mi + 0.5) * dm * np.exp(1j * (-np.pi + (pi_ + 0.5) * dp))


@dataclass(frozen=True, eq=False)
class FeedbackReport:
    angle_indices: tuple           # K indices into the shared angle codebook
    combining: np.ndarray          # K x S, already quantized if applicable
    gamma: int
    bits_angles: int
    bits_amplitudes: int
    magnitude_scale: float = None  # polar-quantizer range, sent unquantized

    @property
    def k(self):
        return len(self.angle_indices)


def quantize_angles(cb, angles):
    """Index of the nearest codebook center per angle; out-of-sector angles are clamped first.

    Equidistant ties resolve toward the lower index.
    """
    angles = np.asarray(angles, dtype=float)
    if not np.all(np.isfinite(angles)):
        raise InvalidInputError("angle must be finite")
    clamped = np.clip(angles, cb.sector[0], cb.sector[1])
    return np.argmin(np.abs(clamped[..., None] - cb.centers), axis=-1)


def basis_matrix(spec, angles):
    """Basis columns: superpositions of gamma beams spread inside each sub-sector.

    Column k is (1/sqrt(gamma)) * sum_{g=1..gamma} h_t(phi_k - dphi/2 + g*dphi/(gamma+1));
    gamma=1 reduces to the plain steering vector at phi_k.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if angles.size == 0:
        raise InvalidInputError("angles must be non-empty")
    dphi = spec.codebook.resolution
    gamma = spec.gamma
    offsets = -dphi / 2.0 + np.arange(1, gamma + 1) * dphi / (gamma + 1)
    cols = np.zeros((spec.tx.num_elements, angles.size), dtype=np.complex128)
    for off in offsets:
        cols += _steering_matrix(spec.tx, angles + off)
    return cols / np.sqrt(gamma)


def dictionary(spec):
    """Full basis over every codebook center (the OMP search dictionary).

    The dictionary depends only on the shared codebook, the array and gamma,
    never on the channel, so it is built once per spec and cached. The
    returned array is read-only; column selections `dictionary(spec)[:, idx]`
    are bitwise equal to `basis_matrix(spec, centers[idx])`.
    """
    return _cached_dictionary(spec)


@functools.lru_cache(maxsize=8)
def _cached_dictionary(spec):
    psi = basis_matrix(spec, spec.codebook.centers)
    psi.setflags(write=False)
    return psi


class OmpPath:
    """One greedy run for F_hat = Psi(phi) G, extended only as far as `at` asks.

    Per iteration: correlate every dictionary column with the residual, take
    the strongest (ties to the lowest index), re-solve G over all selected
    columns, and renormalize the residual. The picks do not depend on K, so
    one run serves every K, asked in any order. A zero residual or a column
    picked twice stops the run; larger Ks get its stopped state.
    """

    def __init__(self, f_opt, spec):
        self._psi = dictionary(spec)
        self._psi_h = self._psi.conj().T
        self._f = self._f_res = f_opt.matrix                      # residual; None once stopped
        self._selected, self._fits = [], []    # per pick: (G, ||Psi(phi) G||, residual norm)

    def at(self, k):
        """The run stopped at `k` picks: (indices, G scaled so ||Psi(phi) G|| = 1,
        the residual norms ||F_opt - Psi(phi) G|| per iteration)."""
        if not 1 <= k <= self._psi.shape[1]:
            raise InvalidInputError(f"k must be in [1, {self._psi.shape[1]}], got {k}")
        while len(self._selected) < k and self._f_res is not None:
            corr = self._psi_h @ self._f_res
            pick = int(np.argmax(np.sum(np.abs(corr) ** 2, axis=1)))   # diag of corr @ corr^H
            if pick in self._selected:
                self._f_res = None                         # numerically degenerate residual
                break
            atoms = self._psi[:, self._selected + [pick]]
            g = numerics.least_squares(atoms, self._f)
            approx = atoms @ g
            resid = self._f - approx
            rnorm = float(np.linalg.norm(resid))
            self._selected.append(pick)
            self._fits.append((g, float(np.linalg.norm(approx)), rnorm))
            self._f_res = resid / rnorm if rnorm > _ZERO_RESIDUAL else None
        g, scale, _ = self._fits[min(k, len(self._fits)) - 1]
        if scale <= _ZERO_RESIDUAL:
            raise DomainError("selected basis carries no energy of the target precoder")
        return tuple(self._selected[:k]), g / scale, [fit[2] for fit in self._fits[:k]]


def omp_approximate(f_opt, spec, k):
    """The K-angle greedy approximation: a fresh `OmpPath` read off at `k`."""
    return OmpPath(f_opt, spec).at(k)


def pack_report(indices, g, spec, cc):
    """Pack selected angles and their combining matrix as a feedback message.

    The combining matrix goes through `cc.quantize`: untouched and counted as
    zero bits when ideal, on a polar grid otherwise, whose magnitude range
    travels as one extra unquantized scalar outside the bit accounting.
    """
    g, scale = cc.quantize(g)
    bits_angles, bits_amplitudes = proposed_bits(len(indices), g.shape[1], spec.codebook, cc)
    return FeedbackReport(
        angle_indices=indices,
        combining=g,
        gamma=spec.gamma,
        bits_angles=bits_angles,
        bits_amplitudes=bits_amplitudes,
        magnitude_scale=scale,
    )


def build_report(f_opt, spec, k, cc):
    """Run the K-angle greedy approximation and pack the result (`pack_report`)."""
    indices, g, _ = omp_approximate(f_opt, spec, k)
    return pack_report(indices, g, spec, cc)


def reconstruct_precoder(report, spec):
    """Transmitter-side rebuild: F_hat = Psi(angles) @ G, renormalized to unit norm."""
    if report.gamma != spec.gamma:
        raise InvalidInputError(
            f"report gamma {report.gamma} does not match spec gamma {spec.gamma}"
        )
    idx = np.asarray(report.angle_indices, dtype=int)
    if idx.size == 0 or np.any(idx < 0) or np.any(idx >= spec.codebook.size):
        raise InvalidInputError("angle index out of codebook range")
    psi = dictionary(spec)[:, idx]
    with np.errstate(over="ignore", invalid="ignore"):     # huge entries overflow to inf
        f = psi @ report.combining
        norm = np.linalg.norm(f)
    if not _ZERO_RESIDUAL < norm < np.inf:
        raise DomainError(f"report reconstructs to a precoder of norm {norm}")
    return Precoder(f / norm)


# ---------------------------------------------------------------------------
# Feedback overhead accounting
# ---------------------------------------------------------------------------

_SCHEME_PARAMS = {
    "direct_H": ("m", "n", "coeff_codebook_size"),
    "direct_F": ("m", "s", "coeff_codebook_size"),
    "sparse_precoder": ("q", "s", "angle_codebook_size", "coeff_codebook_size"),
    "multilevel_csi": ("k", "angle_codebook_size", "coeff_codebook_size"),
    "proposed": ("k", "s", "angle_codebook_size", "coeff_codebook_size"),
}


def overhead_bits(scheme, *, m=None, n=None, s=None, q=None, k=None,
                  angle_codebook_size=None, coeff_codebook_size=None):
    """(angle_bits, amplitude_bits) required by each feedback scheme.

    direct_H:        (0,                M*N*log2|Cc|)
    direct_F:        (0,                M*S*log2|Cc|)
    sparse_precoder: (Q*log2|Cphi|,     Q*S*log2|Cc|)
    multilevel_csi:  (2*K*log2|Cphi|,   K*log2|Cc|)
    proposed:        (K*log2|Cphi|,     K*S*log2|Cc|)
    """
    if scheme not in _SCHEME_PARAMS:
        raise InvalidInputError(f"unknown scheme {scheme!r}")
    have = {"m": m, "n": n, "s": s, "q": q, "k": k,
            "angle_codebook_size": angle_codebook_size,
            "coeff_codebook_size": coeff_codebook_size}
    for name in _SCHEME_PARAMS[scheme]:
        if have[name] is None:
            raise InvalidInputError(f"scheme {scheme!r} requires parameter {name!r}")
        if have[name] < 1:
            raise InvalidInputError(f"parameter {name!r} must be >= 1")

    cbits = _log2_exact(coeff_codebook_size, "coeff_codebook_size")
    if scheme in ("direct_H", "direct_F"):
        return 0, m * (n if scheme == "direct_H" else s) * cbits
    abits = _log2_exact(angle_codebook_size, "angle_codebook_size")
    if scheme == "sparse_precoder":
        return q * abits, q * s * cbits
    if scheme == "multilevel_csi":
        return 2 * k * abits, k * cbits
    return k * abits, k * s * cbits


def proposed_bits(k, num_streams, codebook, cc):
    """(angle_bits, amplitude_bits) of a K-angle report; ideal amplitudes count as 0 bits."""
    return overhead_bits("proposed", k=k, s=num_streams, angle_codebook_size=codebook.size,
                         coeff_codebook_size=2 ** cc.bits_per_value)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------
#
# header: K (u16 LE), gamma (u8), flags (u8, bit0 = quantized amplitudes)
# quantized mode only: magnitude range as one f64 LE
# bit-packed payload (MSB-first within each byte, zero-padded to a byte):
#   K angle indices, log2|Cphi| bits each
#   quantized mode: K*S combining entries, log2|Cc| bits each
#                   (the `ComplexCodebook.encode` words)
# ideal mode: K*S combining entries appended as raw (f64 real, f64 imag) LE pairs

_FLAG_QUANTIZED = 0x01


def _pack_bits(fields):
    """Concatenate (value, nbits) fields MSB-first, zero-padded to whole bytes."""
    acc, total = 0, 0
    for value, nbits in fields:
        if not 0 <= value < (1 << nbits):
            raise InvalidInputError(f"value {value} does not fit in {nbits} bits")
        acc, total = (acc << nbits) | value, total + nbits
    pad = -total % 8
    return (acc << pad).to_bytes((total + pad) // 8, "big")


def _unpack_bits(data, widths):
    """Inverse of `_pack_bits`: the leading fields of `data` with the given bit widths."""
    acc, pos = int.from_bytes(data, "big"), 8 * len(data)
    values = []
    for nbits in widths:
        pos -= nbits
        values.append((acc >> pos) & ((1 << nbits) - 1))
    return values


def serialize_report(report, spec, cc):
    """Encode a report for the feedback link; see the layout notes above."""
    quantized = cc.mode != "ideal"
    if quantized and np.any(np.abs(report.combining) == 0):
        raise InvalidInputError("zero combining entries are not representable on the polar grid")
    flags = _FLAG_QUANTIZED if quantized else 0
    out = struct.pack("<HBB", report.k, report.gamma, flags)
    if quantized:
        out += struct.pack("<d", report.magnitude_scale)

    fields = [(int(idx), spec.codebook.index_bits) for idx in report.angle_indices]
    if quantized:
        words = cc.encode(report.combining, report.magnitude_scale)
        fields += [(int(word), cc.bits_per_value) for word in words.reshape(-1)]
    out += _pack_bits(fields)
    if not quantized:
        out += np.asarray(report.combining, dtype="<c16").tobytes()
    return out


def deserialize_report(data, spec, cc, num_streams):
    """Decode a serialized report; the basis spec, codebooks, and S are shared state."""
    if len(data) < 4:
        raise InvalidInputError("truncated report header")
    k, gamma, flags = struct.unpack_from("<HBB", data, 0)
    offset = 4
    quantized = bool(flags & _FLAG_QUANTIZED)
    if quantized != (cc.mode != "ideal"):
        raise InvalidInputError("report mode flag does not match the shared complex codebook")
    scale = None
    if quantized:
        if len(data) < offset + 8:
            raise InvalidInputError("truncated report header")
        (scale,) = struct.unpack_from("<d", data, offset)
        if not (np.isfinite(scale) and scale > 0):
            raise InvalidInputError(f"magnitude scale must be positive and finite, got {scale}")
        offset += 8

    if k < 1:
        raise InvalidInputError("report must carry at least one angle")
    bits_angles, bits_amplitudes = proposed_bits(k, num_streams, spec.codebook, cc)
    payload_len = (bits_angles + bits_amplitudes + 7) // 8
    if len(data) < offset + payload_len:
        raise InvalidInputError("truncated report payload")
    abits, cbits = spec.codebook.index_bits, cc.bits_per_value
    # Ideal amplitudes are 0-bit fields here; their raw entries follow the payload.
    values = _unpack_bits(data[offset:offset + payload_len], [abits] * k + [cbits] * (k * num_streams))
    indices = tuple(values[:k])
    if any(i >= spec.codebook.size for i in indices):
        raise InvalidInputError("angle index out of codebook range")

    if quantized:
        combining = cc.decode(np.array(values[k:]).reshape(k, num_streams), scale)
    else:
        offset += payload_len
        if len(data) < offset + k * num_streams * 16:
            raise InvalidInputError("truncated raw combining entries")
        combining = np.frombuffer(data, dtype="<c16", count=k * num_streams,
                                  offset=offset).reshape(k, num_streams).copy()
        if not np.all(np.isfinite(combining)):
            raise InvalidInputError("combining entries must be finite")

    return FeedbackReport(
        angle_indices=indices,
        combining=combining,
        gamma=gamma,
        bits_angles=bits_angles,
        bits_amplitudes=bits_amplitudes,
        magnitude_scale=scale,
    )
