"""Feedback-aware precoder approximation and feedback-bit accounting.

The receiver approximates the optimal precoder as F_hat = Psi(phi) @ G where
Psi's columns are (multi-beam) transmit array responses at angles drawn from
a shared discrete codebook. Orthogonal matching pursuit picks the K best
angles; each pick extends a QR factorization of the picked columns by one
Gram-Schmidt step, and G is solved from its triangular factor. OMP is greedy,
so one run (`OmpPath`), extended as far as it is asked, yields every K as a
prefix. A `FeedbackReport` carries the K angle indices and the (optionally
quantized) K x S combining matrix, and holds the `BasisSpec` and
`ComplexCodebook` it was made under: its K, gamma and bit counts derive from
them, and the transmitter side (`reconstruct_precoder`, the wire format)
refuses any other.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

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
        if not (isinstance(self.gamma, (int, np.integer)) and self.gamma >= 1):
            raise InvalidInputError(f"gamma must be an integer >= 1, got {self.gamma!r}")


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
    """K angle indices and a K x S combining matrix, with the spec and codebook they were made under."""

    angle_indices: tuple           # K indices into spec.codebook
    combining: np.ndarray          # K x S, already quantized by coeff_codebook
    spec: BasisSpec
    coeff_codebook: ComplexCodebook
    magnitude_scale: float = None  # polar-quantizer range, sent unquantized

    def __post_init__(self):                 # the one check of the indices
        idx, size = self.angle_indices, self.spec.codebook.size
        if len(idx) == 0 or min(idx) < 0 or max(idx) >= size:
            raise InvalidInputError(f"angle indices must be non-empty and in [0, {size})")
        scale, polar = self.magnitude_scale, self.coeff_codebook.mode != "ideal"
        if (scale is not None) != polar or polar and not 0 < scale < np.inf:
            raise InvalidInputError(f"magnitude scale must be {'positive and finite' if polar else 'None'}"
                                    f" under a {self.coeff_codebook.mode} codebook, got {scale}")

    k = property(lambda self: len(self.angle_indices))
    gamma = property(lambda self: self.spec.gamma)
    bits_angles = property(lambda self: self._bits()[0])
    bits_amplitudes = property(lambda self: self._bits()[1])

    def _bits(self):                         # the one bit formula, `overhead_bits`
        return proposed_bits(self.k, self.combining.shape[1], self.spec.codebook, self.coeff_codebook)


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

    Per pick: correlate every dictionary column with the residual and take the strongest
    (ties to the lowest index). Classical Gram-Schmidt, run twice (CGS2), orthogonalizes it
    against Q, the orthonormal basis of the columns picked so far: Q gains a column, the
    triangular R of Psi(phi) = Q R a column and Q^H F a row, and the residual is
    F - Q (Q^H F). `at(k)` solves R_k G = (Q^H F)_k. The picks do not depend on K, so one run
    serves every K, asked in any order. A zero residual or a column with no norm left outside
    Q's span (as a column picked before) stops the run; larger Ks get its stopped state.
    """

    def __init__(self, f_opt, spec):
        self._psi = dictionary(spec)
        self._psi_h = self._psi.conj().T
        self._f = self._resid = f_opt.matrix                      # residual; None once stopped
        m, s = self._f.shape                   # each grows by one column or row per pick:
        self._q = np.empty((m, 0), complex)    # orthonormal basis of the picked columns, M x k
        self._r = np.empty((0, 0), complex)    # Psi(phi) = Q R, R upper triangular, k x k
        self._qhf = np.empty((0, s), complex)  # Q^H F, k x S
        self._selected, self._norms = [], []   # per pick: its index, the residual norm after it

    def _pick(self):
        corr = self._psi_h @ self._resid
        pick = int(np.argmax(np.sum(np.abs(corr) ** 2, axis=1)))   # diag of corr @ corr^H
        col, q = self._psi[:, pick], self._q
        coef = (col.conj() @ q).conj()                     # Q^H col, then Q^H of what is left
        v = col - q @ coef
        again = (v.conj() @ q).conj()
        v = v - q @ again
        norm = float(np.linalg.norm(v))
        if norm <= _ZERO_RESIDUAL * np.linalg.norm(col):
            self._resid = None                             # numerically degenerate residual
            return
        v /= norm
        k = len(self._selected)
        r = np.zeros((k + 1, k + 1), complex)
        r[:k, :k], r[:k, k], r[k, k] = self._r, coef + again, norm
        row = v.conj() @ self._f
        self._q, self._r, self._qhf = np.column_stack((q, v)), r, np.vstack((self._qhf, row))
        self._resid = self._resid - np.outer(v, row)
        rnorm = float(np.linalg.norm(self._resid))
        self._selected.append(pick)
        self._norms.append(rnorm)
        if rnorm <= _ZERO_RESIDUAL:
            self._resid = None

    def at(self, k):
        """The run stopped at `k` picks: (indices, G scaled so ||Psi(phi) G|| = 1,
        the residual norms ||F_opt - Psi(phi) G|| per iteration)."""
        if not 1 <= k <= self._psi.shape[1]:
            raise InvalidInputError(f"k must be in [1, {self._psi.shape[1]}], got {k}")
        while len(self._selected) < k and self._resid is not None:
            self._pick()
        k = min(k, len(self._selected))
        qhf = self._qhf[:k]
        scale = float(np.linalg.norm(qhf))                   # ||Psi(phi) G|| = ||Q (Q^H F)_k||
        if scale <= _ZERO_RESIDUAL:
            raise DomainError("selected basis carries no energy of the target precoder")
        g = np.linalg.solve(self._r[:k, :k], qhf)
        return tuple(self._selected[:k]), g / scale, self._norms[:k]


def omp_approximate(f_opt, spec, k):
    """The K-angle greedy approximation: a fresh `OmpPath` read off at `k`."""
    return OmpPath(f_opt, spec).at(k)


def pack_report(indices, g, spec, cc):
    """Pack selected angles and their `cc.quantize`d combining matrix as a feedback report.

    A polar grid's magnitude range travels as one unquantized scalar outside the bit count.
    """
    g, scale = cc.quantize(g)
    return FeedbackReport(angle_indices=indices, combining=g, spec=spec, coeff_codebook=cc,
                          magnitude_scale=scale)


def build_report(f_opt, spec, k, cc):
    """Run the K-angle greedy approximation and pack the result (`pack_report`)."""
    indices, g, _ = omp_approximate(f_opt, spec, k)
    return pack_report(indices, g, spec, cc)


def _check_made_under(report, spec, cc=None):
    """The mismatch rule: a report is read only under the spec (and codebook) it was made under."""
    for made, given in ((report.spec, spec), (report.coeff_codebook, cc)):
        if given is not None and given != made:
            raise InvalidInputError(f"report was made under {made}, not {given}")


def reconstruct_precoder(report, spec):
    """Transmitter-side rebuild: F_hat = Psi(angles) @ G, renormalized to unit norm."""
    _check_made_under(report, spec)
    psi = dictionary(spec)[:, np.asarray(report.angle_indices, dtype=int)]
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
# Only a quantized report has a wire form; an ideal codebook is refused, and so
# is a spec or codebook other than the one the report was made under.
# header (12 bytes, LE): K (u16), gamma (u8), flags (u8, always 0x01),
#                        magnitude range (f64)
# bit-packed payload (MSB-first within each byte, zero-padded to a byte, nothing after it):
#   K angle indices, log2|Cphi| bits each
#   K*S combining entries, log2|Cc| bits each (the `ComplexCodebook.encode` words)

_HEADER = struct.Struct("<HBBd")
_FLAG_QUANTIZED = 0x01


def _pack_bits(fields):
    """Concatenate (value, nbits) fields MSB-first, zero-padded to whole bytes."""
    acc, total = 0, 0
    for value, nbits in fields:
        acc, total = (acc << nbits) | value, total + nbits
    pad = -total % 8
    return (acc << pad).to_bytes((total + pad) // 8, "big")


def _unpack_bits(data, widths):
    """Inverse of `_pack_bits`: the fields of `data`, exactly their widths padded to a byte."""
    acc, pos = int.from_bytes(data, "big"), 8 * len(data)
    extra = len(data) - (sum(widths) + 7) // 8
    if extra:
        raise InvalidInputError(f"trailing bytes: {extra}" if extra > 0 else "truncated report payload")
    values = []
    for nbits in widths:
        pos -= nbits
        values.append((acc >> pos) & ((1 << nbits) - 1))
    return values


def serialize_report(report, spec, cc):
    """Encode a quantized report for the feedback link; see the layout notes above."""
    if cc.mode == "ideal":
        raise InvalidInputError("an ideal complex codebook has no wire form")
    _check_made_under(report, spec, cc)
    for name, value, top in (("K", report.k, 0xFFFF), ("gamma", report.gamma, 0xFF)):
        if value > top:
            raise InvalidInputError(f"report header field {name} must be <= {top}, got {value}")
    if np.any(np.abs(report.combining) == 0):
        raise InvalidInputError("zero combining entries are not representable on the polar grid")
    words = cc.encode(report.combining, report.magnitude_scale)
    fields = [(int(idx), spec.codebook.index_bits) for idx in report.angle_indices]
    fields += [(int(word), cc.bits_per_value) for word in words.reshape(-1)]
    header = _HEADER.pack(report.k, report.gamma, _FLAG_QUANTIZED, report.magnitude_scale)
    return header + _pack_bits(fields)


def deserialize_report(data, spec, cc, num_streams):
    """Decode a serialized report; the basis spec, codebooks, and S are shared state."""
    if cc.mode == "ideal":
        raise InvalidInputError("an ideal complex codebook has no wire form")
    if len(data) < _HEADER.size:
        raise InvalidInputError("truncated report header")
    k, gamma, flags, scale = _HEADER.unpack_from(data)
    if flags != _FLAG_QUANTIZED:
        raise InvalidInputError(f"report flags must be {_FLAG_QUANTIZED:#04x}, got {flags:#04x}")
    if num_streams < 1:
        raise InvalidInputError(f"num_streams must be >= 1, got {num_streams}")
    if gamma != spec.gamma:
        raise InvalidInputError(f"report header gamma {gamma} does not match spec gamma {spec.gamma}")
    widths = [spec.codebook.index_bits] * k + [cc.bits_per_value] * (k * num_streams)
    values = _unpack_bits(data[_HEADER.size:], widths)
    return FeedbackReport(angle_indices=tuple(values[:k]), spec=spec, coeff_codebook=cc,
                          combining=cc.decode(np.array(values[k:]).reshape(k, num_streams), scale),
                          magnitude_scale=scale)
