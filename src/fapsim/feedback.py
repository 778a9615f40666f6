"""Feedback-aware precoder approximation and feedback-bit accounting.

The receiver approximates the optimal precoder as F_hat = Psi(phi) @ G where
Psi's columns are (multi-beam) transmit array responses at angles drawn from
a shared discrete codebook. Orthogonal matching pursuit picks the K best
angles; each pick extends a QR factorization of the picked columns by one
Gram-Schmidt step, and G is solved from its triangular factor. OMP is greedy,
so one run (`OmpPath`), made once to the largest K, yields every K as a
prefix; one run carries a stack of targets in lockstep. A `FeedbackReport`
carries the K angle indices and the (optionally quantized) K x S combining
matrix, and holds the `BasisSpec` and `ComplexCodebook` it was made under: its
K, gamma and bit counts derive from them, and the transmitter side
(`reconstruct_precoder`, the wire format) refuses any other.
"""

import functools
import struct
from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, _check_sector, _steering_matrix
from .errors import DomainError, InvalidInputError
from .numerics import _count, _instance, _is_real, _log2_exact, _sequence
from .precoding import Precoder

# Residuals at or below this norm are treated as exact recoveries; the
# greedy argmax is meaningless on a numerically zero residual.
_ZERO_RESIDUAL = 1e-12
OMP_TIE_RTOL = 1e-10        # a pick's ties: the scores within this relative distance of the best


@dataclass(frozen=True)
class AngleCodebook:
    """Uniform angle grid over a sector; entry i is the middle of sub-sector i."""

    sector: tuple
    size: int

    def __post_init__(self):
        # A float tuple, so equal codebooks are equal and hashable (the dictionary cache key).
        object.__setattr__(self, "sector", _check_sector(self.sector, "sector"))
        object.__setattr__(self, "size", 1 << _log2_exact(self.size, "codebook size"))

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
        return self.size.bit_length() - 1


@dataclass(frozen=True)
class BasisSpec:
    """Shared transmitter/receiver agreement: codebook, array geometry, beams per element."""

    codebook: AngleCodebook
    tx: ArrayGeometry
    gamma: int = 1

    def __post_init__(self):
        _instance(self.codebook, AngleCodebook, "codebook")
        _instance(self.tx, ArrayGeometry, "tx")
        object.__setattr__(self, "gamma", _count(self.gamma, "gamma"))


@dataclass(frozen=True)
class ComplexCodebook:
    """Quantizer for fed-back complex values: ideal passthrough or uniform polar grid."""

    MODES = ("ideal", "uniform_polar")    # a class attribute, not a field
    mode: str                      # one of MODES
    magnitude_levels: int = 0
    phase_levels: int = 0

    def __post_init__(self):
        if not (isinstance(self.mode, str) and self.mode in self.MODES):
            raise InvalidInputError(f"unknown complex codebook mode {self.mode!r}, not one of {self.MODES}")
        if self.mode == "uniform_polar":
            for name in ("magnitude_levels", "phase_levels"):
                object.__setattr__(self, name, 1 << _log2_exact(getattr(self, name), name))

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
        return (self.magnitude_levels * self.phase_levels).bit_length() - 1

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

    def __post_init__(self):                 # the one check of a report's form
        size = _instance(self.spec, BasisSpec, "spec").codebook.size
        mode = _instance(self.coeff_codebook, ComplexCodebook, "coeff_codebook").mode
        idx = _sequence(self.angle_indices, "angle indices", kind=f"integers in [0, {size})", entry=lambda i:
                        isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < size)
        object.__setattr__(self, "angle_indices", tuple(map(int, idx)))
        scale, polar = self.magnitude_scale, mode != "ideal"
        if (scale is not None) != polar or polar and not (_is_real(scale) and 0 < scale < np.inf):
            raise InvalidInputError(f"magnitude scale must be {'positive and finite' if polar else 'None'}"
                                    f" under a {mode} codebook, got {scale!r}")
        g, k = self.combining, len(idx)
        if not (isinstance(g, np.ndarray) and g.dtype.kind in "iufc" and g.ndim == 2
                and g.shape[0] == k and g.shape[1] >= 1 and np.isfinite(g).all()):
            raise InvalidInputError(f"combining must be a finite {k} x S array, S >= 1, got "
                                    f"{getattr(g, 'shape', type(g).__name__)}")
        if polar and not np.abs(g).max() <= scale:
            raise InvalidInputError(f"combining entries must have modulus at most magnitude scale {scale}")

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
    return np.divide(cols, np.sqrt(gamma), out=cols)


def dictionary(spec):
    """Full basis Psi over every codebook center (the OMP search dictionary), read-only: the
    `_basis_columns` read of every column, built from the cached Psi^H on each call, not kept.
    `dictionary(spec)[:, idx]` is bitwise equal to `basis_matrix(spec, centers[idx])`."""
    psi = _basis_columns(spec, range(spec.codebook.size))
    psi.setflags(write=False)
    return psi


@functools.lru_cache(maxsize=8)
def _cached_basis(spec):
    """Read-only, contiguous Psi^H and its row norms, per spec: the one basis array a run holds."""
    psi_h = np.conjugate(basis_matrix(spec, spec.codebook.centers).T, order="C")
    out = psi_h, np.linalg.norm(psi_h, axis=1)
    for a in out:
        a.setflags(write=False)
    return out


def _basis_columns(spec, indices):
    """Psi[:, indices] read off the cached Psi^H: a fresh array with the bytes and the strides
    of `dictionary(spec)[:, indices]`, for any order and repeats of the indices."""
    rows = _cached_basis(spec)[0][np.asarray(indices, dtype=int)]      # K x M, C-ordered
    return np.conjugate(rows, out=rows).T


class OmpPath:
    """Greedy runs for F_hat = Psi(phi) G of a stack of targets in lockstep, run once, at
    construction, to the largest K; `at` only reads them.

    Per pick, every running target takes the dictionary column most correlated with its
    residual R: one argmax over an atoms x targets score. Scores within OMP_TIE_RTOL (relative)
    of the best tie, and a tie goes to the lowest index, however many targets run. Classical
    Gram-Schmidt, run twice (CGS2), orthogonalizes the column against Q, the orthonormal basis
    of that target's picks: Q gains a column v, the triangular R of Psi(phi) = Q R a column and
    Q^H F a row v^H F. The residual F - Q (Q^H F) loses v (v^H F), so its correlations Psi^H R
    lose (Psi^H v)(v^H F): one product with the dictionary per pick, not a new correlation.
    `at(k, p)` solves R_k G = (Q^H F)_k for target p. The picks do not depend on K, so one run
    serves every K, read in any order. A zero residual or a column with no norm left outside
    Q's span (as a column picked before) stops a target: it is frozen there, for every larger K.
    """

    def __init__(self, targets, spec, k):
        """`targets`: one Precoder, or a sequence of Precoders of one shape; `k`, in [1, A]: the
        most picks `at` is asked for. Every target picks until it stops, at min(k, M) picks at
        the latest (M span the array)."""
        self._psi_h, self._col_norms = _cached_basis(spec)          # A x M, A
        self._k = k = _count(k, "k", 1, self._psi_h.shape[0])      # the path's K
        f = np.stack([t.matrix for t in ([targets] if isinstance(targets, Precoder) else targets)])
        p, m, s = f.shape
        cap = min(k, m)
        self._f, self._resid = f, f.copy()                      # P x M x S each
        self._corr = (f.transpose(0, 2, 1).reshape(p * s, m) @ self._psi_h.T).reshape(p, s, -1)
        self._q = np.zeros((p, cap, m), complex)      # row j of target p: its j-th basis vector
        self._r = np.zeros((p, cap, cap), complex)    # Psi(phi) = Q R, R upper triangular
        self._qhf = np.zeros((p, cap, s), complex)    # Q^H F
        self._picks = np.zeros((p, cap), int)         # per pick: its index,
        self._norms = np.zeros((p, cap))              # and the residual norm after it
        self._count = np.zeros(p, int)                # picks made per target
        self._running = np.ones(p, bool)              # every running target has made _steps
        self._steps = 0
        while self._steps < cap and self._running.any():
            self._pick()

    @staticmethod
    def target_bytes(spec, k, s):
        """Bytes `OmpPath(targets, spec, k)` allocates per M x S target, Psi^H aside, in 16-byte
        words: Q, R, Q^H F, the correlations, the residual, F and the pick record."""
        m, k = spec.tx.num_elements, min(k, spec.tx.num_elements)
        return 16 * (m * k + k * k + k * s + spec.codebook.size * s + 2 * m * s + k + 1)

    def _pick(self):
        """One pick of every running target."""
        run = np.flatnonzero(self._running)
        t = slice(None) if run.size == self._running.size else run    # a view when all run
        k = self._steps
        corr = self._corr[t]                                             # Psi^H R, Pa x S x A
        score = np.sum(corr.real ** 2 + corr.imag ** 2, axis=1)          # Pa x A
        picks = np.argmax(score >= (1 - OMP_TIE_RTOL) * score.max(axis=1, keepdims=True), axis=1)
        rows = self._psi_h[picks]                                        # col^H, Pa x M
        q = self._q[t, :k]                                               # Pa x k x M
        coef = (rows[:, None] @ q.transpose(0, 2, 1)).conj()             # Q^H col, Pa x 1 x k
        v = rows.conj()[:, None] - coef @ q
        again = (v.conj() @ q.transpose(0, 2, 1)).conj()                 # Q^H of what is left
        v -= again @ q
        norm = np.linalg.norm(v[:, 0], axis=1)
        ok = norm > _ZERO_RESIDUAL * self._col_norms[picks]
        if not ok.all():                      # numerically inside Q's span: stop, no pick
            self._running[run[~ok]] = False
            t, picks, coef, again, v, norm = run[ok], picks[ok], coef[ok], again[ok], v[ok], norm[ok]
        v = v[:, 0] / norm[:, None]
        row = (v.conj()[:, None] @ self._f[t])[:, 0]                    # v^H F, Pa x S
        self._q[t, k], self._r[t, :k, k], self._r[t, k, k] = v, (coef + again)[:, 0], norm
        self._qhf[t, k] = row
        self._resid[t] -= v[:, :, None] * row[:, None, :]
        self._corr[t] -= row[:, :, None] * (v @ self._psi_h.T)[:, None, :]
        rnorm = np.linalg.norm(self._resid[t], axis=(1, 2))
        self._picks[t, k], self._norms[t, k] = picks, rnorm
        self._count[t] += 1
        self._running[t] &= rnorm > _ZERO_RESIDUAL
        self._steps += 1

    def at(self, k, p=0):
        """Target p's run stopped at `k` picks: (indices, G scaled so ||Psi(phi) G|| = 1,
        the residual norms ||F_opt - Psi(phi) G|| per iteration)."""
        k = min(_count(k, "k", 1, self._k), int(self._count[p]))
        qhf = self._qhf[p, :k]
        scale = float(np.linalg.norm(qhf))                   # ||Psi(phi) G|| = ||Q (Q^H F)_k||
        if scale <= _ZERO_RESIDUAL:
            raise DomainError("selected basis carries no energy of the target precoder")
        g = np.linalg.solve(self._r[p, :k, :k], qhf)
        return tuple(self._picks[p, :k].tolist()), g / scale, self._norms[p, :k].tolist()


def omp_approximate(f_opt, spec, k):
    """The K-angle greedy approximation: a fresh one-target `OmpPath` read off at `k`."""
    return OmpPath(f_opt, spec, k).at(k)


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
    _instance(report, FeedbackReport, "report")
    for made, given in ((report.spec, spec), (report.coeff_codebook, cc)):
        if given is not None and given != made:
            raise InvalidInputError(f"report was made under {made}, not {given}")


def reconstruct_precoder(report, spec):
    """Transmitter-side rebuild: F_hat = Psi(angles) @ G, renormalized to unit norm."""
    _check_made_under(report, _instance(spec, BasisSpec, "spec"))
    psi = _basis_columns(spec, report.angle_indices)
    with np.errstate(over="ignore", invalid="ignore"):     # huge entries overflow to inf
        f = psi @ report.combining
        norm = np.linalg.norm(f)
    if not _ZERO_RESIDUAL < norm < np.inf:
        raise DomainError(f"report reconstructs to a precoder of norm {norm}")
    return Precoder(f / norm)


# ---------------------------------------------------------------------------
# Feedback overhead accounting
# ---------------------------------------------------------------------------

# Per scheme: its parameters, and its (angle_bits, amplitude_bits) in them, each size as log2.
_PROPOSED = lambda k, s, a, c: (k * a, k * s * c)         # the sparse precoder's too, at K = Q
_OVERHEAD = {
    "direct_H": (("m", "n", "coeff_codebook_size"), lambda m, n, c: (0, m * n * c)),
    "direct_F": (("m", "s", "coeff_codebook_size"), lambda m, s, c: (0, m * s * c)),
    "sparse_precoder": (("q", "s", "angle_codebook_size", "coeff_codebook_size"), _PROPOSED),
    "multilevel_csi": (("k", "angle_codebook_size", "coeff_codebook_size"),
                       lambda k, a, c: (2 * k * a, k * c)),
    "proposed": (("k", "s", "angle_codebook_size", "coeff_codebook_size"), _PROPOSED),
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
    if scheme not in _OVERHEAD:
        raise InvalidInputError(f"unknown scheme {scheme!r}")
    names, formula = _OVERHEAD[scheme]
    have = {"m": m, "n": n, "s": s, "q": q, "k": k,
            "angle_codebook_size": angle_codebook_size, "coeff_codebook_size": coeff_codebook_size}
    for name in names:
        if have[name] is None:
            raise InvalidInputError(f"scheme {scheme!r} requires parameter {name!r}")
        have[name] = _count(have[name], name)
    for name in ("coeff_codebook_size", "angle_codebook_size"):     # the order its errors keep
        if name in names:
            have[name] = _log2_exact(have[name], name)
    return formula(*(have[name] for name in names))


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


def _check_wire_state(spec, cc):
    """The wire format's shared state: a BasisSpec and a quantized ComplexCodebook."""
    _instance(spec, BasisSpec, "spec")
    if _instance(cc, ComplexCodebook, "cc").mode == "ideal":
        raise InvalidInputError("an ideal complex codebook has no wire form")


def serialize_report(report, spec, cc):
    """Encode a quantized report for the feedback link; see the layout notes above."""
    _check_wire_state(spec, cc)
    _check_made_under(report, spec, cc)
    for name, value, top in (("K", report.k, 0xFFFF), ("gamma", report.gamma, 0xFF)):
        if value > top:
            raise InvalidInputError(f"report header field {name} must be <= {top}, got {value}")
    words = cc.encode(report.combining, report.magnitude_scale)
    if not np.array_equal(cc.decode(words, report.magnitude_scale), report.combining):
        raise InvalidInputError("combining entries must be points of the polar grid, which zero never is")
    fields = [(idx, spec.codebook.index_bits) for idx in report.angle_indices]
    fields += [(int(word), cc.bits_per_value) for word in words.reshape(-1)]
    header = _HEADER.pack(report.k, report.gamma, _FLAG_QUANTIZED, report.magnitude_scale)
    return header + _pack_bits(fields)


def deserialize_report(data, spec, cc, num_streams):
    """Decode a serialized report; the basis spec, codebooks, and S are shared state."""
    _check_wire_state(spec, cc)
    if len(data) < _HEADER.size:
        raise InvalidInputError("truncated report header")
    k, gamma, flags, scale = _HEADER.unpack_from(data)
    if flags != _FLAG_QUANTIZED:
        raise InvalidInputError(f"report flags must be {_FLAG_QUANTIZED:#04x}, got {flags:#04x}")
    num_streams = _count(num_streams, "num_streams")
    if gamma != spec.gamma:
        raise InvalidInputError(f"report header gamma {gamma} does not match spec gamma {spec.gamma}")
    widths = [spec.codebook.index_bits] * k + [cc.bits_per_value] * (k * num_streams)
    values = _unpack_bits(data[_HEADER.size:], widths)
    return FeedbackReport(angle_indices=tuple(values[:k]), spec=spec, coeff_codebook=cc,
                          combining=cc.decode(np.array(values[k:]).reshape(k, num_streams), scale),
                          magnitude_scale=scale)
