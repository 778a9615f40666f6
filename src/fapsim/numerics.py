"""Complex dense linear algebra backbone, and the package's input rules.

Thin, validated wrappers around LAPACK (via numpy.linalg) so the rest of the
package shares one set of conventions: economy SVD with descending singular
values, minimum-norm least squares, and a Cholesky-based log-determinant in
base 2. The rules `_as_matrix`, `_count`, `_instance`, `_positive` and `_reals` check
what callers pass in, and name the field.
"""

import numpy as np

from .errors import DomainError, InvalidInputError

HERMITIAN_RTOL = 1e-9


def _count(value, name, low=1, high=None):
    """`value` as an int: an integer (numpy integers too, never a bool) in [low, high]."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        return int(value)
    raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}" if high is None
                            else f"{name} must be in [{low}, {high}], got {value!r}")


def _instance(value, cls, name):
    """`value`, an instance of `cls` (a held object: a geometry, a codebook, a spec, a config)."""
    if isinstance(value, cls):
        return value
    article = "an" if cls.__name__[0] in "AEIOU" else "a"
    raise InvalidInputError(f"{name} must be {article} {cls.__name__}, got {value!r}")


def _is_real(value):
    """A real scalar, Python or numpy, never a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _positive(value, name):
    """`value` as a float: a positive, finite real (numpy scalars too, never a bool or an array)."""
    if _is_real(value) and 0 < value < np.inf:
        return float(value)
    raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


def _reals(values, name, size=None):
    """`values` as a tuple: a list, tuple, range or 1-D numpy array of `size` (default: 1+) reals."""
    if ((isinstance(values, (list, tuple, range)) or isinstance(values, np.ndarray) and values.ndim == 1)
            and 0 < len(values) == (size or len(values)) and all(map(_is_real, values))):
        return tuple(values)
    raise InvalidInputError(f"{name} must be a list, tuple, range or 1-D array of {size or 'one or more'} "
                            f"reals, got {values!r}")


def _log2_exact(n, name):
    """log2 of `n`, a count that is a power of two."""
    n = _count(n, name)
    if n & (n - 1):
        raise InvalidInputError(f"{name} must be a power of two, got {n}")
    return n.bit_length() - 1


def _as_matrix(a, name):
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a 2-D matrix with at least one row and column")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def svd(a):
    """Economy SVD: returns (U, sigma, V) with A = U @ diag(sigma) @ V.conj().T.

    Singular values are sorted descending; U and V have orthonormal columns.
    """
    a = _as_matrix(a, "a")
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    return u, s, vh.conj().T


def least_squares(a, b):
    """Minimum-norm solution X of min ||A X - B||_F for a tall matrix A.

    Uses an SVD-based (rank-revealing) solver, so a rank-deficient A still
    yields the minimum-norm minimizer instead of failing like the
    normal-equation inverse would.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] < a.shape[1]:
        raise InvalidInputError(f"a must have rows >= cols, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise InvalidInputError(f"row mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return x


def log_det_hermitian(a):
    """log2 determinant of a Hermitian positive definite matrix via Cholesky."""
    a = _as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"a must be square, got {a.shape}")
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.conj().T)
    if asym > HERMITIAN_RTOL * max(scale, 1e-300):
        raise InvalidInputError("a is not Hermitian within tolerance")
    h = 0.5 * (a + a.conj().T)
    try:
        chol = np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise DomainError("matrix is not positive definite") from exc
    return float(2.0 * np.sum(np.log2(np.real(np.diag(chol)))))
