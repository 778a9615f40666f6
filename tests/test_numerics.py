import numpy as np
import pytest

from fapsim import numerics
from fapsim.errors import DomainError, InvalidInputError
from fapsim.evaluation import achievable_rate, ber_qpsk_mmse
from fapsim.hybrid import decompose
from fapsim.precoding import PowerAllocation, Precoder, optimal_precoder


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvd:
    def test_identity(self):
        u, s, v = numerics.svd(np.eye(2))
        assert np.allclose(s, [1.0, 1.0])
        assert np.allclose(u @ v.conj().T, np.eye(2), atol=1e-12)

    def test_diagonal_with_zero(self):
        _, s, _ = numerics.svd(np.diag([3.0, 0.0]))
        assert np.allclose(s, [3.0, 0.0])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 5, 3)
        u, s, v = numerics.svd(a)
        err = np.linalg.norm(a - u @ np.diag(s) @ v.conj().T)
        assert err <= 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 3), (17, 4), (64, 64), (128, 16), (16, 128)])
    def test_properties_all_shapes(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        a = random_complex(rng, *shape)
        u, s, v = numerics.svd(a)
        k = min(shape)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)
        assert np.allclose(u.conj().T @ u, np.eye(k), atol=1e-10)
        assert np.allclose(v.conj().T @ v, np.eye(k), atol=1e-10)
        err = np.linalg.norm(a - u @ np.diag(s) @ v.conj().T)
        assert err <= 1e-10 * np.linalg.norm(a)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            numerics.svd(np.array([[np.nan, 0], [0, 1]], dtype=complex))


class TestLeastSquares:
    def test_identity(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, 3, 2)
        assert np.allclose(numerics.least_squares(np.eye(3), b), b, atol=1e-12)

    def test_overdetermined_mean(self):
        x = numerics.least_squares(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))
        assert np.allclose(x, [[1.0]])

    def test_normal_equation_oracle(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 8, 3)
        b = random_complex(rng, 8, 2)
        x = numerics.least_squares(a, b)
        resid = a.conj().T @ (a @ x) - a.conj().T @ b
        assert np.linalg.norm(resid) <= 1e-9

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            rows = int(rng.integers(2, 20))
            cols = int(rng.integers(1, rows + 1))
            a = random_complex(rng, rows, cols)
            b = random_complex(rng, rows, int(rng.integers(1, 4)))
            x = numerics.least_squares(a, b)
            lhs = np.linalg.norm(a.conj().T @ (a @ x - b))
            assert lhs <= 1e-9 * np.linalg.norm(a) * np.linalg.norm(b)

    def test_rank_deficient_minimum_norm(self):
        rng = np.random.default_rng(8)
        col = random_complex(rng, 6, 1)
        a = np.hstack([col, col])                   # rank one, duplicated beams
        b = random_complex(rng, 6, 1)
        x = numerics.least_squares(a, b)
        x_pinv = np.linalg.pinv(a) @ b              # minimum-norm reference
        assert np.allclose(x, x_pinv, atol=1e-10)

    def test_shape_errors(self):
        with pytest.raises(InvalidInputError):
            numerics.least_squares(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(InvalidInputError):
            numerics.least_squares(np.ones((3, 2)), np.ones((2, 1)))


class TestLogDetHermitian:
    def test_identity(self):
        assert numerics.log_det_hermitian(np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert numerics.log_det_hermitian(np.diag([2.0, 4.0])) == pytest.approx(3.0, abs=1e-12)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(9)
        m = random_complex(rng, 6, 6)
        a = m.conj().T @ m + np.eye(6)
        expected = float(np.sum(np.log2(np.linalg.eigvalsh(0.5 * (a + a.conj().T)))))
        assert numerics.log_det_hermitian(a) == pytest.approx(expected, abs=1e-9)

    def test_not_positive_definite(self):
        with pytest.raises(DomainError):
            numerics.log_det_hermitian(np.diag([1.0, -1.0]))

    def test_not_hermitian(self):
        with pytest.raises(InvalidInputError):
            numerics.log_det_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestMatrixEntries:
    """`_as_matrix`'s entry rule, through each public entry point that takes a matrix."""

    NON_NUMBERS = {"string": [["a", "b"]], "numeric_string": np.array([["1"]]), "none": [[None, 1.0]],
                   "object": [[object()]], "ragged": [[1, 0], [0]]}
    ENTRY_POINTS = {
        "svd": ("a", numerics.svd),
        "least_squares_a": ("a", lambda m: numerics.least_squares(m, np.eye(2))),
        "least_squares_b": ("b", lambda m: numerics.least_squares(np.eye(2), m)),
        "log_det_hermitian": ("a", numerics.log_det_hermitian),
        "Precoder": ("precoder", Precoder),
        "optimal_precoder": ("h", lambda m: optimal_precoder(m, 1, PowerAllocation("unitary"))),
        "decompose": ("f", decompose),
        "achievable_rate_h": ("h", lambda m: achievable_rate(m, np.eye(2) / np.sqrt(2), 1.0)),
        "achievable_rate_f": ("f", lambda m: achievable_rate(np.eye(2), m, 1.0)),
        "ber_qpsk_mmse_h": ("h", lambda m: ber_qpsk_mmse(m, np.eye(2) / np.sqrt(2), 1.0, 4,
                                                         np.random.default_rng(0))),
        "ber_qpsk_mmse_f": ("f", lambda m: ber_qpsk_mmse(np.eye(2), m, 1.0, 4, np.random.default_rng(0))),
    }

    @pytest.mark.parametrize("entries", sorted(NON_NUMBERS))
    @pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
    def test_non_numbers_are_refused_by_name(self, entry_point, entries):
        # Each ended in numpy's bare ValueError or TypeError.
        field, call = self.ENTRY_POINTS[entry_point]
        with pytest.raises(InvalidInputError, match=rf"^{field} must hold only numbers: bool, "):
            call(self.NON_NUMBERS[entries])

    @pytest.mark.parametrize("given", [
        [[True, False]], [[1, 2], [3, 4]], np.array([[255]], dtype=np.uint8),
        np.array([[2 ** 64 - 1]], dtype=np.uint64), np.array([[0.5]], dtype=np.float16),
        [[1.5, -2.0]], np.array([[1 + 2j]], dtype=np.complex64), [[1j, 2.0]],
        np.array([[0.25]], dtype=np.longdouble),
    ])
    def test_numbers_convert_as_before(self, given):
        # bool, integer, real and complex entries convert exactly as a direct complex cast.
        held = numerics._as_matrix(given, "a")
        assert held.dtype == np.complex128
        assert held.tobytes() == np.asarray(given, dtype=np.complex128).tobytes()
