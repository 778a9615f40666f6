import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fapsim.errors import InvalidInputError
from fapsim.hybrid import decompose, phase_shifter_count, reconstruct


def random_mixed_precoder(rng, rows, cols):
    """Random matrix with occasional zero, constant-modulus, and tiny-entry columns."""
    f = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    for j in range(cols):
        kind = rng.integers(0, 4)
        if kind == 0:
            f[:, j] = 0.0
        elif kind == 1:
            f[:, j] = np.exp(1j * rng.uniform(-np.pi, np.pi, rows)) * rng.uniform(0.1, 2.0)
        elif kind == 2:
            mask = rng.uniform(size=rows) < 0.3
            f[mask, j] *= 1e-14
    return f


class TestDecompose:
    def test_constant_modulus_column(self):
        rng = np.random.default_rng(1)
        phases = rng.uniform(-np.pi, np.pi, 6)
        f = (0.7 * np.exp(1j * phases))[:, None]
        d = decompose(f)
        assert d.baseband[0, 0] == pytest.approx(0.35, abs=1e-15)
        assert np.allclose(d.rf_bar, d.rf_tilde, atol=1e-12)
        assert np.allclose(d.rf_bar[:, 0], np.exp(1j * phases), atol=1e-12)
        assert np.linalg.norm(f - reconstruct(d)) <= 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        d = decompose(f)
        assert np.linalg.norm(f - reconstruct(d)) <= 1e-10

    def test_zero_column(self):
        f = np.zeros((5, 2), dtype=complex)
        f[:, 1] = 1.0 + 1.0j
        d = decompose(f)
        assert d.baseband[0, 0] == 0.0
        assert np.allclose(d.rf_bar[:, 0], 1.0)
        assert np.allclose(d.rf_tilde[:, 0], 1.0)
        assert np.linalg.norm(f - reconstruct(d)) <= 1e-12

    def test_zero_entry_in_nonzero_column(self):
        f = np.array([[0.0], [2.0]], dtype=complex)
        d = decompose(f)
        # Antipodal phase pair at the zero entry sums to zero exactly.
        assert abs(d.rf_bar[0, 0] + d.rf_tilde[0, 0]) <= 1e-15
        assert np.linalg.norm(f - reconstruct(d)) <= 1e-12

    def test_modulo_one_and_arccos_domain(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rows = int(rng.integers(1, 24))
            cols = int(rng.integers(1, 5))
            f = random_mixed_precoder(rng, rows, cols)
            d = decompose(f)
            assert np.max(np.abs(np.abs(d.rf_bar) - 1.0)) <= 1e-12
            assert np.max(np.abs(np.abs(d.rf_tilde) - 1.0)) <= 1e-12
            bdiag = np.diag(d.baseband).real
            assert np.all(np.abs(f) <= 2.0 * bdiag[None, :] + 1e-15)
            assert np.linalg.norm(f - reconstruct(d)) <= 1e-10 * max(np.linalg.norm(f), 1.0)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 128), seed=st.integers(0, 2 ** 32 - 1),
           kinds=st.lists(st.sampled_from(["random", "zero", "equal_modulus", "zero_entries"]),
                          min_size=1, max_size=8))
    def test_exact_over_shapes_and_zero_patterns(self, rows, seed, kinds):
        rng = np.random.default_rng(seed)
        f = np.empty((rows, len(kinds)), dtype=complex)
        for j, kind in enumerate(kinds):
            scale = 10.0 ** rng.uniform(-30, 30)
            f[:, j] = scale * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
            if kind == "zero":
                f[:, j] = 0.0
            elif kind == "equal_modulus":
                f[:, j] = scale * np.exp(1j * rng.uniform(-np.pi, np.pi, rows))
            elif kind == "zero_entries":
                f[rng.uniform(size=rows) < 0.5, j] = 0.0
        d = decompose(f)
        assert np.max(np.abs(np.abs(d.rf_bar) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.abs(d.rf_tilde) - 1.0)) <= 1e-12
        b = np.diag(d.baseband)
        assert np.array_equal(d.baseband, np.diag(b)) and np.all(b.real >= 0) and np.all(b.imag == 0)
        # Exact up to rounding, column by column (columns may differ by 60 orders of magnitude).
        err = np.abs(f - reconstruct(d))
        assert np.all(err <= 1e-14 * np.max(np.abs(f), axis=0)[None, :])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            decompose(np.array([[np.inf]], dtype=complex))


class TestReconstruct:
    def test_round_trip_many(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            f = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
            assert np.linalg.norm(f - reconstruct(decompose(f))) <= 1e-10

    def test_zero_baseband(self):
        d = decompose(np.zeros((4, 2), dtype=complex))
        assert np.allclose(reconstruct(d), 0.0)

    def test_equal_banks_double(self):
        f = np.full((3, 1), 0.5 + 0.0j)
        d = decompose(f)
        assert np.allclose(reconstruct(d), 2.0 * d.rf_bar @ d.baseband)


class TestPhaseShifterCount:
    def test_reference_architecture(self):
        assert phase_shifter_count(128, 4) == 1024

    def test_minimal(self):
        assert phase_shifter_count(1, 1) == 2

    def test_matches_fully_connected_budget(self):
        # Q=8 RF chains, 128 antennas: same phase-shifter count as 2*M*S with S=4.
        assert phase_shifter_count(128, 4) == 8 * 128

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            phase_shifter_count(0, 1)
