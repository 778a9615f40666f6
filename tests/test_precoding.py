import numpy as np
import pytest

from fapsim.errors import DegenerateChannelError, InvalidInputError
from fapsim.evaluation import achievable_rate
from fapsim.precoding import Precoder, PowerAllocation, optimal_precoder, water_fill

UNITARY = PowerAllocation("unitary")


def random_channel(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def grid_search_two_streams(s1, s2, snr, step=1e-4):
    """Brute-force power split for two streams on a uniform simplex grid."""
    a = np.arange(0.0, 1.0 + step / 2, step)
    rate = np.log2(1 + a * s1**2 * snr) + np.log2(1 + (1 - a) * s2**2 * snr)
    best = a[np.argmax(rate)]
    return np.array([best, 1.0 - best])


class TestWaterFill:
    def test_symmetric(self):
        assert np.allclose(water_fill([3.0, 3.0], 2.0), [0.5, 0.5])

    def test_zero_gain_stream(self):
        assert np.allclose(water_fill([1.0, 0.0], 1.0), [1.0, 0.0])

    def test_grid_oracle(self):
        # Analytic optimum for sigma=[2,1], snr=1 is [7/8, 1/8].
        p = water_fill([2.0, 1.0], 1.0)
        assert np.allclose(p, [0.875, 0.125], atol=1e-12)
        assert np.allclose(p, grid_search_two_streams(2.0, 1.0, 1.0), atol=1e-3)

    def test_grid_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            s = np.sort(rng.uniform(0.2, 3.0, 2))[::-1]
            snr = float(rng.uniform(0.1, 20.0))
            assert np.allclose(water_fill(s, snr),
                               grid_search_two_streams(s[0], s[1], snr), atol=1e-3)

    def test_sums_to_one(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            s = rng.uniform(0.0, 3.0, int(rng.integers(1, 6)))
            if not np.any(s > 0):
                continue
            p = water_fill(s, float(rng.uniform(0.05, 50.0)))
            assert np.all(p >= 0)
            assert np.sum(p) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateChannelError):
            water_fill([0.0, 0.0], 1.0)


class TestOptimalPrecoder:
    def test_symmetric_channel_unitary(self):
        f = optimal_precoder(np.eye(2), 2, UNITARY)
        assert np.allclose(np.abs(f.matrix), np.eye(2) / np.sqrt(2), atol=1e-12)

    def test_single_stream(self):
        rng = np.random.default_rng(30)
        h = random_channel(rng, 4, 6)
        f = optimal_precoder(h, 1, UNITARY)
        assert np.linalg.norm(f.matrix) == pytest.approx(1.0, abs=1e-12)
        # The single stream rides the dominant singular value.
        _, s, _ = np.linalg.svd(h)
        assert np.linalg.norm(h @ f.matrix) == pytest.approx(s[0], rel=1e-10)

    def test_water_filling_matches_grid(self):
        h = np.diag([2.0, 1.0]).astype(complex)
        f = optimal_precoder(h, 2, PowerAllocation("water_filling", total_power=1.0))
        power = np.sum(np.abs(f.matrix) ** 2, axis=0)
        assert np.allclose(power, grid_search_two_streams(2.0, 1.0, 1.0), atol=1e-3)

    def test_unit_norm_both_modes(self):
        rng = np.random.default_rng(31)
        for mode in ("unitary", "water_filling"):
            h = random_channel(rng, 5, 7)
            alloc = PowerAllocation(mode, total_power=2.0)
            f = optimal_precoder(h, 3, alloc)
            assert np.linalg.norm(f.matrix) == pytest.approx(1.0, abs=1e-9)

    def test_columns_orthogonal(self):
        rng = np.random.default_rng(32)
        h = random_channel(rng, 6, 9)
        f = optimal_precoder(h, 4, UNITARY).matrix
        gram = f.conj().T @ f
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-9

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(33)
        h = random_channel(rng, 4, 5)
        f = optimal_precoder(h, 2, UNITARY).matrix
        for j in range(2):
            i = int(np.argmax(np.abs(f[:, j])))
            assert abs(f[i, j].imag) <= 1e-12
            assert f[i, j].real >= 0

    def test_water_filling_beats_unitary(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            h = random_channel(rng, 4, 6)
            snr = float(rng.uniform(0.05, 10.0))
            fu = optimal_precoder(h, 3, UNITARY)
            fw = optimal_precoder(h, 3, PowerAllocation("water_filling", total_power=snr))
            ru = achievable_rate(h, fu.matrix, snr)
            rw = achievable_rate(h, fw.matrix, snr)
            assert rw >= ru - 1e-9

    def test_too_many_streams(self):
        with pytest.raises(InvalidInputError):
            optimal_precoder(np.eye(3), 4, UNITARY)

    def test_zero_channel(self):
        with pytest.raises(DegenerateChannelError):
            optimal_precoder(np.zeros((3, 3)), 2, UNITARY)

    def test_water_filling_rank_deficient(self):
        with pytest.raises(InvalidInputError):
            optimal_precoder(np.diag([1.0, 0.0]).astype(complex), 2,
                             PowerAllocation("water_filling"))


class TestPrecoderType:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            Precoder(np.ones((4, 2), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_norm(self, bad):
        f = np.full((4, 2), 1.0 / np.sqrt(8), dtype=complex)
        f[2, 1] = bad
        with pytest.raises(InvalidInputError):
            Precoder(f)

    def test_bad_allocation_mode(self):
        with pytest.raises(InvalidInputError):
            PowerAllocation("equal")
