import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fapsim import numerics
from fapsim.channel import ArrayGeometry, channel_from_paths
from fapsim.errors import DegenerateChannelError, InvalidInputError
from fapsim.evaluation import achievable_rate, ber_qpsk_mmse
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

    @pytest.mark.parametrize("sigma, snr, expected", [
        ([20.0, 10.0, 5.0, 1.0], 1e-20, [1.0, 0.0, 0.0, 0.0]),       # 1 + inv rounds to inv
        ([1.0, 0.5], 1.0 / (2.0 ** 53 + 2.0), [1.0, 0.0]),           # 1 + inv rounds up by 2
        ([3.0, 3.0, 1.0], 1e-300, [0.5, 0.5, 0.0]),
    ])
    def test_budget_kept_at_very_low_snr(self, sigma, snr, expected):
        assert water_fill(sigma, snr).tolist() == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("weak", [1e-160, 1e-200, 5e-324])
    def test_gain_too_small_to_invert_gets_nothing(self, weak):
        # 1 / weak^2 overflows or divides by an underflowed zero: an infinite floor, no warning.
        assert water_fill([1.0, weak], 1.0).tolist() == [1.0, 0.0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(sigma=st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100)), min_size=1, max_size=8)
           .filter(any),
           snr=st.floats(1e-300, 1e300))
    def test_budget_kept_at_any_snr(self, sigma, snr):
        p = water_fill(sigma, snr)
        assert np.all(p >= 0)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
        # Zero-gain channels get nothing, and a stronger channel never gets less power.
        by_strength = p[np.argsort(-np.asarray(sigma), kind="stable")]
        assert np.all(np.diff(by_strength) <= 0)
        assert np.all(p[np.asarray(sigma) == 0] == 0)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_budget_kept_when_no_gain_can_be_inverted(self):
        # Every 1 / sigma^2 overflows: the floors are measured against the strongest one.
        assert water_fill([1e-160, 1e-161], 1.0).tolist() == [1.0, 0.0]
        assert water_fill([1e-160, 1e-160], 1.0).tolist() == [0.5, 0.5]
        assert water_fill([5e-324, 0.0], 1e-300).tolist() == [1.0, 0.0]
        # Scaling sigma by c and snr by 1 / c^2 gives the same split (here both streams active).
        assert np.allclose(water_fill([7e-155, 6.93e-155], 1e308),
                           water_fill([1.0, 0.99], 1e308 * 7e-155 * 7e-155), rtol=1e-9, atol=0)


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

    @pytest.mark.parametrize("seed", range(8))
    def test_single_path_pivot_ignores_rounding(self, seed):
        # One path: the right singular vector is a steering vector, every entry of modulus
        # 1/sqrt(M), so only rounding separates them. A copy of H a few ulps away must give the
        # same phase pivot, so the same F_opt and the same BER counts.
        rng = np.random.default_rng(seed)
        gain = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        h = channel_from_paths(gain, rng.uniform(-0.7, 0.7, 1), rng.uniform(-3.0, 3.0, 1),
                               ArrayGeometry(8), ArrayGeometry(4))
        steps = rng.integers(-3, 4, size=h.shape + (2,))
        near = h.copy()
        near.real = h.real + steps[..., 0] * np.spacing(h.real)
        near.imag = h.imag + steps[..., 1] * np.spacing(h.imag)
        f, f_near = (optimal_precoder(x, 1, UNITARY).matrix for x in (h, near))
        assert np.abs(f - f_near).max() <= 1e-12
        assert np.abs(f[0, 0].imag) <= 1e-15 and f[0, 0].real > 0      # the lowest index
        counts = [ber_qpsk_mmse(x, y, 0.1, 1000, np.random.default_rng(7)) for x, y in
                  ((h, f), (near, f_near))]
        assert counts[0] == counts[1]

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

    def test_stream_count_is_checked_before_the_svd(self, monkeypatch):
        def no_svd(a):
            raise AssertionError("the SVD ran before num_streams was checked")
        monkeypatch.setattr(numerics, "svd", no_svd)
        for bad in (0, 4, 2.0, True, None):
            with pytest.raises(InvalidInputError, match=rf"num_streams must be in \[1, 3\], got {bad}"):
                optimal_precoder(np.eye(3), bad, UNITARY)

    @pytest.mark.parametrize("integer", [np.int8, np.uint16, np.int64])
    def test_numpy_stream_count_is_the_python_int(self, integer):
        # 1 / sqrt(S) of an int8 S would be a float16 stream power.
        h = np.random.default_rng(3).standard_normal((4, 6))
        assert np.array_equal(optimal_precoder(h, integer(3), UNITARY).matrix,
                              optimal_precoder(h, 3, UNITARY).matrix)

    def test_zero_channel(self):
        with pytest.raises(DegenerateChannelError):
            optimal_precoder(np.zeros((3, 3)), 2, UNITARY)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_water_filling_tiny_channel(self):
        # Equal, uninvertibly small gains: water-filling splits evenly, as unitary allocation does.
        h = 1e-160 * np.eye(3)
        f = optimal_precoder(h, 2, PowerAllocation("water_filling")).matrix
        assert np.allclose(f, optimal_precoder(h, 2, UNITARY).matrix, rtol=0, atol=1e-15)

    def test_water_filling_rank_deficient(self):
        # water_fill gives a zero singular value no power, so its column is exactly zero.
        f = optimal_precoder(np.diag([1.0, 0.0]).astype(complex), 2,
                             PowerAllocation("water_filling")).matrix
        assert np.array_equal(f, [[1.0, 0.0], [0.0, 0.0]])            # unit norm, one stream
        # Rank r = 2 < S = 4: two numerically zero singular values get zero columns, and the
        # first r columns are the r-stream water-filled precoder.
        rng = np.random.default_rng(35)
        h = random_channel(rng, 6, 2) @ random_channel(rng, 2, 8)
        for snr in (0.1, 1.0, 100.0):
            alloc = PowerAllocation("water_filling", total_power=snr)
            f = optimal_precoder(h, 4, alloc).matrix
            assert np.all(f[:, 2:] == 0)
            assert np.array_equal(f[:, :2], optimal_precoder(h, 2, alloc).matrix)
            assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


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
        with pytest.raises(InvalidInputError, match="^unknown allocation mode 'equal'$"):
            PowerAllocation("equal")

    def test_modes_are_a_class_attribute_not_a_field(self):
        assert PowerAllocation.MODES == ("unitary", "water_filling")
        assert [f.name for f in dataclasses.fields(PowerAllocation)] == ["mode", "total_power"]
