import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fapsim.channel import (ArrayGeometry, ChannelConfig, PathComponent, _steering_matrix,
                            array_response, channel_from_paths, reconstruct_from_paths,
                            sample_channel, substream)
from fapsim.errors import InvalidInputError


def small_config(**overrides):
    base = dict(
        tx=ArrayGeometry(32),
        rx=ArrayGeometry(8),
        num_clusters=4,
        rays_per_cluster=3,
    )
    base.update(overrides)
    return ChannelConfig(**base)


class TestArrayResponse:
    def test_broadside(self):
        v = array_response(ArrayGeometry(4, 0.5), 0.0)
        assert np.allclose(v, 0.5 * np.ones(4))

    def test_endfire_two_elements(self):
        v = array_response(ArrayGeometry(2, 0.5), np.pi / 2)
        assert np.allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 17, 128])
    def test_unit_norm(self, m):
        rng = np.random.default_rng(m)
        for angle in rng.uniform(-np.pi, np.pi, 100):
            assert abs(np.linalg.norm(array_response(ArrayGeometry(m), angle)) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 16, 128, 1024])
    @pytest.mark.parametrize("spacing", [0.01, 0.3, 0.5, 1.0, 7.3, 100.0])
    def test_separable_steering_is_the_direct_exponent(self, m, spacing):
        # exp(j b a x) exp(j c x) for element b a + c moves each entry by rounding only: a small
        # multiple of eps times the largest exponent |m x|, over sqrt(M).
        angles = np.concatenate([np.linspace(-np.pi, np.pi, 181),
                                 np.random.default_rng(m).uniform(-np.pi, np.pi, 64)])
        exponent = np.arange(m)[:, None] * (2.0 * np.pi * spacing * np.sin(angles))[None, :]
        direct = np.exp(1j * exponent) / np.sqrt(m)
        got = _steering_matrix(ArrayGeometry(m, spacing), angles)
        bound = 4 * np.finfo(float).eps * max(1.0, np.max(np.abs(exponent))) / np.sqrt(m)
        assert got.shape == direct.shape and got.flags.c_contiguous
        assert np.max(np.abs(got - direct)) <= bound

    def test_nonfinite_angle(self):
        with pytest.raises(InvalidInputError):
            array_response(ArrayGeometry(4), np.inf)


class TestSampleChannel:
    def test_single_path_closed_form(self):
        # One unit-gain path: H = sqrt(M*N) * h_r(aoa) * h_t(aod)^H.
        tx, rx = ArrayGeometry(16), ArrayGeometry(4)
        aod, aoa = 0.2, -0.7
        h = reconstruct_from_paths([PathComponent(1.0 + 0.0j, aod, aoa)], tx, rx)
        expected = np.sqrt(16 * 4) * np.outer(array_response(rx, aoa),
                                              array_response(tx, aod).conj())
        assert np.allclose(h, expected, atol=1e-12)

    def test_deterministic_given_seed(self):
        cfg = small_config()
        a = sample_channel(cfg, substream(123, 4))
        b = sample_channel(cfg, substream(123, 4))
        assert np.array_equal(a.matrix, b.matrix)
        for field in ("gains", "aod", "aoa"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_distinct_trials_differ(self):
        cfg = small_config()
        a = sample_channel(cfg, substream(123, 0))
        b = sample_channel(cfg, substream(123, 1))
        assert not np.array_equal(a.matrix, b.matrix)

    def test_path_count_and_sector_clamping(self):
        cfg = small_config(tx_sector=(-0.1, 0.1), angular_spread=1.0)
        ch = sample_channel(cfg, substream(3, 0))
        assert ch.gains.shape == ch.aod.shape == ch.aoa.shape == (cfg.num_paths,)
        assert np.all((-0.1 <= ch.aod) & (ch.aod <= 0.1))
        assert np.all((-np.pi <= ch.aoa) & (ch.aoa <= np.pi))

    def test_mean_frobenius_energy(self):
        # Unit-variance gains and unit-norm steering vectors give E||H||_F^2 = M*N.
        cfg = ChannelConfig(tx=ArrayGeometry(128), rx=ArrayGeometry(16),
                            num_clusters=12, rays_per_cluster=20)
        total = 0.0
        trials = 1000
        for t in range(trials):
            ch = sample_channel(cfg, substream(2024, t))
            total += np.linalg.norm(ch.matrix) ** 2
        mean = total / trials
        assert abs(mean - 128 * 16) < 0.05 * 128 * 16

    def test_rank_bounded_by_path_count(self):
        cfg = small_config(num_clusters=2, rays_per_cluster=2)
        ch = sample_channel(cfg, substream(9, 0))
        rank = np.linalg.matrix_rank(ch.matrix, tol=1e-9)
        assert rank <= min(8, 32, 4)


class TestReconstructFromPaths:
    def test_round_trip(self):
        cfg = small_config()
        ch = sample_channel(cfg, substream(17, 0))
        assert np.array_equal(channel_from_paths(ch.gains, ch.aod, ch.aoa, cfg.tx, cfg.rx), ch.matrix)
        paths = [PathComponent(complex(g), float(d), float(a))
                 for g, d, a in zip(ch.gains, ch.aod, ch.aoa)]
        assert np.array_equal(reconstruct_from_paths(paths, cfg.tx, cfg.rx), ch.matrix)

    def test_unit_gain_norm_identity(self):
        # One unit-gain path reconstructed with the full channel's path count
        # keeps the sqrt(M*N/(L*J)) scale.
        tx, rx = ArrayGeometry(16), ArrayGeometry(4)
        h = reconstruct_from_paths([PathComponent(1.0 + 0.0j, 0.3, 0.1)], tx, rx, total_paths=12)
        assert np.linalg.norm(h) == pytest.approx(np.sqrt(16 * 4 / 12), rel=1e-12)
        assert np.linalg.matrix_rank(h) == 1

    def test_strongest_subset_error_monotone(self):
        cfg = small_config()
        ch = sample_channel(cfg, substream(3, 0))
        order = np.argsort(-np.abs(ch.gains), kind="stable")
        errors = []
        for k in range(1, ch.gains.size + 1):
            subset = order[:k]
            approx = channel_from_paths(ch.gains[subset], ch.aod[subset], ch.aoa[subset],
                                        cfg.tx, cfg.rx, total_paths=ch.gains.size)
            errors.append(np.linalg.norm(ch.matrix - approx))
        assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))
        assert errors[-1] <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 128), n=st.integers(1, 16), paths=st.integers(1, 240),
           extra=st.sampled_from([None, 0, 7]), seed=st.integers(0, 2 ** 32 - 1))
    def test_is_the_conjugate_copy_product(self, m, n, paths, extra, seed):
        # H_t is conjugated in place; the product must keep the bytes of the copying form.
        rng = np.random.default_rng(seed)
        gains = rng.standard_normal(paths) + 1j * rng.standard_normal(paths)
        aod, aoa = rng.uniform(-np.pi, np.pi, (2, paths))
        tx, rx = ArrayGeometry(m), ArrayGeometry(n)
        total = None if extra is None else paths + extra
        scale = np.sqrt(m * n / (paths if total is None else total))
        expected = scale * ((_steering_matrix(rx, aoa) * gains) @ _steering_matrix(tx, aod).conj().T)
        assert channel_from_paths(gains, aod, aoa, tx, rx, total).tobytes() == expected.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            reconstruct_from_paths([], ArrayGeometry(4), ArrayGeometry(2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field, bad", [(name, value) for name in ("aod", "aoa")
                                            for value in (np.nan, np.inf, -np.inf)]
                             + [("total_paths", np.nan), ("total_paths", np.inf)])
    def test_nonfinite_path_rejected(self, field, bad):
        # Unchecked, a NaN angle or path count gives a NaN channel and an infinite angle a numpy
        # warning from sin; the path-list form inherits the check.
        paths = {"gain": 1.0 + 0.0j, "aod": 0.3, "aoa": 0.0}
        total = bad if field == "total_paths" else None
        if field != "total_paths":
            paths[field] = bad
        tx, rx = ArrayGeometry(4), ArrayGeometry(2)
        with pytest.raises(InvalidInputError, match="finite"):
            channel_from_paths([paths["gain"]], [paths["aod"]], [paths["aoa"]], tx, rx, total)
        with pytest.raises(InvalidInputError, match="finite"):
            reconstruct_from_paths([PathComponent(**paths)], tx, rx, total)


class TestConfigValidation:
    def test_bad_cluster_count(self):
        with pytest.raises(InvalidInputError):
            small_config(num_clusters=0)

    def test_bad_sector(self):
        with pytest.raises(InvalidInputError):
            small_config(tx_sector=(0.5, -0.5))

    def test_bad_geometry(self):
        with pytest.raises(InvalidInputError):
            ArrayGeometry(0)
        with pytest.raises(InvalidInputError):
            ArrayGeometry(4, -0.5)

    @pytest.mark.parametrize("field", ["tx", "rx"])
    @pytest.mark.parametrize("value", [8, None, "8", (8, 0.5), np.int64(8)])
    def test_arrays_must_be_geometries(self, field, value):
        # Refused by name at construction, not by an AttributeError at the first draw.
        with pytest.raises(InvalidInputError, match=f"^{field} must be an ArrayGeometry"):
            small_config(**{field: value})


class TestSubstream:
    def test_order_insensitive(self):
        a = substream(99, 7).standard_normal(4)
        _ = substream(99, 3).standard_normal(4)
        b = substream(99, 7).standard_normal(4)
        assert np.array_equal(a, b)

    def test_nested_keys_independent(self):
        a = substream(99, 1).standard_normal(4)
        b = substream(99, 1, 0).standard_normal(4)
        assert not np.array_equal(a, b)
