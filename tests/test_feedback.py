import dataclasses
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fapsim.channel import ArrayGeometry, array_response
from fapsim.errors import DomainError, InvalidInputError
from fapsim.feedback import (AngleCodebook, BasisSpec, ComplexCodebook, FeedbackReport, OmpPath,
                             _basis_columns, basis_matrix, build_report, deserialize_report, dictionary,
                             omp_approximate, overhead_bits, proposed_bits,
                             quantize_angles, reconstruct_precoder, serialize_report)
from fapsim.numerics import least_squares
from fapsim.precoding import Precoder

QUARTER = (-np.pi / 4, np.pi / 4)
IDEAL = ComplexCodebook.ideal()


def spec_of(m=16, size=8, gamma=1, sector=QUARTER):
    return BasisSpec(codebook=AngleCodebook(sector, size), tx=ArrayGeometry(m), gamma=gamma)


def atom_precoder(spec, index):
    column = array_response(spec.tx, spec.codebook.centers[index])
    return Precoder(column[:, None])


def random_precoder(rng, m, s):
    f = rng.standard_normal((m, s)) + 1j * rng.standard_normal((m, s))
    return Precoder(f / np.linalg.norm(f))


def random_complex(rng, shape, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


SEEDS = st.integers(0, 2 ** 32 - 1)
LEVELS = st.sampled_from([1, 2, 4, 8, 16, 32])
POLAR = st.builds(ComplexCodebook.uniform_polar, LEVELS, LEVELS)


class TestAngleCodebook:
    def test_centers_layout(self):
        cb = AngleCodebook(QUARTER, 4)
        assert cb.resolution == pytest.approx(np.pi / 8)
        assert np.allclose(np.rad2deg(cb.centers), [-33.75, -11.25, 11.25, 33.75])

    def test_size_must_be_power_of_two(self):
        with pytest.raises(InvalidInputError):
            AngleCodebook(QUARTER, 6)


class TestQuantizeAngle:
    def test_exact_center(self):
        cb = AngleCodebook(QUARTER, 4)
        assert quantize_angles(cb, np.deg2rad(-33.75)) == 0

    def test_tie_breaks_low(self):
        cb = AngleCodebook(QUARTER, 4)
        assert quantize_angles(cb, 0.0) == 1
        assert quantize_angles(cb, [0.0, -np.pi / 8]).tolist() == [1, 0]

    def test_exhaustive_oracle(self):
        cb = AngleCodebook(QUARTER, 16)
        rng = np.random.default_rng(40)
        angles = rng.uniform(*QUARTER, 1000)
        chosen = quantize_angles(cb, angles)
        assert chosen.shape == angles.shape
        for angle, pick in zip(angles, chosen):
            best, best_dist = 0, np.inf
            for i, center in enumerate(cb.centers):
                if abs(angle - center) < best_dist:
                    best, best_dist = i, abs(angle - center)
            assert pick == best

    def test_clamps_outside_sector(self):
        cb = AngleCodebook(QUARTER, 8)
        assert quantize_angles(cb, [2.0, -2.0, np.pi / 4]).tolist() == [7, 0, 7]


class TestComplexCodebook:
    def test_ideal_passes_values_through(self):
        values = random_complex(np.random.default_rng(44), (3, 2))
        quantized, scale = ComplexCodebook.ideal().quantize(values)
        assert quantized is values and scale is None

    @settings(max_examples=200, deadline=None)
    @given(cc=POLAR, seed=SEEDS, shape=st.tuples(st.integers(1, 6), st.integers(1, 4)),
           exponent=st.integers(-6, 6))
    def test_grid_values_are_fixed_points(self, cc, seed, shape, exponent):
        # The serializer re-encodes values that are already on the grid, so
        # quantizing at a fixed range must be idempotent for the wire format
        # to be exact.
        values = random_complex(np.random.default_rng(seed), shape, 10.0 ** exponent)
        quantized, scale = cc.quantize(values)
        assert scale == np.max(np.abs(values))
        words = cc.encode(values, scale)
        assert words.shape == shape
        assert 0 <= words.min() and words.max() < 2 ** cc.bits_per_value
        assert np.array_equal(cc.decode(words, scale), quantized)
        assert np.array_equal(cc.encode(quantized, scale), words)
        assert np.array_equal(cc.decode(cc.encode(quantized, scale), scale), quantized)

    def test_modes_are_a_class_attribute_not_a_field(self):
        assert ComplexCodebook.MODES == ("ideal", "uniform_polar")
        assert [f.name for f in dataclasses.fields(ComplexCodebook)] == [
            "mode", "magnitude_levels", "phase_levels"]

    def test_unknown_mode_names_every_mode(self):
        with pytest.raises(InvalidInputError, match="^unknown complex codebook mode 'polar'") as exc:
            ComplexCodebook("polar")
        assert all(repr(mode) in str(exc.value) for mode in ComplexCodebook.MODES)


class TestBasisSpec:
    @pytest.mark.parametrize("gamma", [0, 2.5, 2.0, "2"])
    def test_gamma_must_be_a_positive_integer(self, gamma):
        with pytest.raises(InvalidInputError, match="gamma must be an integer >= 1"):
            spec_of(gamma=gamma)

    def test_numpy_integer_gamma_accepted(self):
        assert spec_of(gamma=np.int64(2)).gamma == 2


class TestBasisMatrix:
    def test_single_beam_is_array_response(self):
        spec = spec_of(m=16, size=8)
        psi = dictionary(spec)
        for i, center in enumerate(spec.codebook.centers):
            assert np.allclose(psi[:, i], array_response(spec.tx, center), atol=1e-13)

    def test_two_beam_hand_formula(self):
        spec = spec_of(m=2, size=4, gamma=2)
        dphi = spec.codebook.resolution
        phi = spec.codebook.centers[1]
        expected = (array_response(spec.tx, phi - dphi / 6)
                    + array_response(spec.tx, phi + dphi / 6)) / np.sqrt(2)
        assert np.allclose(basis_matrix(spec, [phi])[:, 0], expected, atol=1e-13)

    @pytest.mark.parametrize("gamma", [2, 4])
    def test_column_norm_cauchy_schwarz(self, gamma):
        # ||(1/sqrt(G)) sum of G unit vectors|| <= sqrt(G), equality iff the
        # beams coincide; distinct in-sub-sector beams stay strictly below.
        spec = spec_of(m=32, size=16, gamma=gamma)
        psi = dictionary(spec)
        norms = np.linalg.norm(psi, axis=0)
        assert np.all(norms <= np.sqrt(gamma) + 1e-12)
        assert np.all(norms < np.sqrt(gamma))
        # Gram-sum oracle: ||col||^2 = (1/G) sum_{g,g'} <h_g, h_g'>.
        dphi = spec.codebook.resolution
        offsets = -dphi / 2 + np.arange(1, gamma + 1) * dphi / (gamma + 1)
        for k, center in enumerate(spec.codebook.centers):
            beams = np.stack([array_response(spec.tx, center + off) for off in offsets], axis=1)
            gram = beams.conj().T @ beams
            assert norms[k] ** 2 == pytest.approx(np.sum(gram).real / gamma, abs=1e-10)

    def test_empty_angles_rejected(self):
        with pytest.raises(InvalidInputError):
            basis_matrix(spec_of(), [])


class TestDictionaryCache:
    @pytest.mark.parametrize("gamma", [1, 2, 4])
    def test_bitwise_equal_to_basis_matrix(self, gamma):
        spec = spec_of(m=32, size=16, gamma=gamma)
        psi = dictionary(spec)
        assert np.array_equal(psi, basis_matrix(spec, spec.codebook.centers))
        idx = [11, 2, 7]
        assert np.array_equal(psi[:, idx], basis_matrix(spec, spec.codebook.centers[idx]))

    def test_read_only(self):
        psi = dictionary(spec_of())
        assert not psi.flags.writeable
        with pytest.raises(ValueError):
            psi[0, 0] = 0.0

    def test_list_sector_hits_same_entry(self):
        first = dictionary(spec_of(m=20, size=8, sector=(-0.5, 0.5)))
        second = dictionary(spec_of(m=20, size=8, sector=[-0.5, 0.5]))
        assert second is first

    def test_equal_specs_are_one_cache_key(self):
        # The cache is keyed on the spec itself: list, tuple and numpy sectors give equal specs.
        specs = [spec_of(m=20, size=8, sector=sector)
                 for sector in ((-0.5, 0.5), [-0.5, 0.5], np.array([-0.5, 0.5]))]
        assert specs[0].codebook.sector == (-0.5, 0.5)
        assert specs[0] == specs[1] == specs[2]
        assert len({hash(spec) for spec in specs}) == 1

    def test_gammas_get_separate_entries(self):
        g1 = dictionary(spec_of(m=20, size=8, gamma=1))
        g2 = dictionary(spec_of(m=20, size=8, gamma=2))
        assert g1 is not g2
        assert not np.array_equal(g1, g2)
        assert dictionary(spec_of(m=20, size=8, gamma=1)) is g1

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(8, 128), log_size=st.integers(4, 8), gamma=st.sampled_from([1, 2, 4]),
           data=st.data())
    def test_column_read_is_the_dictionary_selection(self, m, log_size, gamma, data):
        # The rebuilds read Psi's columns off the cached Psi^H. Same bytes and same strides as
        # the selection from Psi (F-ordered: the transpose of a C-ordered K x M copy), so the
        # products taken with them make the same BLAS calls, for unsorted and repeated picks.
        spec = spec_of(m=m, size=2 ** log_size, gamma=gamma)
        idx = data.draw(st.lists(st.integers(0, 2 ** log_size - 1), min_size=1, max_size=24))
        got, expected = _basis_columns(spec, tuple(idx)), dictionary(spec)[:, idx]
        assert got.tobytes() == expected.tobytes()
        assert got.strides == expected.strides and got.T.flags.c_contiguous


class TestOmp:
    def test_atom_recovery(self):
        spec = spec_of(m=16, size=8)
        f_opt = atom_precoder(spec, 5)
        indices, g, history = omp_approximate(f_opt, spec, 1)
        assert indices == (5,)
        assert history[0] <= 1e-9
        assert g.shape == (1, 1)
        assert abs(abs(g[0, 0]) - 1.0) <= 1e-9

    def test_early_stop_returns_fewer(self):
        spec = spec_of(m=16, size=8)
        indices, _, history = omp_approximate(atom_precoder(spec, 2), spec, 3)
        assert indices == (2,)
        assert len(history) == 1

    def test_history_non_increasing_and_prefix_oracle(self):
        rng = np.random.default_rng(41)
        spec = spec_of(m=24, size=16)
        f_opt = random_precoder(rng, 24, 3)
        indices, _, history = omp_approximate(f_opt, spec, 6)
        assert all(history[i + 1] <= history[i] + 1e-12 for i in range(len(history) - 1))
        psi = dictionary(spec)
        for i in range(len(indices)):
            atoms = psi[:, list(indices[:i + 1])]
            g = least_squares(atoms, f_opt.matrix)
            resid = np.linalg.norm(f_opt.matrix - atoms @ g)
            assert history[i] == pytest.approx(resid, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, m=st.integers(2, 24), s=st.integers(1, 3), size_bits=st.integers(1, 6),
           gamma=st.integers(1, 3), k=st.integers(1, 16))
    def test_residual_history_never_increases(self, seed, m, s, size_bits, gamma, k):
        spec = spec_of(m=m, size=2 ** size_bits, gamma=gamma)
        f_opt = random_precoder(np.random.default_rng(seed), m, min(s, m))
        _, _, history = omp_approximate(f_opt, spec, min(k, spec.codebook.size))
        assert all(later <= earlier + 1e-12 for earlier, later in zip(history, history[1:]))

    def test_no_duplicate_selection(self):
        rng = np.random.default_rng(42)
        spec = spec_of(m=16, size=8)
        indices, _, _ = omp_approximate(random_precoder(rng, 16, 2), spec, 8)
        assert len(set(indices)) == len(indices)

    def test_full_span_projection_oracle(self):
        rng = np.random.default_rng(43)
        spec = spec_of(m=16, size=8)
        f_opt = random_precoder(rng, 16, 2)
        _, _, history = omp_approximate(f_opt, spec, 8)
        psi = dictionary(spec)
        proj_err = np.linalg.norm(f_opt.matrix - psi @ (np.linalg.pinv(psi) @ f_opt.matrix))
        assert history[-1] == pytest.approx(proj_err, abs=1e-9)

    def test_pair_matches_rerun(self):
        rng = np.random.default_rng(44)
        spec = spec_of(m=16, size=8)
        f_opt = random_precoder(rng, 16, 2)
        first = omp_approximate(f_opt, spec, 2)
        second = omp_approximate(f_opt, spec, 2)
        assert first[0] == second[0]
        assert first[2][-1] == pytest.approx(second[2][-1], abs=1e-14)

    def test_distinct_atoms_exact_recovery(self):
        spec = spec_of(m=64, size=16)
        picks = [2, 7, 12]
        cols = np.stack([array_response(spec.tx, spec.codebook.centers[i]) for i in picks], axis=1)
        f_opt = Precoder(cols / np.linalg.norm(cols))
        indices, _, history = omp_approximate(f_opt, spec, 3)
        assert sorted(indices) == picks
        assert history[-1] <= 1e-8

    def test_k_out_of_range(self):
        spec = spec_of(size=8)
        with pytest.raises(InvalidInputError):
            omp_approximate(atom_precoder(spec, 0), spec, 9)


def orthogonal_to_dictionary(spec, rng, s=1):
    """Unit-norm M x s target whose columns are orthogonal to every dictionary column."""
    psi = dictionary(spec)
    v = random_complex(rng, (spec.tx.num_elements, s))
    v = v - psi @ least_squares(psi, v)
    return v / np.linalg.norm(v)


def omp_or_error(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def assert_same_omp(got, expected):
    indices, g, history = got
    assert indices == expected[0]
    assert g.shape == expected[1].shape and g.tobytes() == expected[1].tobytes()
    assert history == expected[2]


def lstsq_omp(f, psi, k):
    """Straight-line OMP: per pick, lstsq over every picked column, then the residual.

    Returns the picks, the unit-norm fit and residual norm after each, how many leading picks
    rounding cannot move (a correlation lead over the runner-up above 1e-9 ||r||^2, and a
    residual norm not within a factor 1e3 of the zero-residual stop), and whether that is all
    of the run, its stop included.
    """
    picks, fits, norms, r = [], [], [], f
    while len(picks) < k:
        corr = np.sum(np.abs(psi.conj().T @ r) ** 2, axis=1)
        top = np.sort(corr)[::-1]
        if len(top) > 1 and top[0] - top[1] <= 1e-9 * np.linalg.norm(r) ** 2:
            return picks, fits, norms, len(picks), False
        pick = int(np.argmax(corr))
        if pick in picks:
            break
        picks.append(pick)
        atoms = psi[:, picks]
        fit = atoms @ np.linalg.lstsq(atoms, f, rcond=None)[0]
        r = f - fit
        fits.append(fit / np.linalg.norm(fit))
        norms.append(np.linalg.norm(r))
        if 1e-15 < norms[-1] < 1e-9:
            return picks, fits, norms, len(picks), False
        if norms[-1] <= 1e-12:
            break
    return picks, fits, norms, len(picks), True


def assert_stack_runs_single_paths(spec, targets, k, same_picks, compared=None):
    """A stacked `OmpPath` against one path per target: per `compared` target (default all),
    the picks (as judged by `same_picks`), the stopped state, G within 1e-12 of its norm and
    every residual norm within 1e-12 of ||F|| = 1. A RuntimeWarning is an error. Returns the
    stack."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stack = OmpPath(targets, spec, k)
        for p in range(len(targets)) if compared is None else compared:
            single = OmpPath(targets[p], spec, k)
            got, expected = omp_or_error(stack.at, k, p), omp_or_error(single.at, k)
            state = (int(stack._count[p]), bool(stack._running[p]))
            assert state == (int(single._count[0]), bool(single._running[0]))
            if expected is DomainError:
                assert got is DomainError
                continue
            assert same_picks(got[0], expected[0]), (got[0], expected[0])
            assert np.linalg.norm(got[1] - expected[1]) <= 1e-12 * np.linalg.norm(expected[1])
            assert len(got[2]) == len(expected[2])
            assert np.all(np.abs(np.subtract(got[2], expected[2])) <= 1e-12)
    return stack


class TestOmpPath:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, m=st.integers(1, 24), s=st.integers(1, 3), size_bits=st.integers(1, 6),
           gamma=st.sampled_from([1, 2]), target=st.sampled_from(["random", "atom", "atom+orth"]),
           k=st.integers(1, 64))
    def test_picks_fits_and_history_match_straight_line_omp(self, seed, m, s, size_bits, gamma,
                                                            target, k):
        spec = spec_of(m=m, size=2 ** size_bits, gamma=gamma)
        rng = np.random.default_rng(seed)
        k = min(k, spec.codebook.size)                     # K > M when the codebook allows it
        if target == "random":
            f_opt = random_precoder(rng, m, min(s, m))
        else:
            f = atom_precoder(spec, int(rng.integers(spec.codebook.size))).matrix
            if target == "atom+orth" and m > spec.codebook.size:
                f = f + orthogonal_to_dictionary(spec, rng)
            f_opt = Precoder(f / np.linalg.norm(f))
        psi = dictionary(spec)
        picks, fits, norms, sure, whole = lstsq_omp(f_opt.matrix, psi, k)
        path = OmpPath(f_opt, spec, k)
        indices, _, history = path.at(k)
        assert indices[:sure] == tuple(picks[:sure])
        assert not whole or len(indices) == len(picks)
        assert np.allclose(history[:sure], norms[:sure], rtol=0, atol=1e-9)
        for j in range(1, sure + 1):
            idx, g, _ = path.at(j)
            assert np.linalg.norm(psi[:, list(idx)] @ g - fits[j - 1]) <= 1e-9

    @settings(max_examples=120, deadline=None)
    @given(seed=SEEDS, m=st.integers(2, 24), s=st.integers(1, 3), size_bits=st.integers(1, 5),
           gamma=st.sampled_from([1, 2]), target=st.sampled_from(["random", "atom", "atom+orth"]),
           ks=st.lists(st.integers(1, 32), min_size=1, max_size=5),
           order=st.sampled_from(["drawn", "descending"]))
    def test_every_k_bitwise_equals_a_run_stopped_there(self, seed, m, s, size_bits, gamma, target,
                                                        ks, order):
        # "atom" stops at a zero residual when gamma = 1; "atom+orth" leaves a residual orthogonal
        # to every column, where the greedy pick is rounding noise and may repeat a column.
        spec = spec_of(m=m, size=2 ** size_bits, gamma=gamma)
        rng = np.random.default_rng(seed)
        ks = [min(k, spec.codebook.size) for k in ks]
        if order == "descending":
            ks.sort(reverse=True)
        ks.append(ks[0])                                   # always one repeat
        if target == "random":
            f_opt = random_precoder(rng, m, min(s, m))
        else:
            f = atom_precoder(spec, int(rng.integers(spec.codebook.size))).matrix
            if target == "atom+orth" and m > spec.codebook.size:
                f = f + orthogonal_to_dictionary(spec, rng)
            f_opt = Precoder(f / np.linalg.norm(f))
        path = OmpPath(f_opt, spec, max(ks))
        for k in ks:
            got, expected = omp_or_error(path.at, k), omp_or_error(omp_approximate, f_opt, spec, k)
            if expected is DomainError:
                assert got is DomainError
            else:
                assert_same_omp(got, expected)
                assert len(set(got[0])) == len(got[0]) == len(got[2]) <= k

    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, m=st.integers(1, 24), s=st.integers(1, 3), size_bits=st.integers(1, 6),
           gamma=st.sampled_from([1, 2]),
           kinds=st.lists(st.sampled_from(["random", "atom"]), min_size=1, max_size=6),
           k=st.integers(1, 64))
    def test_a_stack_runs_each_target_as_its_own_path(self, seed, m, s, size_bits, gamma, kinds, k):
        # An atom target (a dictionary column in its first stream, zeros beside it) stops at a
        # zero residual after one pick while the random targets beside it run on. A target
        # whose run meets a correlation tie (the straight-line OMP's margin) is left out of the
        # comparison, as rounding picks there; it still runs in the stack.
        spec = spec_of(m=m, size=2 ** size_bits, gamma=gamma)
        rng, psi = np.random.default_rng(seed), dictionary(spec)
        s = min(s, m)
        targets = []
        for kind in ["atom"] + kinds:
            if kind == "random":
                targets.append(random_precoder(rng, m, s))
            else:
                f = np.zeros((m, s), complex)
                f[:, 0] = psi[:, rng.integers(spec.codebook.size)]
                targets.append(Precoder(f / np.linalg.norm(f)))
        k = min(k, spec.codebook.size)
        clear = [p for p, f in enumerate(targets) if lstsq_omp(f.matrix, psi, k)[4]]
        assert_stack_runs_single_paths(spec, targets, k, tuple.__eq__, clear)

    @pytest.mark.parametrize("seed", range(6))
    def test_a_stack_stops_each_target_inside_the_span(self, seed):
        # Columns 0 and 1 coincide, and so do 2 and 3 (see the test below): every target stops
        # once its picks span the dictionary, and which twin it picks is rounding's choice.
        codebook = AngleCodebook((-np.pi / 2, np.pi / 2), 4)
        spacing = 1.0 / (np.sin(codebook.centers[1]) - np.sin(codebook.centers[0]))
        spec = BasisSpec(codebook=codebook, tx=ArrayGeometry(4, spacing))
        psi, rng = dictionary(spec), np.random.default_rng(seed)
        targets = [random_precoder(rng, 4, 2) for _ in range(3)]
        for j in range(2):
            f = (psi[:, 2 * j] + psi[:, 1])[:, None] + orthogonal_to_dictionary(spec, rng)
            targets.append(Precoder(np.hstack([f, orthogonal_to_dictionary(spec, rng)]) / np.sqrt(
                np.linalg.norm(f) ** 2 + 1.0)))

        def same_atoms(got, expected):
            return np.allclose(psi[:, list(got)], psi[:, list(expected)], rtol=0, atol=1e-12)
        stack = assert_stack_runs_single_paths(spec, targets, 4, same_atoms)
        assert not stack._running.any() and stack._count.max() == 2

    @pytest.mark.parametrize("order", [(3, 1, 3, 5), (5, 1, 3), (1, 2, 3, 4, 5)])
    def test_construction_makes_every_pick_and_at_none(self, monkeypatch, order):
        # A random target runs to the path's K = 5; an atom target (a dictionary column in its
        # first stream, zeros beside it) stops at a zero residual after one pick. Alone, the
        # atom stops the whole run there.
        picks = []                                         # picks already made, at each pick

        def counting(path):
            picks.append(path._steps)
            pick(path)

        pick = OmpPath._pick
        monkeypatch.setattr(OmpPath, "_pick", counting)
        spec = spec_of(m=32, size=64)
        atom = np.zeros((32, 2), complex)
        atom[:, 0] = dictionary(spec)[:, 7]
        targets = [random_precoder(np.random.default_rng(50), 32, 2), Precoder(atom)]
        for stack, made, counts in ((targets, [0, 1, 2, 3, 4], [5, 1]), (targets[1:], [0], [1])):
            picks.clear()
            path = OmpPath(stack, spec, 5)
            assert picks == made and path._count.tolist() == counts
            for k in order:
                for p in range(len(stack)):
                    path.at(k, p)
            assert picks == made

    @pytest.mark.parametrize("gamma", [1, 2])
    def test_ties_go_to_the_lowest_index(self, gamma):
        # One antenna: every column is the same number, so every correlation ties exactly.
        spec = spec_of(m=1, size=8, gamma=gamma)
        assert OmpPath(Precoder(np.array([[1j]])), spec, 3).at(3)[0] == (0,)

    @settings(max_examples=60, deadline=None)
    @given(seed=SEEDS, m=st.sampled_from([16, 32, 64, 128]), size_bits=st.integers(4, 8),
           gamma=st.sampled_from([1, 2, 4]), atoms=st.integers(2, 3), position=st.integers(0, 15))
    def test_tied_picks_do_not_depend_on_the_stack(self, seed, m, size_bits, gamma, atoms,
                                                   position):
        # f = psi_i + e^{j theta} psi_j (+ a third atom): columns i and j tie up to rounding, and
        # a one-row product (P = 1, or one target left running) rounds otherwise than a product
        # of several rows. Within OMP_TIE_RTOL the pick is the lowest index in either case.
        spec = spec_of(m=m, size=2 ** size_bits, gamma=gamma)
        rng = np.random.default_rng(seed)
        columns = rng.choice(spec.codebook.size, atoms, replace=False)
        f = dictionary(spec)[:, columns] @ np.exp(2j * np.pi * rng.random(atoms))
        target = Precoder(f[:, None] / np.linalg.norm(f))
        expected = omp_approximate(target, spec, 8)
        for p in (1, 2, 16):
            stack = [random_precoder(rng, m, 1) for _ in range(p - 1)]
            stack.insert(position % p, target)
            assert_same_omp(OmpPath(stack, spec, 8).at(8, position % p), expected)

    def test_a_pick_inside_the_span_stops_the_run(self):
        # At d/lambda = 1 / (sin c1 - sin c0) columns 0 and 1 coincide, and so do 2 and 3. Once
        # one column of each pair is picked, the residual is orthogonal to every column and the
        # next pick is rounding noise: a repeat, or the twin of a picked column. Both stop.
        codebook = AngleCodebook((-np.pi / 2, np.pi / 2), 4)
        spacing = 1.0 / (np.sin(codebook.centers[1]) - np.sin(codebook.centers[0]))
        spec = BasisSpec(codebook=codebook, tx=ArrayGeometry(4, spacing))
        psi = dictionary(spec)
        target = psi[:, 0] + psi[:, 2]
        for seed in range(12):
            f = target[:, None] + orthogonal_to_dictionary(spec, np.random.default_rng(seed))
            indices, g, history = OmpPath(Precoder(f / np.linalg.norm(f)), spec, 4).at(4)
            assert len(indices) == 2 and {i // 2 for i in indices} == {0, 1}
            fit = psi[:, list(indices)] @ g
            assert np.linalg.norm(fit[:, 0] - target / np.linalg.norm(target)) <= 1e-9
            assert history[-1] == pytest.approx(1.0 / np.linalg.norm(f), abs=1e-9)

    def test_zero_residual_stop_serves_every_larger_k(self):
        spec = spec_of(m=16, size=8, gamma=1)
        path = OmpPath(atom_precoder(spec, 2), spec, 5)
        for k in (5, 3):
            assert_same_omp(path.at(k), path.at(1))
        assert path.at(5)[0] == (2,) and len(path.at(5)[2]) == 1

    def test_prefixes_of_one_run(self):
        rng = np.random.default_rng(48)
        spec = spec_of(m=32, size=64, gamma=2)
        path = OmpPath(random_precoder(rng, 32, 3), spec, 16)
        full = path.at(16)
        assert path.at(6)[0] == full[0][:6] and path.at(8)[0] == full[0][:8]
        assert path.at(6)[2] == full[2][:6] and path.at(8)[2] == full[2][:8]

    def test_returned_history_is_a_copy(self):
        spec = spec_of(m=24, size=16)
        f_opt = random_precoder(np.random.default_rng(51), 24, 2)
        path = OmpPath(f_opt, spec, 4)
        path.at(4)[2].append(-1.0)
        assert path.at(4)[2] == omp_approximate(f_opt, spec, 4)[2]

    def test_no_energy_is_the_same_domain_error(self):
        spec = spec_of(m=16, size=8)
        f_opt = Precoder(orthogonal_to_dictionary(spec, np.random.default_rng(49), s=2))
        path = OmpPath(f_opt, spec, 4)
        for read in (lambda: path.at(1), lambda: path.at(4), lambda: omp_approximate(f_opt, spec, 4)):
            with pytest.raises(DomainError, match="carries no energy"):
                read()

    def test_k_out_of_range(self):
        spec = spec_of(size=8)
        path = OmpPath(atom_precoder(spec, 0), spec, 8)
        path.at(2)
        for k in (9, 0):
            with pytest.raises(InvalidInputError, match=rf"k must be in \[1, 8\], got {k}"):
                path.at(k)

    @pytest.mark.parametrize("k", [0, 9])
    def test_construction_k_out_of_range(self, k):
        spec = spec_of(size=8)
        with pytest.raises(InvalidInputError, match=rf"k must be in \[1, 8\], got {k}"):
            OmpPath(atom_precoder(spec, 0), spec, k)

    @pytest.mark.parametrize("path_k, k", [(1, 2), (3, 4), (3, 8)])
    def test_k_above_the_path_k_is_refused(self, path_k, k):
        spec = spec_of(m=16, size=8)
        path = OmpPath(random_precoder(np.random.default_rng(52), 16, 2), spec, path_k)
        path.at(path_k)
        with pytest.raises(InvalidInputError, match=rf"k must be in \[1, {path_k}\], got {k}"):
            path.at(k)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_k_above_m_stops_at_m_picks(self, seed):
        # M = 8 antennas, K = 12: the path holds 8 picks per target, and 8 picks span the array.
        spec = spec_of(m=8, size=16)
        targets = [random_precoder(np.random.default_rng(seed), 8, 1), atom_precoder(spec, 3)]
        path = OmpPath(targets, spec, 12)
        for p, f_opt in enumerate(targets):
            got = path.at(12, p)
            assert len(got[0]) <= 8 and path._count[p] <= 8
            assert_same_omp(got, omp_approximate(f_opt, spec, 12))
            assert_same_omp(got, OmpPath(f_opt, spec, 8).at(8))


class TestBuildReport:
    def test_ideal_passthrough(self):
        rng = np.random.default_rng(45)
        spec = spec_of(m=24, size=16)
        f_opt = random_precoder(rng, 24, 2)
        _, g, _ = omp_approximate(f_opt, spec, 4)
        report = build_report(f_opt, spec, 4, ComplexCodebook.ideal())
        assert np.array_equal(report.combining, g)
        assert report.bits_amplitudes == 0
        assert report.bits_angles == 4 * 4
        assert report.magnitude_scale is None

    def test_table_bit_arithmetic(self):
        rng = np.random.default_rng(46)
        spec = spec_of(m=64, size=256, sector=QUARTER)
        f_opt = random_precoder(rng, 64, 4)
        cc = ComplexCodebook.uniform_polar(16, 16)     # |Cc| = 2^8
        report = build_report(f_opt, spec, 16, cc)
        assert report.bits_angles == 128
        assert report.bits_amplitudes == 512

    def test_quantization_error_bound(self):
        rng = np.random.default_rng(47)
        spec = spec_of(m=8, size=8)
        f_opt = random_precoder(rng, 8, 1)
        cc = ComplexCodebook.uniform_polar(2, 2)       # four-point codebook
        ideal = build_report(f_opt, spec, 2, ComplexCodebook.ideal())
        quant = build_report(f_opt, spec, 2, cc)
        assert quant.combining.shape == (2, 1)

        gmax = quant.magnitude_scale
        dm = gmax / cc.magnitude_levels
        dp = 2 * np.pi / cc.phase_levels
        delta = quant.combining - ideal.combining
        # per-entry cell bound: magnitude half-cell plus worst-case arc length
        assert np.all(np.abs(delta) <= dm / 2 + gmax * dp / 2 + 1e-12)
        # enumeration: the chosen point is the nearest of the four codebook points
        mags = (np.arange(2) + 0.5) * dm
        phases = -np.pi + (np.arange(2) + 0.5) * dp
        points = np.array([m * np.exp(1j * p) for m in mags for p in phases])
        for value, chosen in zip(ideal.combining.ravel(), quant.combining.ravel()):
            assert abs(value - chosen) <= np.min(np.abs(value - points)) + 1e-12

        psi = basis_matrix(spec, spec.codebook.centers[list(quant.angle_indices)])
        err_ideal = np.linalg.norm(f_opt.matrix - reconstruct_precoder(ideal, spec).matrix)
        err_quant = np.linalg.norm(f_opt.matrix - reconstruct_precoder(quant, spec).matrix)
        assert err_quant <= err_ideal + 2 * np.linalg.norm(psi @ delta) + 1e-12

    def test_early_stop_shrinks_bits(self):
        spec = spec_of(m=16, size=8)
        report = build_report(atom_precoder(spec, 3), spec, 4, ComplexCodebook.ideal())
        assert report.k == 1
        assert report.bits_angles == 3


class TestReconstructPrecoder:
    def test_round_trip_unit_norm(self):
        rng = np.random.default_rng(50)
        spec = spec_of(m=24, size=16)
        report = build_report(random_precoder(rng, 24, 2), spec, 5, ComplexCodebook.ideal())
        f_hat = reconstruct_precoder(report, spec)
        assert np.linalg.norm(f_hat.matrix) == pytest.approx(1.0, abs=1e-9)

    def test_atom_case_recovers_input(self):
        spec = spec_of(m=16, size=8)
        f_opt = atom_precoder(spec, 4)
        report = build_report(f_opt, spec, 1, ComplexCodebook.ideal())
        f_hat = reconstruct_precoder(report, spec)
        assert np.linalg.norm(f_hat.matrix - f_opt.matrix) <= 1e-9

    def test_index_out_of_range(self):
        # The report's constructor is the one check of its indices.
        spec = spec_of(size=8)
        for indices in [(8,), (-1,), (0, 8), ()]:
            combining = np.ones((len(indices), 1), dtype=complex)
            with pytest.raises(InvalidInputError, match=r"non-empty and in \[0, 8\)"):
                FeedbackReport(angle_indices=indices, combining=combining, spec=spec, coeff_codebook=IDEAL)

    def test_gamma_mismatch(self):
        spec = spec_of(size=8, gamma=2)
        bad = FeedbackReport(angle_indices=(1,), combining=np.ones((1, 1), dtype=complex),
                             spec=spec_of(size=8, gamma=1), coeff_codebook=IDEAL)
        with pytest.raises(InvalidInputError, match="report was made under"):
            reconstruct_precoder(bad, spec)

    def test_k_is_the_index_count(self):
        report = FeedbackReport(angle_indices=(1, 5, 2), combining=np.ones((3, 1), dtype=complex),
                                spec=spec_of(size=8), coeff_codebook=IDEAL)
        assert report.k == 3
        assert (report.gamma, report.bits_angles, report.bits_amplitudes) == (1, 9, 0)

    def test_stores_only_its_shared_state(self):
        # gamma, K and the bit counts are derived from the spec and codebook, never stored.
        assert [f.name for f in dataclasses.fields(FeedbackReport)] == [
            "angle_indices", "combining", "spec", "coeff_codebook", "magnitude_scale"]
        cc = ComplexCodebook.uniform_polar(16, 16)
        report = FeedbackReport(angle_indices=(3, 4), combining=np.ones((2, 3), dtype=complex),
                                spec=spec_of(size=64, gamma=4), coeff_codebook=cc, magnitude_scale=1.0)
        assert (report.k, report.gamma) == (2, 4)
        bits = proposed_bits(2, 3, report.spec.codebook, cc)
        assert (report.bits_angles, report.bits_amplitudes) == bits
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.gamma = 2

    def test_huge_magnitude_range_is_a_report_error(self):
        # A decodable 1 x 1 report whose magnitude range is 1.7e308 overflows the rebuild at M = 8.
        spec, cc = spec_of(m=8, size=16), ComplexCodebook.uniform_polar(2, 2)
        combining, scale = cc.quantize(np.array([[1.7e308 + 0j]]))
        huge = FeedbackReport(angle_indices=(3,), combining=combining, spec=spec, coeff_codebook=cc,
                              magnitude_scale=scale)
        assert (huge.bits_angles, huge.bits_amplitudes) == (4, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = deserialize_report(serialize_report(huge, spec, cc), spec, cc, 1)
            assert decoded.magnitude_scale == 1.7e308
            with pytest.raises(DomainError, match="report reconstructs to a precoder of norm inf"):
                reconstruct_precoder(decoded, spec)


class TestOverheadBits:
    def test_table_rows(self):
        assert overhead_bits("direct_H", m=128, n=16, coeff_codebook_size=256) == (0, 16384)
        assert overhead_bits("direct_F", m=128, s=4, coeff_codebook_size=256) == (0, 4096)
        assert overhead_bits("sparse_precoder", q=8, s=4, angle_codebook_size=256,
                             coeff_codebook_size=256) == (64, 256)
        assert overhead_bits("multilevel_csi", k=16, angle_codebook_size=256,
                             coeff_codebook_size=256) == (256, 128)
        assert overhead_bits("proposed", k=8, s=4, angle_codebook_size=256,
                             coeff_codebook_size=256) == (64, 256)

    def test_proposed_equals_sparse_at_k_q(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            k = int(rng.integers(1, 64))
            s = int(rng.integers(1, 9))
            acb = 2 ** int(rng.integers(1, 10))
            ccb = 2 ** int(rng.integers(1, 10))
            assert overhead_bits("proposed", k=k, s=s, angle_codebook_size=acb,
                                 coeff_codebook_size=ccb) == \
                   overhead_bits("sparse_precoder", q=k, s=s, angle_codebook_size=acb,
                                 coeff_codebook_size=ccb)

    def test_missing_parameter(self):
        with pytest.raises(InvalidInputError):
            overhead_bits("proposed", k=8, angle_codebook_size=256, coeff_codebook_size=256)

    def test_unknown_scheme(self):
        with pytest.raises(InvalidInputError):
            overhead_bits("alternating", k=8)

    # Each scheme with the parameters of its row, at the reference sizes.
    ROWS = {
        "direct_H": {"m": 128, "n": 16, "coeff_codebook_size": 256},
        "direct_F": {"m": 128, "s": 4, "coeff_codebook_size": 256},
        "sparse_precoder": {"q": 8, "s": 4, "angle_codebook_size": 256, "coeff_codebook_size": 256},
        "multilevel_csi": {"k": 16, "angle_codebook_size": 256, "coeff_codebook_size": 256},
        "proposed": {"k": 8, "s": 4, "angle_codebook_size": 256, "coeff_codebook_size": 256},
    }

    @pytest.mark.parametrize("scheme, param", [(scheme, param) for scheme, row in ROWS.items()
                                               for param in row])
    def test_each_missing_parameter_is_named(self, scheme, param):
        kwargs = {name: value for name, value in self.ROWS[scheme].items() if name != param}
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"scheme '{scheme}' requires parameter '{param}'")):
            overhead_bits(scheme, **kwargs)

    @pytest.mark.parametrize("scheme", ["sparse_precoder", "multilevel_csi", "proposed"])
    def test_coeff_size_is_checked_before_angle_size(self, scheme):
        kwargs = dict(self.ROWS[scheme], angle_codebook_size=3, coeff_codebook_size=5)
        with pytest.raises(InvalidInputError, match="^coeff_codebook_size must be a power of two, got 5$"):
            overhead_bits(scheme, **kwargs)

    def test_parameter_outside_the_row_is_ignored(self):
        assert overhead_bits("direct_H", m=128, n=16, coeff_codebook_size=256, k=0) == (0, 16384)
        assert overhead_bits("direct_F", m=128, s=4, coeff_codebook_size=256,
                             angle_codebook_size=3) == (0, 4096)
        assert overhead_bits("multilevel_csi", k=16, angle_codebook_size=256, coeff_codebook_size=256,
                             s=None, q=2.5) == (256, 128)

    @settings(max_examples=200, deadline=None)
    @given(a=st.integers(1, 1024), b=st.integers(1, 1024), log_angle=st.integers(0, 12),
           log_coeff=st.integers(0, 16))
    def test_rows_are_the_docstring_closed_forms(self, a, b, log_angle, log_coeff):
        sizes = {"angle_codebook_size": 2 ** log_angle, "coeff_codebook_size": 2 ** log_coeff}
        assert overhead_bits("direct_H", m=a, n=b, **sizes) == (0, a * b * log_coeff)
        assert overhead_bits("direct_F", m=a, s=b, **sizes) == (0, a * b * log_coeff)
        assert overhead_bits("sparse_precoder", q=a, s=b, **sizes) == (a * log_angle,
                                                                      a * b * log_coeff)
        assert overhead_bits("multilevel_csi", k=a, **sizes) == (2 * a * log_angle, a * log_coeff)
        assert overhead_bits("proposed", k=a, s=b, **sizes) == (a * log_angle, a * b * log_coeff)


class TestSerialization:
    def test_handcrafted_bytes(self):
        spec = spec_of(m=4, size=4)
        cc = ComplexCodebook.uniform_polar(2, 2)
        combining = cc.decode(np.array([[0b10]]), 1.0)      # magnitude index 1, phase index 0
        report = FeedbackReport(angle_indices=(2,), combining=combining, spec=spec, coeff_codebook=cc,
                                magnitude_scale=1.0)
        assert (report.bits_angles, report.bits_amplitudes) == (2, 2)
        blob = serialize_report(report, spec, cc)
        # header + range scalar + one payload byte: idx '10', entry '10', zero padding
        assert blob == struct.pack("<HBB", 1, 1, 1) + struct.pack("<d", 1.0) + b"\xa0"

    def test_payload_bit_count_quantized(self):
        rng = np.random.default_rng(52)
        spec = spec_of(m=32, size=64)
        cc = ComplexCodebook.uniform_polar(8, 32)      # 8 bits per entry
        report = build_report(random_precoder(rng, 32, 3), spec, 5, cc)
        blob = serialize_report(report, spec, cc)
        payload_bits = report.bits_angles + report.bits_amplitudes
        assert payload_bits == 5 * 6 + 5 * 3 * 8
        assert len(blob) == 4 + 8 + (payload_bits + 7) // 8

    def test_round_trip_quantized_bit_for_bit(self):
        rng = np.random.default_rng(53)
        spec = spec_of(m=32, size=64)
        cc = ComplexCodebook.uniform_polar(16, 16)
        report = build_report(random_precoder(rng, 32, 3), spec, 5, cc)
        decoded = deserialize_report(serialize_report(report, spec, cc), spec, cc, 3)
        assert decoded.angle_indices == report.angle_indices
        assert np.array_equal(decoded.combining, report.combining)
        f_rx = reconstruct_precoder(report, spec)
        f_tx = reconstruct_precoder(decoded, spec)
        assert np.array_equal(f_rx.matrix, f_tx.matrix)

    def test_ideal_codebook_has_no_wire_form(self):
        # Ideal amplitudes count as 0 bits, so no byte layout could agree with the bit formula.
        rng = np.random.default_rng(54)
        spec, cc = spec_of(m=24, size=16), ComplexCodebook.uniform_polar(4, 4)
        report = build_report(random_precoder(rng, 24, 2), spec, 4, ComplexCodebook.ideal())
        blob = serialize_report(build_report(random_precoder(rng, 24, 2), spec, 4, cc), spec, cc)
        with pytest.raises(InvalidInputError, match="ideal complex codebook has no wire form"):
            serialize_report(report, spec, ComplexCodebook.ideal())
        with pytest.raises(InvalidInputError, match="ideal complex codebook has no wire form"):
            deserialize_report(blob, spec, ComplexCodebook.ideal(), 2)

    def test_ideal_report_under_a_polar_codebook_is_refused(self):
        # An ideal report has no magnitude range, so `encode` could not place its entries.
        rng = np.random.default_rng(58)
        spec, cc = spec_of(m=24, size=16), ComplexCodebook.uniform_polar(4, 4)
        report = build_report(random_precoder(rng, 24, 2), spec, 4, IDEAL)
        with pytest.raises(InvalidInputError, match="report was made under ComplexCodebook.*'ideal'"):
            serialize_report(report, spec, cc)

    def test_magnitude_scale_must_fit_the_codebook(self):
        # A polar report without a positive, finite range could not be encoded (`cc.encode(G,
        # None)` raised a bare TypeError in `serialize_report`); an ideal report carries none.
        spec, polar = spec_of(m=8, size=16), ComplexCodebook.uniform_polar(4, 4)
        for cc, scale in [(polar, None), (polar, 0.0), (polar, -1.0), (polar, float("nan")),
                          (polar, float("inf")), (IDEAL, 1.0)]:
            with pytest.raises(InvalidInputError, match=f"magnitude scale must be .* under a {cc.mode}"):
                FeedbackReport((1,), np.ones((1, 1)), spec, cc, magnitude_scale=scale)
        assert FeedbackReport((1,), np.ones((1, 1)), spec, polar, magnitude_scale=1.0).k == 1
        assert FeedbackReport((1,), np.ones((1, 1)), spec, IDEAL).magnitude_scale is None

    def test_magnitude_scale_is_a_real_never_a_bool(self):
        # True and np.True_ constructed and crossed the wire as 1.0; a string raised a bare
        # TypeError from its comparison with 0.
        spec, polar = spec_of(m=8, size=16), ComplexCodebook.uniform_polar(4, 4)
        for scale in (True, np.True_, "1.0", np.array([1.0]), 1j):
            with pytest.raises(InvalidInputError, match="magnitude scale must be .* under a uniform_polar"):
                FeedbackReport((1,), np.ones((1, 1)), spec, polar, magnitude_scale=scale)
        for scale in (2, np.float32(0.5), np.int64(3)):
            report = FeedbackReport((1,), np.full((1, 1), 0.1), spec, polar, magnitude_scale=scale)
            decoded = deserialize_report(serialize_report(report, spec, polar), spec, polar, 1)
            assert decoded.magnitude_scale == scale

    def test_report_serialized_under_another_codebook_or_spec_is_refused(self):
        # A 16x16 report sent as 8x4 words would decode to a different combining matrix.
        rng = np.random.default_rng(59)
        spec = spec_of(m=32, size=64)
        made, other = ComplexCodebook.uniform_polar(16, 16), ComplexCodebook.uniform_polar(8, 4)
        report = build_report(random_precoder(rng, 32, 3), spec, 5, made)
        with pytest.raises(InvalidInputError, match="report was made under"):
            serialize_report(report, spec, other)
        for wrong in (spec_of(m=32, size=64, gamma=2), spec_of(m=32, size=128), spec_of(m=16, size=64)):
            with pytest.raises(InvalidInputError, match="report was made under"):
                serialize_report(report, wrong, made)
            with pytest.raises(InvalidInputError, match="report was made under"):
                reconstruct_precoder(report, wrong)
        assert serialize_report(report, spec_of(m=32, size=64), made)        # an equal spec is the spec

    def test_header_gamma_must_match_spec_gamma(self):
        rng = np.random.default_rng(60)
        spec, cc = spec_of(m=24, size=16, gamma=2), ComplexCodebook.uniform_polar(4, 4)
        blob = serialize_report(build_report(random_precoder(rng, 24, 2), spec, 4, cc), spec, cc)
        assert deserialize_report(blob, spec, cc, 2).gamma == 2
        for gamma in (1, 3):
            with pytest.raises(InvalidInputError, match="header gamma 2 does not match spec gamma"):
                deserialize_report(blob, spec_of(m=24, size=16, gamma=gamma), cc, 2)

    def test_header_fields_that_overflow_are_refused(self):
        # K is a u16 and gamma a u8 in the header.
        cc = ComplexCodebook.uniform_polar(2, 2)
        wide = spec_of(m=4, size=4, gamma=300)
        report = FeedbackReport(angle_indices=(1,), combining=cc.decode(np.array([[2]]), 1.0),
                                spec=wide, coeff_codebook=cc, magnitude_scale=1.0)
        with pytest.raises(InvalidInputError, match="header field gamma must be <= 255, got 300"):
            serialize_report(report, wide, cc)
        spec, k = spec_of(m=4, size=4), 65536
        report = FeedbackReport(angle_indices=(1,) * k, combining=cc.decode(np.full((k, 1), 2), 1.0),
                                spec=spec, coeff_codebook=cc, magnitude_scale=1.0)
        with pytest.raises(InvalidInputError, match="header field K must be <= 65535, got 65536"):
            serialize_report(report, spec, cc)

    @pytest.mark.parametrize("num_streams", [0, -1])
    def test_stream_count_must_be_positive(self, num_streams):
        rng = np.random.default_rng(61)
        spec, cc = spec_of(m=24, size=16), ComplexCodebook.uniform_polar(4, 4)
        blob = serialize_report(build_report(random_precoder(rng, 24, 2), spec, 4, cc), spec, cc)
        with pytest.raises(InvalidInputError,
                           match=f"num_streams must be an integer >= 1, got {num_streams}$"):
            deserialize_report(blob, spec, cc, num_streams)

    def test_mode_flag_mismatch(self):
        # 0x01 (quantized amplitudes) is the only valid flags byte.
        rng = np.random.default_rng(55)
        spec, cc = spec_of(m=24, size=16), ComplexCodebook.uniform_polar(4, 4)
        blob = bytearray(serialize_report(build_report(random_precoder(rng, 24, 2), spec, 4, cc),
                                          spec, cc))
        assert blob[3] == 0x01
        for flags in (0x00, 0x02, 0x03, 0x81, 0xff):
            blob[3] = flags
            with pytest.raises(InvalidInputError, match="report flags must be 0x01"):
                deserialize_report(bytes(blob), spec, cc, 2)

    def test_truncated(self):
        spec, cc = spec_of(), ComplexCodebook.uniform_polar(4, 4)
        with pytest.raises(InvalidInputError, match="truncated report header"):
            deserialize_report(b"\x01", spec, cc, 1)
        report = build_report(random_precoder(np.random.default_rng(56), 16, 1), spec, 3, cc)
        blob = serialize_report(report, spec, cc)
        with pytest.raises(InvalidInputError, match="truncated report payload"):
            deserialize_report(blob[:-1], spec, cc, 1)

    def test_trailing_bytes(self):
        # Bytes after the padded payload are a framing error (two reports run together, a
        # stale tail), not part of the report: the blob must be exactly header + payload.
        spec, cc = spec_of(m=8, size=16), ComplexCodebook.uniform_polar(4, 4)
        report = build_report(random_precoder(np.random.default_rng(62), 8, 1), spec, 1, cc)
        blob = serialize_report(report, spec, cc)
        assert len(blob) == 12 + 1                          # 4 + 4 payload bits, one byte
        assert deserialize_report(blob, spec, cc, 1).angle_indices == report.angle_indices
        for tail in (b"\x00", b"\x00\x00", blob):
            with pytest.raises(InvalidInputError, match=f"trailing bytes: {len(tail)}$"):
                deserialize_report(blob + tail, spec, cc, 1)

    def test_truncated_magnitude_scale(self):
        with pytest.raises(InvalidInputError, match="truncated"):
            deserialize_report(struct.pack("<HBB", 1, 1, 1) + b"\x00" * 4, spec_of(),
                               ComplexCodebook.uniform_polar(4, 4), 1)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_bad_magnitude_scale_rejected(self, scale):
        rng = np.random.default_rng(57)
        spec = spec_of(m=32, size=64)
        cc = ComplexCodebook.uniform_polar(16, 16)
        blob = bytearray(serialize_report(build_report(random_precoder(rng, 32, 3), spec, 5, cc),
                                          spec, cc))
        struct.pack_into("<d", blob, 4, scale)
        with pytest.raises(InvalidInputError, match="magnitude scale"):
            deserialize_report(bytes(blob), spec, cc, 3)

    def test_zero_combining_entry_not_serializable(self):
        # A zero entry has no phase, so the polar grid cannot carry it.
        spec = spec_of(m=4, size=4)
        cc = ComplexCodebook.uniform_polar(2, 2)
        report = FeedbackReport(angle_indices=(2,), combining=np.array([[0.5 + 0.5j, 0.0]]),
                                spec=spec, coeff_codebook=cc, magnitude_scale=1.0)
        assert (report.bits_angles, report.bits_amplitudes) == (2, 4)
        with pytest.raises(InvalidInputError, match="zero combining entries"):
            serialize_report(report, spec, cc)

    @settings(max_examples=150, deadline=None)
    @given(cc=POLAR, seed=SEEDS, k=st.integers(1, 8), s=st.integers(1, 4),
           size_bits=st.integers(1, 8), gamma=st.integers(1, 4))
    def test_round_trip_property(self, cc, seed, k, s, size_bits, gamma):
        rng = np.random.default_rng(seed)
        spec = spec_of(m=8, size=2 ** size_bits, gamma=gamma)
        indices = tuple(int(i) for i in rng.integers(0, spec.codebook.size, size=k))
        combining, scale = cc.quantize(random_complex(rng, (k, s)))
        bits = proposed_bits(k, s, spec.codebook, cc)
        report = FeedbackReport(angle_indices=indices, combining=combining, spec=spec, coeff_codebook=cc,
                                magnitude_scale=scale)
        assert (report.gamma, report.bits_angles, report.bits_amplitudes) == (gamma, *bits)
        blob = serialize_report(report, spec, cc)
        decoded = deserialize_report(blob, spec, cc, s)
        assert (decoded.angle_indices, decoded.k, decoded.gamma) == (indices, k, gamma)
        assert (decoded.bits_angles, decoded.bits_amplitudes) == bits
        assert decoded.magnitude_scale == scale
        assert len(blob) == 12 + (sum(bits) + 7) // 8
        assert np.array_equal(cc.encode(decoded.combining, scale), cc.encode(combining, scale))
        assert np.array_equal(decoded.combining, combining)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(cc=POLAR, seed=SEEDS, s=st.integers(1, 3), data=st.data())
    def test_hostile_bytes_raise_only_library_errors(self, cc, seed, s, data):
        # Random bytes, and valid reports truncated or with one byte replaced.
        spec = spec_of(m=8, size=16)
        rng = np.random.default_rng(seed)
        report = build_report(random_precoder(rng, 8, s), spec, 4, cc)
        blob = bytearray(serialize_report(report, spec, cc))
        mangle = data.draw(st.sampled_from(["random", "truncate", "replace"]))
        if mangle == "random":
            blob = bytearray(data.draw(st.binary(max_size=120)))
        elif mangle == "truncate":
            blob = blob[:data.draw(st.integers(0, len(blob) - 1))]
        else:
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        try:
            reconstruct_precoder(deserialize_report(bytes(blob), spec, cc, s), spec)
        except (InvalidInputError, DomainError):
            pass
