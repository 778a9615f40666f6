import ctypes
import dataclasses
import functools
import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_csv, scheme_curve

from fapsim import benchmarks, cli, evaluation, feedback, runner
from fapsim.channel import ArrayGeometry, ChannelConfig, sample_channel, substream
from fapsim.errors import InvalidInputError
from fapsim.evaluation import achievable_rate, ber_qpsk_mmse
from fapsim.feedback import (AngleCodebook, BasisSpec, ComplexCodebook, OmpPath, build_report,
                             deserialize_report, overhead_bits, serialize_report)
from fapsim.precoding import PowerAllocation, optimal_precoder
from fapsim.precoding import Precoder
from fapsim.runner import (SCHEMES, BeamPatternConfig, ExperimentConfig, MultilevelScheme,
                           OptimalScheme, ProposedScheme, SparseScheme, run_beam_pattern,
                           run_ber_sweep, run_overhead_table, run_rate_sweep)


def small_experiment(**overrides):
    base = dict(
        channel=ChannelConfig(tx=ArrayGeometry(32), rx=ArrayGeometry(8),
                              num_clusters=4, rays_per_cluster=3),
        streams=2,
        schemes=(
            OptimalScheme(),
            ProposedScheme(k=4, angle_codebook_size=64),
            SparseScheme(q=4, angle_codebook_size=64),
            MultilevelScheme(k=6, angle_codebook_size=64),
        ),
        snr_db_grid=(-10.0, 0.0, 10.0),
        trials=8,
        symbols_per_trial=200,
        seed=321,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def reference_experiment(**overrides):
    cfg = cli.build_experiment_config(cli.load_config(None))
    return dataclasses.replace(cfg, **overrides)


class TestTrialEngine:
    def test_one_optimal_precoder_per_channel(self, monkeypatch):
        cfg = reference_experiment(trials=1)
        calls = []

        def counting(h, num_streams, alloc):
            calls.append(h.shape)
            return optimal_precoder(h, num_streams, alloc)

        monkeypatch.setattr(runner, "optimal_precoder", counting)
        runner._rate_trial(cfg, 0)
        assert len(calls) == 2          # F_opt of H, shared, and the multilevel H_hat's

    @pytest.mark.parametrize("allocation, groups", [("unitary", 1), ("water_filling", 13)])
    def test_one_omp_path_per_spec_and_group(self, monkeypatch, allocation, groups):
        # The reference schemes' K = 6, 8, 16 and Q = 8 share one spec: one path, 16 picks.
        cfg = reference_experiment(trials=1, allocation=allocation)
        specs, picks = [], []

        class Counting(OmpPath):
            def __init__(self, f_opt, spec):
                specs.append(spec)
                super().__init__(f_opt, spec)

            def _pick(self):
                picks.append(len(self._selected))
                super()._pick()

        def forbidden(*args):
            raise AssertionError("the runner reads every K off the group's OmpPath")

        monkeypatch.setattr(runner, "OmpPath", Counting)
        monkeypatch.setattr(feedback, "omp_approximate", forbidden)
        monkeypatch.setattr(benchmarks, "omp_approximate", forbidden)
        runner._rate_trial(cfg, 0)
        assert len(specs) == groups and len(set(specs)) == 1
        assert picks == list(range(16)) * groups               # 16 and 208 picks

    @pytest.mark.parametrize("allocation, groups", [("unitary", 1), ("water_filling", 13)])
    def test_one_link_factor_per_scheme_and_group(self, monkeypatch, allocation, groups):
        # The detector's SVD of H F runs once per (scheme, precoder group), not once per SNR,
        # and the symbol block is drawn once per SNR, not once per scheme.
        cfg = reference_experiment(trials=1, allocation=allocation)
        svds, draws = [], []

        class CountingLinalg:
            def __getattr__(self, name):
                return getattr(np.linalg, name)

            def svd(self, a, **kwargs):
                svds.append(a.shape)
                return np.linalg.svd(a, **kwargs)

        class NumpyAsEvaluationSeesIt:
            linalg = CountingLinalg()

            def __getattr__(self, name):
                return getattr(np, name)

        def counting_draw(rng, *shape):
            draws.append(shape)
            return evaluation.draw_qpsk(rng, *shape)

        monkeypatch.setattr(evaluation, "np", NumpyAsEvaluationSeesIt())
        monkeypatch.setattr(runner, "draw_qpsk", counting_draw)
        runner._ber_trial(cfg, 0)
        assert svds == [(16, 4)] * 6 * groups                  # 6 and 78 link SVDs
        assert draws == [(4, 16, 1000)] * 13

    @pytest.mark.parametrize("allocation", ["unitary", "water_filling"])
    def test_shared_draw_matches_per_scheme_draws(self, allocation):
        cfg = reference_experiment(trials=1, symbols_per_trial=300, allocation=allocation,
                                   snr_db_grid=(-20.0, -5.0, 10.0))
        errors = runner._ber_trial(cfg, 0)
        ch = sample_channel(cfg.channel, substream(cfg.seed, 0))
        for cols, _, precoders in runner._precoder_groups(cfg, ch):
            for j in cols:
                snr = 10.0 ** (cfg.snr_db_grid[j] / 10.0)
                for i, f in enumerate(precoders):
                    expected = ber_qpsk_mmse(ch.matrix, f, snr, cfg.symbols_per_trial,
                                             substream(cfg.seed, 0, j))
                    assert (errors[i, j], 2 * cfg.streams * cfg.symbols_per_trial) == expected

    @pytest.mark.parametrize("allocation", ["unitary", "water_filling"])
    def test_rate_trial_matches_per_snr_rates(self, allocation):
        cfg = small_experiment(allocation=allocation)
        rates = runner._rate_trial(cfg, 5)
        ch = sample_channel(cfg.channel, substream(cfg.seed, 5))
        groups = list(runner._precoder_groups(cfg, ch))
        # Unitary: one group for the whole grid; water-filling: one group per SNR point.
        assert len(groups) == (1 if allocation == "unitary" else len(cfg.snr_db_grid))
        assert sorted(j for cols, _, _ in groups for j in cols) == list(range(len(cfg.snr_db_grid)))
        for cols, snrs, precoders in groups:
            assert list(snrs) == [10.0 ** (cfg.snr_db_grid[j] / 10.0) for j in cols]
            for j in cols:
                snr = 10.0 ** (cfg.snr_db_grid[j] / 10.0)
                alloc = PowerAllocation(allocation, total_power=snr)
                assert np.array_equal(precoders[0],
                                      optimal_precoder(ch.matrix, cfg.streams, alloc).matrix)
                for i, f in enumerate(precoders):
                    assert rates[i, j] == pytest.approx(achievable_rate(ch.matrix, f, snr), abs=1e-12)

    @pytest.mark.parametrize("workers, trials, cpus, expected", [
        (1, 200, 2, 1), (2, 200, 2, 2), (4, 200, 2, 2), (4, 3, 8, 3),
        (8, 200, None, 1), (0, 5, 4, 1), (3, 1, 4, 1),
    ])
    def test_worker_count_clamp(self, monkeypatch, workers, trials, cpus, expected):
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        assert runner._worker_count(workers, trials) == expected


def _blas_threads(cfg, trial):
    """Thread count of numpy's bundled OpenBLAS in this process; None where it is absent."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        get_threads = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get_threads is not None:
            return get_threads()
    return None


def test_pool_workers_run_one_blas_thread(monkeypatch):
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    counts = runner._map_trials(_blas_threads, small_experiment(trials=4), workers=2)
    if counts[0] is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    assert counts == [1] * 4


class TestRateSweep:
    def test_deterministic_across_worker_counts(self):
        cfg = small_experiment()
        assert run_rate_sweep(cfg, workers=1) == run_rate_sweep(cfg, workers=3)

    def test_reproducible_single_scheme(self):
        cfg = small_experiment(schemes=(OptimalScheme(),), trials=1)
        assert run_rate_sweep(cfg) == run_rate_sweep(cfg)

    def test_proposed_matches_sparse_rows_exactly(self):
        cfg = small_experiment()
        table = parse_csv(run_rate_sweep(cfg))
        rows = {}
        for scheme, snr, rate in zip(table["scheme"], table["snr_db"], table["mean_rate"]):
            rows.setdefault(scheme, {})[snr] = rate
        assert rows["proposed_k4_g1_cb64"] == rows["sparse_q4_cb64"]

    def test_optimal_dominates(self):
        cfg = small_experiment()
        table = parse_csv(run_rate_sweep(cfg))
        snr, best = scheme_curve(table, "optimal", "snr_db", "mean_rate")
        for scheme in ("proposed_k4_g1_cb64", "sparse_q4_cb64", "multilevel_k6_cb64"):
            _, rate = scheme_curve(table, scheme, "snr_db", "mean_rate")
            assert np.all(best >= rate - 1e-9)

    def test_header_embeds_config_and_seed(self):
        cfg = small_experiment()
        text = run_rate_sweep(cfg)
        lines = text.splitlines()
        config_line = next(ln for ln in lines if ln.startswith("# config: "))
        blob = json.loads(config_line[len("# config: "):])
        assert blob["seed"] == 321
        assert blob["trials"] == 8
        assert blob["channel"]["tx"]["num_elements"] == 32
        assert any(s.get("label") == "sparse_q4_cb64" for s in blob["schemes"])
        assert "# seed: 321" in lines

    def test_quantized_schemes_go_over_the_wire(self, monkeypatch):
        # The transmitter rebuilds a quantized scheme's F_hat from the wire bytes alone, so one
        # flipped payload bit moves every quantized row; ideal reports have no wire form.
        polar, coarse = ComplexCodebook.uniform_polar(16, 16), ComplexCodebook.uniform_polar(4, 8)
        quantized = (ProposedScheme(k=4, angle_codebook_size=64, coeff_codebook=polar),
                     ProposedScheme(k=6, gamma=2, angle_codebook_size=32, coeff_codebook=coarse))
        ideal = (OptimalScheme(), ProposedScheme(k=4, angle_codebook_size=64),
                 SparseScheme(q=4, angle_codebook_size=64))
        cfg = small_experiment(trials=3, schemes=ideal + quantized)
        clean = run_rate_sweep(cfg)
        sizes = {}

        def flip_first_payload_bit(report, spec, cc):
            blob = bytearray(serialize_report(report, spec, cc))
            sizes.setdefault((spec.gamma, cc), set()).add(len(blob))
            blob[12] ^= 0x80                   # the top bit of the first angle index
            return bytes(blob)

        monkeypatch.setattr(runner, "serialize_report", flip_first_payload_bit)
        flipped = run_rate_sweep(cfg)
        rows = [ln for ln in clean.splitlines() if not ln.startswith("#")][1:]
        flipped_rows = [ln for ln in flipped.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == len(flipped_rows) == 5 * 3
        quantized_labels = {s.label for s in quantized}
        for row, other in zip(rows, flipped_rows):
            if row.split(",")[0] in quantized_labels:
                assert row.split(",")[2] != other.split(",")[2]         # mean_rate
            else:
                assert row == other
        table = parse_csv(clean)
        for scheme in quantized:
            i = table["scheme"].index(scheme.label)
            bits = int(table["feedback_angle_bits"][i]) + int(table["feedback_amplitude_bits"][i])
            assert sizes[(scheme.gamma, scheme.coeff_codebook)] == {12 + math.ceil(bits / 8)}

    def test_overhead_columns(self):
        cfg = small_experiment()
        table = parse_csv(run_rate_sweep(cfg))
        by_scheme = dict(zip(table["scheme"],
                             zip(table["feedback_angle_bits"], table["feedback_amplitude_bits"])))
        assert by_scheme["optimal"] == ("0", "0")
        assert by_scheme["proposed_k4_g1_cb64"] == ("24", "0")
        assert by_scheme["multilevel_k6_cb64"] == ("72", "0")


class TestBerSweep:
    @pytest.mark.parametrize("allocation", ["unitary", "water_filling"])
    def test_deterministic_across_worker_counts(self, allocation):
        cfg = small_experiment(trials=4, allocation=allocation)
        assert run_ber_sweep(cfg, workers=1) == run_ber_sweep(cfg, workers=2)

    def test_noise_free_sentinel_row(self):
        cfg = small_experiment(schemes=(OptimalScheme(),), snr_db_grid=(90.0,), trials=4)
        table = parse_csv(run_ber_sweep(cfg))
        assert table["ber"] == ["0.0"]

    def test_bit_accounting(self):
        cfg = small_experiment(trials=3)
        table = parse_csv(run_ber_sweep(cfg))
        for sent in table["bits_sent"]:
            assert int(sent) == 3 * 200 * 2 * cfg.streams

    def test_stderr_scaling_oracle(self):
        # stderr ~ 1/sqrt(bits); doubling the trials scales it by 1/sqrt(2).
        # Run where BER ~ 0.1 so the level estimate itself is stable.
        base = small_experiment(schemes=(OptimalScheme(),), snr_db_grid=(-15.0,),
                                trials=20, symbols_per_trial=500)
        double = small_experiment(schemes=(OptimalScheme(),), snr_db_grid=(-15.0,),
                                  trials=40, symbols_per_trial=500)
        t1 = parse_csv(run_ber_sweep(base, workers=2))
        t2 = parse_csv(run_ber_sweep(double, workers=2))
        ratio = float(t2["stderr"][0]) / float(t1["stderr"][0])
        assert ratio == pytest.approx(1.0 / np.sqrt(2.0), rel=0.2)


class TestBeamPatternSweep:
    def test_rows_and_normalization(self):
        cfg = small_experiment()
        text = run_beam_pattern(cfg)
        table = parse_csv(text)
        grid = cfg.beam_pattern.grid_size
        assert len(table["angle_rad"]) == grid
        angles = np.array([float(v) for v in table["angle_rad"]])
        for gamma in cfg.beam_pattern.gammas:
            g = np.array([float(v) for v in table[f"g_gamma{gamma}"]])
            assert np.trapezoid(g, angles) == pytest.approx(1.0, abs=1e-3)

    def test_peak_decreases_with_gamma(self):
        cfg = small_experiment()
        table = parse_csv(run_beam_pattern(cfg))
        peak1 = max(float(v) for v in table["g_gamma1"])
        peak4 = max(float(v) for v in table["g_gamma4"])
        assert peak1 > peak4

    def test_gamma_override(self):
        cfg = small_experiment(beam_pattern=BeamPatternConfig(gammas=(2,)))
        table = parse_csv(run_beam_pattern(cfg))
        assert set(table.keys()) == {"angle_rad", "g_gamma2"}


class TestOverheadTable:
    def test_rows(self):
        cfg = small_experiment()
        table = parse_csv(run_overhead_table(cfg))
        assert table["scheme"] == ["optimal", "proposed_k4_g1_cb64",
                                   "sparse_q4_cb64", "multilevel_k6_cb64"]
        totals = {s: int(t) for s, t in zip(table["scheme"], table["total_bits"])}
        assert totals["optimal"] == 0
        assert totals["proposed_k4_g1_cb64"] == 24
        assert totals["multilevel_k6_cb64"] == 72

    def test_matches_scheme_overhead(self):
        # The table prints each scheme's own overhead(), nothing recomputed.
        cfg = small_experiment()
        table = parse_csv(run_overhead_table(cfg))
        for i, scheme in enumerate(cfg.schemes):
            abits, cbits = scheme.overhead(cfg)
            assert int(table["angle_bits"][i]) == abits
            assert int(table["amplitude_bits"][i]) == cbits


class TestConfigValidation:
    def test_bad_trials(self):
        with pytest.raises(InvalidInputError, match="trials"):
            small_experiment(trials=0)

    @pytest.mark.parametrize("kwargs, field", [
        (dict(sector=(1.0, 0.0)), "beam_pattern.sector"),
        (dict(gammas=(0,)), "beam_pattern.gammas"),
        (dict(gammas=(1, 2.5)), "beam_pattern.gammas"),
        (dict(gammas=()), "beam_pattern.gammas"),
    ])
    def test_beam_pattern_config_names_field(self, kwargs, field):
        # A library-built config fails where the CLI's would, naming the field.
        with pytest.raises(InvalidInputError, match=field):
            small_experiment(beam_pattern=BeamPatternConfig(**kwargs))

    def test_non_integer_gamma_rejected(self):
        # gamma = 2.5 would build 3 beams scaled by 1/sqrt(2.5) under a `g2.5` label.
        with pytest.raises(InvalidInputError, match=r"schemes\[1\]\.gamma: must be an integer"):
            small_experiment(schemes=(OptimalScheme(), ProposedScheme(k=4, gamma=2.5,
                                                                      angle_codebook_size=64)))

    def test_empty_snr_grid(self):
        with pytest.raises(InvalidInputError, match="snr_db_grid"):
            small_experiment(snr_db_grid=())

    def test_sparse_q_vs_streams(self):
        with pytest.raises(InvalidInputError, match=r"schemes\[0\]\.q"):
            small_experiment(schemes=(SparseScheme(q=1, angle_codebook_size=64),))

    def test_multilevel_k_bound(self):
        with pytest.raises(InvalidInputError, match=r"schemes\[0\]\.k"):
            small_experiment(schemes=(MultilevelScheme(k=13, angle_codebook_size=64),))

    def test_duplicate_labels(self):
        with pytest.raises(InvalidInputError, match="labels"):
            small_experiment(schemes=(OptimalScheme(), OptimalScheme()))

    def test_quantized_coeff_codebook_in_label(self):
        quantized = ComplexCodebook.uniform_polar(16, 16)
        assert ProposedScheme(k=4).label == "proposed_k4_g1_cb256"
        assert (ProposedScheme(k=4, coeff_codebook=quantized).label
                == "proposed_k4_g1_cb256_m16p16")
        assert MultilevelScheme(k=6).label == "multilevel_k6_cb256"
        assert (MultilevelScheme(k=6, coeff_codebook=ComplexCodebook.uniform_polar(8, 4)).label
                == "multilevel_k6_cb256_m8p4")

    @pytest.mark.parametrize("scheme, field", [
        (ProposedScheme(k=4, gamma=0, angle_codebook_size=64), "gamma"),
        (ProposedScheme(k=4, angle_codebook_size=100), "angle_codebook_size"),
        (ProposedScheme(k=65, angle_codebook_size=64), "k"),
        (SparseScheme(q=4, angle_codebook_size=48), "angle_codebook_size"),
        (MultilevelScheme(k=4, angle_codebook_size=0), "angle_codebook_size"),
    ])
    def test_scheme_validate_names_field(self, scheme, field):
        with pytest.raises(InvalidInputError, match=rf"schemes\[1\]\.{field}\b"):
            small_experiment(schemes=(OptimalScheme(), scheme))

    @pytest.mark.parametrize("grid", [(float("nan"),), (0.0, float("inf")), (-float("inf"),),
                                      (1e300,), (-1e300,)])
    def test_snr_db_must_be_finite_in_both_units(self, grid):
        with pytest.raises(InvalidInputError, match=r"snr_db\["):
            small_experiment(snr_db_grid=grid)

    def test_negative_seed(self):
        with pytest.raises(InvalidInputError, match="seed: must be >= 0"):
            small_experiment(seed=-1)


_COEFF_CODEBOOKS = st.one_of(
    st.just(ComplexCodebook.ideal()),
    st.builds(ComplexCodebook.uniform_polar, st.sampled_from([1, 2, 4, 8, 16]),
              st.sampled_from([1, 2, 4, 8, 16])),
)


class TestOneBitFormula:
    """Every scheme's overhead() is overhead_bits(); reports and the wire format agree with it."""

    M = 32              # above every K drawn below, so OMP never stops early

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(sorted(SCHEMES)), k=st.integers(1, 16), s=st.integers(1, 4),
           size_bits=st.integers(4, 8), gamma=st.integers(1, 3), cc=_COEFF_CODEBOOKS,
           seed=st.integers(0, 2**32 - 1))
    def test_overhead_matches_formula_reports_and_wire(self, kind, k, s, size_bits, gamma, cc, seed):
        size, ccb = 2 ** size_bits, 2 ** cc.bits_per_value
        q = max(k, s)                   # the sparse benchmark needs Q >= S
        # kind -> (scheme, overhead_bits with the same arguments, build_report's (K, gamma, Cc))
        scheme, expected, report_args = {
            "optimal": (OptimalScheme(), (0, 0), None),
            "proposed": (
                ProposedScheme(k=k, gamma=gamma, angle_codebook_size=size, coeff_codebook=cc),
                overhead_bits("proposed", k=k, s=s, angle_codebook_size=size, coeff_codebook_size=ccb),
                (k, gamma, cc)),
            "sparse": (
                SparseScheme(q=q, angle_codebook_size=size),
                overhead_bits("sparse_precoder", q=q, s=s, angle_codebook_size=size,
                              coeff_codebook_size=1),
                (q, 1, ComplexCodebook.ideal())),
            "multilevel": (
                MultilevelScheme(k=k, angle_codebook_size=size, coeff_codebook=cc),
                overhead_bits("multilevel_csi", k=k, angle_codebook_size=size, coeff_codebook_size=ccb),
                None),
        }[kind]
        cfg = small_experiment(channel=ChannelConfig(tx=ArrayGeometry(self.M), rx=ArrayGeometry(8),
                                                     num_clusters=4, rays_per_cluster=4),
                               streams=s, schemes=(scheme,))
        assert scheme.overhead(cfg) == expected
        if report_args is None:
            return

        n, g, rcc = report_args
        rng = np.random.default_rng(seed)
        f = rng.standard_normal((self.M, s)) + 1j * rng.standard_normal((self.M, s))
        spec = BasisSpec(codebook=AngleCodebook(cfg.channel.tx_sector, size), tx=cfg.channel.tx,
                         gamma=g)
        report = build_report(Precoder(f / np.linalg.norm(f)), spec, n, rcc)
        assert report.k == n
        assert (report.bits_angles, report.bits_amplitudes) == expected
        if rcc.mode == "ideal":         # 0-bit amplitudes: no wire form agrees with the formula
            with pytest.raises(InvalidInputError, match="no wire form"):
                serialize_report(report, spec, rcc)
            return
        blob = serialize_report(report, spec, rcc)
        decoded = deserialize_report(blob, spec, rcc, s)
        assert (decoded.bits_angles, decoded.bits_amplitudes) == expected
        # 12-byte header (K, gamma, flags, magnitude range), then bit-packed indices and entries
        assert len(blob) == 12 + math.ceil(sum(expected) / 8)


class TestSparseDelegation:
    def test_precoder_bitwise_equals_sparse_benchmark(self):
        # SparseScheme runs the proposed engine at K = Q, gamma = 1; that is
        # exactly the benchmark's normalized F_rf F_bb.
        from fapsim.benchmarks import SparsePrecoderConfig, sparse_precoder

        cfg = small_experiment()
        scheme = cfg.schemes[2]
        bench = SparsePrecoderConfig(num_rf_chains=scheme.q, tx=cfg.channel.tx,
                                     codebook=AngleCodebook(cfg.channel.tx_sector,
                                                            scheme.angle_codebook_size))
        alloc = PowerAllocation("unitary")
        for trial in range(20):
            ch = sample_channel(cfg.channel, substream(cfg.seed, trial))
            f_opt = optimal_precoder(ch.matrix, cfg.streams, alloc)
            f_rf, f_bb = sparse_precoder(f_opt, bench)
            expected = f_rf @ f_bb
            omp = functools.cache(functools.partial(OmpPath, f_opt))     # a fresh memo per draw
            assert np.array_equal(scheme.precoder(ch, cfg, alloc, f_opt, omp),
                                  expected / np.linalg.norm(expected))
