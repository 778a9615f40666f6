import ctypes
import dataclasses
import glob
import itertools
import json
import math
import os
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import parse_csv, scheme_curve
from test_evaluation import expression_block, single_call_detector
from test_rate_oracle import rate_configs

from fapsim import benchmarks, cli, evaluation, feedback, numerics, runner
from fapsim.channel import ArrayGeometry, ChannelConfig, sample_channel, substream
from fapsim.errors import InvalidInputError
from fapsim.evaluation import achievable_rate, ber_qpsk_mmse
from fapsim.feedback import (AngleCodebook, BasisSpec, ComplexCodebook, OmpPath, build_report,
                             deserialize_report, overhead_bits, reconstruct_precoder,
                             serialize_report)
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


def trial_targets(cfg, t):
    """The engine's target indices of trial t: one per precoder group."""
    groups = len(runner._groups(cfg))
    return range(t * groups, (t + 1) * groups)


def count_exact_steps(monkeypatch):
    """The (precoder, SNR) of each call of the detector's fallback step, as it is made."""
    calls, exact = [], evaluation.MmseLink.exact_bit_errors

    def counting(link, k, p, symbols, noise):
        calls.append((k, p))
        return exact(link, k, p, symbols, noise)
    monkeypatch.setattr(evaluation.MmseLink, "exact_bit_errors", counting)
    return calls


def assert_cells_are_the_single_call_detector(monkeypatch, cfg):
    """Every (scheme, SNR) cell of `_ber_block`, per trial and precoder group, is the
    single-call detector's count. Returns the (precoder, SNR) of each fallback step, and the
    stack index of each precoder with a zero column, both in the engine's order."""
    fallbacks, zero_columns = count_exact_steps(monkeypatch), []
    for t in range(cfg.trials):
        errors = np.hstack(runner._ber_block(cfg, trial_targets(cfg, t)))
        stage = runner._Stage(cfg, trial_targets(cfg, t))
        ch = stage.channels[t]
        for (_, cols, snrs, _), precoders in zip(stage.targets, stage.precoders):
            zero_columns += [i for i, f in enumerate(precoders) if not np.all(np.any(f, axis=0))]
            for j, snr in zip(cols, snrs):
                bits, _, noise = expression_block(substream(cfg.seed, t, j), cfg.streams,
                                                  ch.matrix.shape[0], cfg.symbols_per_trial)
                assert errors[:, j].tolist() == [
                    single_call_detector(ch.matrix, f, snr, bits, noise) for f in precoders]
    return fallbacks, zero_columns


class TestTrialEngine:
    def test_one_optimal_precoder_per_channel(self, monkeypatch):
        # A trial's H and its multilevel estimate H_hat are each factored once, and every
        # precoder group applies its power split to that factor: 2 SVDs per trial under either
        # allocation, not one per (trial, group) target (26 under water-filling's 13 groups).
        calls, svd = [], numerics.svd

        def counting(h):
            calls.append(h.shape)
            return svd(h)

        monkeypatch.setattr(numerics, "svd", counting)
        for allocation in ("unitary", "water_filling"):
            cfg = reference_experiment(trials=1, allocation=allocation)
            calls.clear()
            runner._rate_block(cfg, trial_targets(cfg, 0))
            assert calls == [(cfg.channel.rx.num_elements, cfg.channel.tx.num_elements)] * 2

    def test_each_scheme_builds_a_block_in_one_call(self, monkeypatch):
        # Two water-filling trials in one block are 26 targets: each scheme's `precoders` runs
        # once over all of them, and `multilevel` estimates each trial's channel once.
        cfg = reference_experiment(trials=2, allocation="water_filling")
        calls, estimates = [], []
        for cls in SCHEMES.values():
            def counting(scheme, run_cfg, stage, build=cls.precoders):
                calls.append((scheme.label, len(stage.targets)))
                return build(scheme, run_cfg, stage)
            monkeypatch.setattr(cls, "precoders", counting)

        def estimate(ch, *args):
            estimates.append(ch)
            return benchmarks.multilevel_csi_feedback(ch, *args)
        monkeypatch.setattr(runner, "multilevel_csi_feedback", estimate)
        assert runner._block_targets(cfg) >= 26
        runner._rate_block(cfg, range(26))
        assert calls == [(s.label, 26) for s in cfg.schemes]
        assert len(estimates) == 2

    @pytest.mark.parametrize("allocation, groups", [("unitary", 1), ("water_filling", 13)])
    def test_one_omp_path_per_spec_and_group(self, monkeypatch, allocation, groups):
        # The reference schemes' K = 6, 8, 16 and Q = 8 share one spec: one path per block,
        # with one target per precoder group, each picking 16 times.
        cfg = reference_experiment(trials=1, allocation=allocation)
        specs, picks = [], []                  # per pick: (picks made, targets picking)

        class Counting(OmpPath):
            def __init__(self, targets, spec, k):
                specs.append(spec)
                super().__init__(targets, spec, k)

            def _pick(self):
                picks.append((self._steps, int(self._running.sum())))
                super()._pick()

        def forbidden(*args):
            raise AssertionError("the runner reads every K off the group's OmpPath")

        monkeypatch.setattr(runner, "OmpPath", Counting)
        monkeypatch.setattr(feedback, "omp_approximate", forbidden)
        monkeypatch.setattr(benchmarks, "omp_approximate", forbidden)
        runner._rate_block(cfg, trial_targets(cfg, 0))
        assert len(specs) == 1
        assert picks == [(j, groups) for j in range(16)]
        assert sum(n for _, n in picks) == 16 * groups          # 16 and 208 target-picks

    @pytest.mark.parametrize("allocation, groups", [("unitary", 1), ("water_filling", 13)])
    def test_one_link_factor_per_scheme_and_group(self, monkeypatch, allocation, groups):
        # The detector's SVD of H F runs once per (scheme, precoder group), batched over the
        # schemes, not once per SNR, and the symbol block is drawn once per SNR, not once per
        # scheme.
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
        runner._ber_block(cfg, trial_targets(cfg, 0))
        assert svds == [(6, 16, 4)] * groups                   # 6 and 78 link SVDs
        assert draws == [(4, 16, 1000)] * 13

    def test_no_sweep_or_link_path_builds_psi(self, monkeypatch):
        # OMP and the rebuilds read only the cached Psi^H; Psi itself is built for callers of
        # `dictionary` alone. Checked on one reference rate block and one wire round trip per gamma.
        calls, built = [], feedback.dictionary
        monkeypatch.setattr(feedback, "dictionary", lambda spec: calls.append(spec) or built(spec))
        cfg = reference_experiment()
        runner._rate_block(cfg, range(runner._block_targets(cfg)))
        cc, alloc = ComplexCodebook.uniform_polar(16, 16), PowerAllocation("unitary")
        f_opt = optimal_precoder(sample_channel(cfg.channel, substream(5, 0)).matrix, cfg.streams, alloc)
        for gamma in (1, 2, 4):
            spec = BasisSpec(AngleCodebook(cfg.channel.tx_sector, 256), cfg.channel.tx, gamma)
            report = build_report(f_opt, spec, 16, cc)
            decoded = deserialize_report(serialize_report(report, spec, cc), spec, cc, cfg.streams)
            assert reconstruct_precoder(decoded, spec).matrix.shape == f_opt.matrix.shape
        assert calls == []

    def test_ber_block_draws_with_no_omp_path_alive(self, monkeypatch):
        # The stage releases its OMP paths once the schemes have read them: a stage that kept
        # them alive through the BER draws ran `fapsim ber` about 10 % slower.
        paths, alive = [], []

        class Tracked(OmpPath):
            def __init__(self, *args):
                super().__init__(*args)
                paths.append(weakref.ref(self))

        def counting_draw(*args):
            alive.append(sum(ref() is not None for ref in paths))
            return evaluation.draw_qpsk(*args)

        monkeypatch.setattr(runner, "OmpPath", Tracked)
        monkeypatch.setattr(runner, "draw_qpsk", counting_draw)
        cfg = reference_experiment(trials=runner.BLOCK_TRIALS)
        runner._ber_block(cfg, range(runner._block_targets(cfg)))
        assert len(paths) == 1 and alive == [0] * cfg.trials * len(cfg.snr_db_grid)

    @pytest.mark.parametrize("allocation", ["unitary", "water_filling"])
    def test_shared_draw_matches_per_scheme_draws(self, allocation):
        cfg = reference_experiment(trials=1, symbols_per_trial=300, allocation=allocation,
                                   snr_db_grid=(-20.0, -5.0, 10.0))
        errors = np.hstack(runner._ber_block(cfg, trial_targets(cfg, 0)))
        ch = sample_channel(cfg.channel, substream(cfg.seed, 0))
        stage = runner._Stage(cfg, trial_targets(cfg, 0))
        for (_, cols, _, _), precoders in zip(stage.targets, stage.precoders):
            for j in cols:
                snr = 10.0 ** (cfg.snr_db_grid[j] / 10.0)
                for i, f in enumerate(precoders):
                    expected = ber_qpsk_mmse(ch.matrix, f, snr, cfg.symbols_per_trial,
                                             substream(cfg.seed, 0, j))
                    assert (errors[i, j], 2 * cfg.streams * cfg.symbols_per_trial) == expected

    @pytest.mark.parametrize("block", ["_rate_block", "_ber_block"])
    def test_each_drawn_channel_is_checked_once(self, monkeypatch, block):
        # The precoder stage is both sweeps' trust boundary for H: each distinct trial's H is
        # checked once, at every SNR of the config, and a huge H is refused before any link.
        cfg = small_experiment(trials=2, allocation="water_filling")
        checked = []

        def counting(h, snr):
            checked.append(len(snr))
            return evaluation.check_channel(h, snr)
        monkeypatch.setattr(runner, "check_channel", counting)
        getattr(runner, block)(cfg, range(2 * len(cfg.snr_db_grid)))    # 2 trials, 6 targets
        assert checked == [len(cfg.snr_db_grid)] * 2

        def huge(channel, rng):
            ch = sample_channel(channel, rng)
            return dataclasses.replace(ch, matrix=1e200 * ch.matrix)
        monkeypatch.setattr(runner, "sample_channel", huge)
        with pytest.raises(InvalidInputError, match=r"snr \* \|\|H\|\|\^2 must be finite"):
            getattr(runner, block)(cfg, range(1))

    def test_rank_deficient_cells_are_the_single_call_detector(self, monkeypatch):
        # K < S makes each proposed H F rank-deficient, so at 250-300 dB the stacked Sigma V^H
        # step miscounts; every (scheme, SNR) cell is the single-call detector's through the
        # certified fallback to the U^H y step, which these blocks take.
        cfg = reference_experiment(trials=3, snr_db_grid=(250.0, 260.0, 270.0, 280.0, 290.0, 300.0),
                                   schemes=(ProposedScheme(k=2), ProposedScheme(k=3)))
        fallbacks, _ = assert_cells_are_the_single_call_detector(monkeypatch, cfg)
        assert fallbacks

    def test_zero_power_cells_are_the_single_call_detector(self, monkeypatch):
        # At -20 to -15 dB water-filling leaves some streams no power: a zero precoder column
        # gives estimate entries of exactly 0 in both forms, so the certificate leaves them out
        # and no such precoder takes the fallback step.
        cfg = reference_experiment(trials=3, allocation="water_filling",
                                   snr_db_grid=(-20.0, -17.5, -15.0))
        fallbacks, zero_columns = assert_cells_are_the_single_call_detector(monkeypatch, cfg)
        assert zero_columns and fallbacks == []

    def test_reference_sweep_takes_no_fallback(self, monkeypatch):
        # A bound too loose for the reference links would cost the stacked step's speed unseen.
        fallbacks = count_exact_steps(monkeypatch)
        run_ber_sweep(reference_experiment(trials=6))
        assert fallbacks == []

    @pytest.mark.parametrize("allocation", ["unitary", "water_filling"])
    def test_rate_trial_matches_per_snr_rates(self, allocation):
        cfg = small_experiment(allocation=allocation)
        rates = np.hstack(runner._rate_block(cfg, trial_targets(cfg, 5)))
        ch = sample_channel(cfg.channel, substream(cfg.seed, 5))
        ml = next(i for i, s in enumerate(cfg.schemes) if isinstance(s, MultilevelScheme))
        multilevel = cfg.schemes[ml]
        h_hat = benchmarks.multilevel_csi_feedback(ch, cfg.channel, multilevel.k,
                                                   multilevel.angle_codebook_size,
                                                   multilevel.coeff_codebook)
        stage = runner._Stage(cfg, trial_targets(cfg, 5))
        groups = stage.targets
        # Unitary: one group for the whole grid; water-filling: one group per SNR point.
        assert len(groups) == len(stage.precoders) == (1 if allocation == "unitary"
                                                       else len(cfg.snr_db_grid))
        assert sorted(j for _, cols, _, _ in groups for j in cols) == list(range(len(cfg.snr_db_grid)))
        assert list(stage.channels) == [5]
        assert np.array_equal(stage.channels[5].matrix, ch.matrix)
        for (t, cols, snrs, _), precoders in zip(groups, stage.precoders):
            assert t == 5
            assert list(snrs) == [10.0 ** (cfg.snr_db_grid[j] / 10.0) for j in cols]
            for j in cols:
                snr = 10.0 ** (cfg.snr_db_grid[j] / 10.0)
                alloc = PowerAllocation(allocation, total_power=snr)
                assert np.array_equal(precoders[0],
                                      optimal_precoder(ch.matrix, cfg.streams, alloc).matrix)
                assert np.array_equal(precoders[ml],
                                      optimal_precoder(h_hat, cfg.streams, alloc).matrix)
                for i, f in enumerate(precoders):
                    assert rates[i, j] == pytest.approx(achievable_rate(ch.matrix, f, snr), abs=1e-12)

    @pytest.mark.parametrize("workers, trials, cpus, expected", [
        (1, 200, 2, 1), (2, 200, 2, 2), (4, 200, 2, 2), (4, 3, 8, 3),
        (8, 200, None, 1), (0, 5, 4, 1), (3, 1, 4, 1),
    ])
    def test_worker_count_clamp(self, monkeypatch, workers, trials, cpus, expected):
        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        assert runner._worker_count(workers, trials) == expected

    @pytest.mark.parametrize("workers", ["2", None, 2.0, True, 0, -3])
    def test_workers_must_be_a_count(self, workers):
        # "2" and None raised a bare TypeError from `min`; 0 and -3 silently ran one worker.
        cfg = small_experiment(trials=2)
        for sweep in (run_rate_sweep, run_ber_sweep):
            with pytest.raises(InvalidInputError, match="workers must be an integer >= 1, got "):
                sweep(cfg, workers=workers)
        assert run_rate_sweep(cfg, workers=np.int64(2)) == run_rate_sweep(cfg)


QUANTIZED_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "quantized.yaml")


def _quantized_experiment(**overrides):
    return dataclasses.replace(cli.build_experiment_config(cli.load_config(QUANTIZED_CONFIG)),
                               **overrides)


class TestTrialBlocks:
    @pytest.mark.parametrize("make_cfg, budget", [
        (lambda: small_experiment(), None),
        (lambda: small_experiment(allocation="water_filling"), 2),
        (lambda: _quantized_experiment(trials=5), None),
    ], ids=["unitary", "water_filling", "quantized"])
    def test_block_size_does_not_move_the_sweeps(self, monkeypatch, make_cfg, budget):
        # Blocks of 1 and 3 trials (a partial last block) and, where `budget` is set, blocks
        # that BLOCK_BYTES bounds to that many targets (fewer than one trial's groups), against
        # the default: rates within 1e-12 relative, everything else (BER counts included)
        # byte-identical.
        cfg = make_cfg()
        groups = len(runner._groups(cfg))
        blockings = [(size, runner.BLOCK_BYTES, size * groups)
                     for size in (runner.BLOCK_TRIALS, 1, 3)]
        if budget:
            blockings.append((runner.BLOCK_TRIALS, budget * runner._target_bytes(cfg), budget))
        outputs = []
        for trials, budget_bytes, targets in blockings:
            monkeypatch.setattr(runner, "BLOCK_TRIALS", trials)
            monkeypatch.setattr(runner, "BLOCK_BYTES", budget_bytes)
            assert runner._block_targets(cfg) == targets
            outputs.append((run_rate_sweep(cfg), run_ber_sweep(cfg)))
        rate, ber = outputs[0]
        for got_rate, got_ber in outputs[1:]:
            assert got_ber == ber
            got, expected = got_rate.splitlines(), rate.splitlines()
            assert len(got) == len(expected)
            assert [ln for ln in got if ln[0] == "#"] == [ln for ln in expected if ln[0] == "#"]
            table, reference = parse_csv(got_rate), parse_csv(rate)
            assert table.keys() == reference.keys()
            for column, cells in reference.items():
                if column in ("mean_rate", "stderr"):
                    assert np.all(np.abs(np.array(table[column], float) - np.array(cells, float))
                                  <= 1e-12 * np.abs(np.array(cells, float)))
                else:
                    assert table[column] == cells

    @pytest.mark.parametrize("allocation", ["unitary", "water_filling"])
    def test_block_state_fits_the_budget_at_the_range_maxima(self, allocation):
        top = {name: cli.RANGES[name][1] for name in ("tx_antennas", "angle_codebook_size",
                                                        "streams", "k")}
        cfg = reference_experiment(
            channel=ChannelConfig(tx=ArrayGeometry(top["tx_antennas"]), rx=ArrayGeometry(64),
                                  num_clusters=4, rays_per_cluster=4),
            streams=top["streams"], allocation=allocation,
            schemes=(OptimalScheme(), ProposedScheme(k=top["k"], gamma=2,
                                                     angle_codebook_size=top["angle_codebook_size"]),
                     SparseScheme(q=top["k"], angle_codebook_size=top["angle_codebook_size"])))
        assert runner._block_targets(cfg) >= 1
        assert runner._block_targets(cfg) * runner._target_bytes(cfg) <= runner.BLOCK_BYTES

    @pytest.mark.parametrize("m", [32, 8])
    def test_target_bytes_bound_the_omp_state(self, m):
        # The arrays an OmpPath holds per target (the shared, read-only Psi^H aside) stay within
        # `_target_bytes`, after every K the schemes read; at M = 8 the path's K = 12 exceeds M.
        cfg = small_experiment(channel=ChannelConfig(tx=ArrayGeometry(m), rx=ArrayGeometry(8),
                                                     num_clusters=4, rays_per_cluster=3),
                               schemes=(ProposedScheme(k=12, gamma=2, angle_codebook_size=64),))
        spec, k = cfg.schemes[0].omp_basis(cfg)
        ch = sample_channel(cfg.channel, substream(cfg.seed, 0))
        targets = [optimal_precoder(ch.matrix, cfg.streams, PowerAllocation("unitary"))] * 5
        path = OmpPath(targets, spec, k)
        path.at(k, 0)
        held = sum(a.nbytes for a in vars(path).values() if isinstance(a, np.ndarray)
                   and a.flags.writeable)
        assert held <= len(targets) * runner._target_bytes(cfg)


def _rows_by_label(csv):
    """A sweep CSV's data rows, as text, grouped by their scheme label in row order."""
    rows = {}
    for line in [ln for ln in csv.splitlines() if not ln.startswith("#")][1:]:
        rows.setdefault(line.split(",", 1)[0], []).append(line)
    return rows


def assert_permuted_schemes_permute_the_rows(cfg, order):
    """Metamorphic relation: the sweeps of `cfg` with its schemes in `order` give each scheme
    the same rate and BER rows, bitwise, in the permuted order."""
    permuted = dataclasses.replace(cfg, schemes=tuple(cfg.schemes[i] for i in order))
    for sweep in (run_rate_sweep, run_ber_sweep):
        got, expected = _rows_by_label(sweep(permuted)), _rows_by_label(sweep(cfg))
        assert list(got) == [cfg.schemes[i].label for i in order]
        assert got == expected


class TestSchemeOrder:
    @settings(max_examples=25, deadline=None)
    @given(cfg=rate_configs(symbols=st.integers(1, 32)), trials=st.integers(1, 5),
           order=st.permutations(range(4)))
    def test_permuted_schemes_permute_the_rows(self, cfg, trials, order):
        assert_permuted_schemes_permute_the_rows(dataclasses.replace(cfg, trials=trials), order)

    def test_reference_schemes_rotated(self):
        # A rotation, not a reversal: a reversed list read through a reversed index would
        # give each label its own row again.
        assert_permuted_schemes_permute_the_rows(reference_experiment(trials=3),
                                                 (1, 2, 3, 4, 5, 0))


def _rows_by_cell(csv):
    """A sweep CSV's data rows, as text, keyed on their (scheme label, snr_db) as printed."""
    return {tuple(ln.split(",", 2)[:2]): ln
            for ln in [ln for ln in csv.splitlines() if not ln.startswith("#")][1:]}


def assert_scheme_subset_keeps_the_rows(cfg, keep):
    """Metamorphic relation: a sweep of the schemes `keep` (indices, in order) gives each of
    them the full sweep's BER rows, bitwise, and its rates within 1e-12 relative."""
    subset = dataclasses.replace(cfg, schemes=tuple(cfg.schemes[i] for i in keep))
    full, got = _rows_by_cell(run_ber_sweep(cfg)), _rows_by_cell(run_ber_sweep(subset))
    assert len(got) == len(keep) * len(cfg.snr_db_grid)
    assert all(full[cell] == row for cell, row in got.items())
    full, got = parse_csv(run_rate_sweep(cfg)), parse_csv(run_rate_sweep(subset))
    rows = {cell: i for i, cell in enumerate(zip(full["scheme"], full["snr_db"]))}
    picked = [rows[cell] for cell in zip(got["scheme"], got["snr_db"])]
    assert len(picked) == len(keep) * len(cfg.snr_db_grid)
    for column, cells in full.items():
        expected = [cells[i] for i in picked]
        if column in ("mean_rate", "stderr"):
            expected = np.array(expected, float)
            assert np.all(np.abs(np.array(got[column], float) - expected) <= 1e-12 * np.abs(expected))
        else:
            assert got[column] == expected


def assert_snr_subset_keeps_the_cells(cfg, cols):
    """Metamorphic relation: a sweep over the SNR points `cols` (indices, in order) gives the
    full sweep's rate rows there, bitwise, under unitary allocation; and its BER rows when
    `cols` is a prefix of the grid, since each BER block is drawn from its SNR index."""
    sub = dataclasses.replace(cfg, snr_db_grid=tuple(cfg.snr_db_grid[j] for j in cols))
    sweeps = ([run_rate_sweep] if cfg.allocation == "unitary" else []) \
        + ([run_ber_sweep] if list(cols) == list(range(len(cols))) else [])
    for sweep in sweeps:
        full, got = _rows_by_cell(sweep(cfg)), _rows_by_cell(sweep(sub))
        assert len(got) == len(cfg.schemes) * len(cols)
        assert all(full[cell] == row for cell, row in got.items())


class TestSweepSubsets:
    @settings(max_examples=20, deadline=None)
    @given(cfg=rate_configs(symbols=st.integers(1, 32)), trials=st.integers(1, 4),
           keep=st.lists(st.booleans(), min_size=4, max_size=4).filter(any))
    def test_scheme_subset_keeps_the_rows(self, cfg, trials, keep):
        assert_scheme_subset_keeps_the_rows(dataclasses.replace(cfg, trials=trials),
                                            [i for i, kept in enumerate(keep) if kept])

    @settings(max_examples=20, deadline=None)
    @given(cfg=rate_configs(symbols=st.integers(1, 32)), trials=st.integers(1, 4),
           grid=st.lists(st.sampled_from([-20.0, -10.0, -5.0, 0.0, 5.0, 7.5, 10.0, 20.0]),
                         min_size=2, max_size=5, unique=True),
           data=st.data())
    def test_unitary_snr_subgrid_keeps_the_rate_cells(self, cfg, trials, grid, data):
        cols = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid))
                         .filter(any))
        cfg = dataclasses.replace(cfg, trials=trials, snr_db_grid=tuple(grid), allocation="unitary")
        assert_snr_subset_keeps_the_cells(cfg, [j for j, kept in enumerate(cols) if kept])

    @settings(max_examples=20, deadline=None)
    @given(cfg=rate_configs(symbols=st.integers(1, 32)), trials=st.integers(1, 4),
           grid=st.lists(st.sampled_from([-20.0, -10.0, -5.0, 0.0, 5.0, 7.5, 10.0, 20.0]),
                         min_size=2, max_size=5, unique=True),
           data=st.data())
    def test_snr_prefix_keeps_the_ber_cells(self, cfg, trials, grid, data):
        n = data.draw(st.integers(1, len(grid) - 1))
        cfg = dataclasses.replace(cfg, trials=trials, snr_db_grid=tuple(grid))
        assert_snr_subset_keeps_the_cells(cfg, range(n))

    def test_reference_subsets(self):
        # The reference schemes share one basis spec; without K = 16 its path runs 8 picks, not
        # 16. The sub-grid skips points; the prefix keeps the first three.
        cfg = reference_experiment(trials=5)
        assert_scheme_subset_keeps_the_rows(cfg, [0, 2, 4])
        assert_snr_subset_keeps_the_cells(cfg, [1, 4, 12])
        assert_snr_subset_keeps_the_cells(cfg, [0, 1, 2])

    @pytest.mark.parametrize("block, allocation, n, m, budget", [
        ("_rate_block", "unitary", 5, 23, None),
        ("_rate_block", "water_filling", 5, 23, None),
        ("_ber_block", "unitary", 3, 7, None),
        ("_ber_block", "water_filling", 3, 7, None),
        ("_ber_block", "water_filling", 3, 7, 5),
    ], ids=["rate", "rate-wf", "ber", "ber-wf", "ber-wf-straddled"])
    def test_trial_prefix_keeps_the_targets(self, monkeypatch, block, allocation, n, m, budget):
        # Metamorphic relation: the per-target results of an n-trial sweep are, bitwise, the first
        # n G of an m-trial sweep's. Blocks hold 16 trials' targets, so the n-trial sweep's one
        # block ends where the m-trial sweep's first block goes on. With `budget`, BLOCK_BYTES
        # cuts blocks of that many targets, which straddle the 13-group trials.
        cfg = reference_experiment(allocation=allocation)
        if budget:
            monkeypatch.setattr(runner, "BLOCK_BYTES", budget * runner._target_bytes(cfg))
        short, long = (runner._map_targets(getattr(runner, block),
                                           dataclasses.replace(cfg, trials=t), 1) for t in (n, m))
        groups = len(runner._groups(cfg))
        assert (len(short), len(long)) == (n * groups, m * groups)
        for got, expected in zip(short, long):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS; None where it is absent."""
    numpy_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(numpy_libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get_threads is not None and set_threads is not None:
            return get_threads, set_threads
    return None


def _blas_threads(cfg, targets):
    """Per target, the thread count of numpy's bundled OpenBLAS in this process."""
    return [_openblas_threads()[0]()] * len(targets)


def test_pool_workers_run_one_blas_thread(monkeypatch):
    # Blocks run at one OpenBLAS thread at every worker count, in process too; there, the
    # caller's count is restored when the sweep returns.
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    get_threads, set_threads = threads
    monkeypatch.setattr(runner.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(runner, "BLOCK_TRIALS", 1)          # four blocks, so the pool runs
    before = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("numpy's bundled OpenBLAS does not take 2 threads here")
        for workers in (1, 2):
            assert runner._map_targets(_blas_threads, small_experiment(trials=4), workers) == [1] * 4
            assert get_threads() == 2
        run_ber_sweep(small_experiment(trials=2), workers=1)
        assert get_threads() == 2
    finally:
        set_threads(before)


class TestRateSweep:
    def test_deterministic_across_worker_counts(self):
        cfg = small_experiment(trials=19)            # a block of 16 and a partial one of 3
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
        cfg = small_experiment(trials=19, allocation=allocation)  # blocks of 16 and 3 trials
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
        (dict(gammas=np.array([], int)), "beam_pattern.gammas"),
        (dict(gammas=np.array([2, 2])), "beam_pattern.gammas"),
        (dict(gammas=4), "beam_pattern.gammas"),
        (dict(gammas=None), "beam_pattern.gammas"),
        (dict(gammas=np.array(4)), "beam_pattern.gammas"),
        (dict(gammas="12"), "beam_pattern.gammas"),
        (dict(gammas=[1, True]), "beam_pattern.gammas"),
        (dict(gammas=np.zeros((1, 2), int)), "beam_pattern.gammas"),
    ])
    def test_beam_pattern_config_names_field(self, kwargs, field):
        # A library-built config fails where the CLI's would, naming the field.
        with pytest.raises(InvalidInputError, match=field):
            small_experiment(beam_pattern=BeamPatternConfig(**kwargs))

    @pytest.mark.parametrize("gammas", [[1, 2, 4], (1, 2, 4), range(1, 5, 3), np.array([1, 2, 4]),
                                        np.array([1, 2], dtype=object), np.ones(1, np.uint8)])
    def test_beam_pattern_gammas_take_any_iterable_of_counts(self, gammas):
        # Stored as a tuple of ints, as `schemes` is stored as a tuple. A generator of the same
        # counts is refused by name, as every sequence field refuses an iterator.
        built = BeamPatternConfig(gammas=gammas)
        assert built.gammas == tuple(int(g) for g in gammas)
        assert type(built.gammas) is tuple and all(type(g) is int for g in built.gammas)
        with pytest.raises(InvalidInputError, match=r"beam_pattern\.gammas must be a list, tuple, range"):
            BeamPatternConfig(gammas=(g for g in gammas))

    def test_non_integer_gamma_rejected(self):
        # gamma = 2.5 would build 3 beams scaled by 1/sqrt(2.5) under a `g2.5` label.
        with pytest.raises(InvalidInputError,
                           match=r"schemes\[1\]\.gamma must be an integer >= 1, got 2\.5"):
            small_experiment(schemes=(OptimalScheme(), ProposedScheme(k=4, gamma=2.5,
                                                                      angle_codebook_size=64)))

    @pytest.mark.parametrize("overrides, field, kind", [
        (dict(channel="x"), "channel", "a ChannelConfig"),
        (dict(channel=None), "channel", "a ChannelConfig"),
        (dict(beam_pattern=None), "beam_pattern", "a BeamPatternConfig"),
        (dict(beam_pattern={"gammas": (1, 2)}), "beam_pattern", "a BeamPatternConfig"),
        (dict(schemes=(OptimalScheme(), ProposedScheme(k=2, coeff_codebook="ideal"))),
         r"schemes\[1\]\.coeff_codebook", "a ComplexCodebook"),
        (dict(schemes=(MultilevelScheme(k=2, coeff_codebook=None),)),
         r"schemes\[0\]\.coeff_codebook", "a ComplexCodebook"),
    ])
    def test_held_objects_must_be_their_types(self, overrides, field, kind):
        # Refused by name, not by an AttributeError in the constructor, a KeyError from a
        # scheme's label or an AttributeError in `run_beam_pattern`.
        with pytest.raises(InvalidInputError, match=f"^{field} must be {kind}, got"):
            small_experiment(**overrides)

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
        with pytest.raises(InvalidInputError, match="seed must be an integer >= 0, got -1"):
            small_experiment(seed=-1)


def _channel(**fields):
    base = dict(tx=ArrayGeometry(8), rx=ArrayGeometry(4), num_clusters=4, rays_per_cluster=3)
    return ChannelConfig(**{**base, **fields})


# Every count (a valid int) and positive-real (a valid float, exact in float16) field of the
# library's config types: (the field as its error names it, a valid value, the object built with
# a given value). A scheme's fields are checked when an experiment holds it. The other fields
# leave every relation slack, so that an error names the field under test.
SCALAR_FIELDS = [
    ("num_elements", 8, lambda v: ArrayGeometry(v)),
    ("spacing_over_wavelength", 0.5, lambda v: ArrayGeometry(8, v)),
    ("num_clusters", 4, lambda v: _channel(num_clusters=v)),
    ("rays_per_cluster", 3, lambda v: _channel(rays_per_cluster=v)),
    ("angular_spread", 2.0 ** -6, lambda v: _channel(angular_spread=v)),
    ("codebook size", 64, lambda v: AngleCodebook((-1.0, 1.0), v)),
    ("gamma", 2, lambda v: BasisSpec(AngleCodebook((-1.0, 1.0), 64), ArrayGeometry(8), v)),
    ("magnitude_levels", 16, lambda v: ComplexCodebook.uniform_polar(v, 16)),
    ("phase_levels", 16, lambda v: ComplexCodebook.uniform_polar(16, v)),
    ("total_power", 10.0, lambda v: PowerAllocation("water_filling", total_power=v)),
    ("schemes[0].k", 8, lambda v: small_experiment(schemes=(ProposedScheme(k=v),))),
    ("schemes[0].gamma", 2, lambda v: small_experiment(schemes=(ProposedScheme(k=4, gamma=v),))),
    ("schemes[0].angle_codebook_size", 64,
     lambda v: small_experiment(schemes=(ProposedScheme(k=1, angle_codebook_size=v),))),
    ("schemes[0].q", 8, lambda v: small_experiment(schemes=(SparseScheme(q=v),))),
    ("schemes[0].angle_codebook_size", 64,
     lambda v: small_experiment(streams=1, schemes=(SparseScheme(q=1, angle_codebook_size=v),))),
    ("schemes[0].k", 8, lambda v: small_experiment(schemes=(MultilevelScheme(k=v),))),
    ("schemes[0].angle_codebook_size", 64,
     lambda v: small_experiment(schemes=(MultilevelScheme(k=1, angle_codebook_size=v),))),
    ("beam_pattern.codebook_size", 32, lambda v: BeamPatternConfig(codebook_size=v, center_index=0)),
    ("beam_pattern.center_index", 8, lambda v: BeamPatternConfig(center_index=v)),
    ("beam_pattern.grid_size", 64, lambda v: BeamPatternConfig(grid_size=v)),
    ("beam_pattern.gammas[0]", 8, lambda v: BeamPatternConfig(gammas=(v,))),
    ("streams", 2, lambda v: small_experiment(streams=v, schemes=(OptimalScheme(),))),
    ("trials", 8, lambda v: small_experiment(trials=v)),
    ("symbols_per_trial", 8, lambda v: small_experiment(symbols_per_trial=v)),
    ("seed", 8, lambda v: small_experiment(seed=v)),
]
HOSTILE_SCALARS = [True, False, None, "8", 8.0, 8.5, math.nan, math.inf, -math.inf, -1, 0,
                   np.array([8, 8]), np.float64(8.0), np.bool_(True)]
NUMPY_SCALARS = [np.int8, np.int32, np.int64, np.uint16, np.uint64, np.float16, np.float32,
                 np.float64]


def _render(built):
    """An experiment config's overhead table (its labels and bit counts); other types as built."""
    return run_overhead_table(built) if isinstance(built, ExperimentConfig) else built


@settings(max_examples=60, deadline=None)
@given(value=st.one_of(st.sampled_from(HOSTILE_SCALARS), st.integers(-2, 300), st.integers(),
                      st.floats()),
       numpy_type=st.sampled_from(NUMPY_SCALARS))
def test_library_scalar_fields_refuse_by_name(value, numpy_type):
    # The library API's counterpart of the CLI fuzz: each field either takes the value or raises
    # InvalidInputError naming it, never a bare TypeError, AttributeError or IndexError. A count
    # takes only integers and a positive real only reals, never a bool. The field's valid value
    # as a numpy scalar of its kind is taken, and gives what the Python value gives.
    for name, valid, build in SCALAR_FIELDS:
        count = isinstance(valid, int)
        try:
            _render(build(value))
        except InvalidInputError as exc:
            assert name in str(exc), (name, value, exc)
        else:
            kind = (int, np.integer) if count else (int, float, np.integer, np.floating)
            assert isinstance(value, kind) and not isinstance(value, bool), (name, value)
        if count == issubclass(numpy_type, np.integer):
            assert _render(build(numpy_type(valid))) == _render(build(valid)), (name, numpy_type)


def _python(x):
    return x.item() if isinstance(x, np.generic) else x


# Every sequence-of-reals field of the library's config types: (a pattern of the field as its
# errors name it, its length or None for one or more, the object built with a given value).
SEQUENCE_FIELDS = [
    ("tx_sector", 2, lambda v: _channel(tx_sector=v)),
    ("rx_sector", 2, lambda v: _channel(rx_sector=v)),
    ("sector", 2, lambda v: AngleCodebook(v, 64)),
    ("beam_pattern.sector", 2, lambda v: BeamPatternConfig(sector=v)),
    (r"snr_db(_grid|\[\d+\])", None, lambda v: small_experiment(snr_db_grid=v, trials=1)),
]
HOSTILE_ENTRIES = [True, False, np.bool_(True), None, "0.5", [0.5], 1j, math.nan, math.inf,
                   np.float16(-0.5), np.float32(0.25), np.int64(-1), np.uint8(1)]
# A value built from drawn entries, afresh for each field (a generator is read once).
CONTAINERS = {
    "list": list, "tuple": tuple, "generator": lambda e: (x for x in e),
    "object array": lambda e: np.array(e + [None], dtype=object)[:-1],   # 1-D, even of lists
    "float array": lambda e: np.deg2rad(np.linspace(-10, 10, len(e))),
    "bool array": lambda e: np.ones(len(e), bool), "str array": lambda e: np.array(["0.5"] * len(e)),
    "2-D array": lambda e: np.zeros((1, len(e))), "0-d array": lambda e: np.array(0.5),
    "range": lambda e: range(-len(e) // 2, len(e) // 2), "scalar": lambda e: 0.5, "None": lambda e: None,
}
SCHEME_ENTRIES = [OptimalScheme(), ProposedScheme(k=4, angle_codebook_size=64), None, "optimal", 4]


@settings(max_examples=60, deadline=None)
@given(container=st.sampled_from(sorted(CONTAINERS)),
       entries=st.lists(st.one_of(st.sampled_from(HOSTILE_ENTRIES), st.integers(-4, 4),
                                  st.floats(-4, 4)), max_size=4),
       schemes=st.lists(st.sampled_from(SCHEME_ENTRIES), max_size=3))
def test_library_sequence_fields_refuse_by_name(container, entries, schemes):
    # The sequence fields' counterpart of `test_library_scalar_fields_refuse_by_name`: a sector
    # or SNR grid is taken only as a list, tuple, range or 1-D array of reals (of two for a
    # sector), never of bools, and gives what the same Python numbers give; the schemes are
    # taken by the same rule, of scheme objects, stored as a tuple. Anything else raises
    # InvalidInputError naming the field, never a bare TypeError or ValueError.
    wrap = CONTAINERS[container]
    for name, size, build in SEQUENCE_FIELDS:
        value = wrap(list(entries))
        try:
            built = build(value)
        except InvalidInputError as exc:
            assert re.search(name, str(exc)), (name, value, exc)
            continue
        taken = (list(value) if isinstance(value, (list, tuple, range))
                 else value.tolist() if isinstance(value, np.ndarray) and value.ndim == 1 else [])
        assert 0 < len(taken) == (size or len(taken)), (name, value)
        assert all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
                   for x in taken), (name, value)
        assert built == build(tuple(map(_python, taken))), (name, value)
    try:
        built = small_experiment(schemes=wrap(list(schemes)))
    except InvalidInputError as exc:
        assert "schemes" in str(exc), (schemes, exc)
    else:
        assert isinstance(built.schemes, tuple) and len(set(built.schemes)) == len(schemes) > 0
        assert all(isinstance(s, runner._Scheme) for s in built.schemes), schemes


# Every sequence field read by `numerics._sequence` whose entries are not a sector's: (the field
# as its error names it, valid entries, the object built with a given value).
ORDERED_FIELDS = [
    ("schemes", [OptimalScheme(), ProposedScheme(k=4, angle_codebook_size=64)],
     lambda v: small_experiment(schemes=v)),
    (r"beam_pattern\.gammas", [1, 2, 4], lambda v: BeamPatternConfig(gammas=v)),
    ("snr_db_grid", [-10.0, 0.0, 10.0], lambda v: small_experiment(snr_db_grid=v)),
    ("angle indices", [1, 5], lambda v: feedback.FeedbackReport(
        v, np.ones((2, 1)), BasisSpec(AngleCodebook((-1.0, 1.0), 16), ArrayGeometry(8)),
        ComplexCodebook.ideal())),
]
UNORDERED = {
    "set": set, "frozenset": frozenset, "dict": dict.fromkeys, "dict keys": lambda e: dict.fromkeys(e).keys(),
    "generator": lambda e: (x for x in e), "endless": lambda e: itertools.count(1),
}


@pytest.mark.parametrize("container", sorted(UNORDERED))
@pytest.mark.parametrize("name, entries, build", ORDERED_FIELDS, ids=[f[0] for f in ORDERED_FIELDS])
def test_sequence_fields_refuse_unordered_containers(name, entries, build, container):
    # A set's order changes with the hash seed (a set of four schemes gave four CSV row orders
    # under PYTHONHASHSEED 1 to 4), and an endless iterator was read until memory ran out. Each
    # is refused at once, naming the field; the same entries in a tuple are taken.
    with pytest.raises(InvalidInputError, match=f"{name} must be a list, tuple, range or 1-D array"):
        build(UNORDERED[container](entries))
    build(tuple(entries))


@pytest.mark.parametrize("value", [np.array(["unitary", "x"]), np.array([1, 2]), ["unitary"], None, 1],
                         ids=["str array", "int array", "list", "None", "int"])
@pytest.mark.parametrize("name, valid, build", [
    ("allocation mode", "water_filling", lambda v: PowerAllocation(v)),
    ("complex codebook mode", "ideal", lambda v: ComplexCodebook(v)),
    ("allocation: must be", "water_filling", lambda v: small_experiment(allocation=v)),
], ids=["PowerAllocation", "ComplexCodebook", "ExperimentConfig"])
def test_mode_names_refuse_non_strings_by_name(name, valid, build, value):
    # A numpy array reached `in MODES` and raised numpy's bare "truth value of an array is
    # ambiguous" ValueError. A numpy string is a string, and builds what the str builds.
    with pytest.raises(InvalidInputError, match=name):
        build(value)
    assert build(np.str_(valid)) == build(valid)


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


def hand_written_label(scheme):
    """A scheme's label in the four formats each scheme class once spelled out for itself."""
    cc = getattr(scheme, "coeff_codebook", ComplexCodebook.ideal())
    coeff = "" if cc.mode == "ideal" else f"_m{cc.magnitude_levels}p{cc.phase_levels}"
    if isinstance(scheme, OptimalScheme):
        return "optimal"
    if isinstance(scheme, ProposedScheme):
        return f"proposed_k{scheme.k}_g{scheme.gamma}_cb{scheme.angle_codebook_size}" + coeff
    if isinstance(scheme, SparseScheme):
        return f"sparse_q{scheme.q}_cb{scheme.angle_codebook_size}"
    return f"multilevel_k{scheme.k}_cb{scheme.angle_codebook_size}" + coeff


class TestLabels:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(sorted(SCHEMES)), k=st.integers(1, 128), gamma=st.integers(1, 64),
           size_bits=st.integers(0, 12), levels=st.tuples(st.integers(0, 16), st.integers(0, 16)),
           quantized=st.booleans(), integer=st.sampled_from([int, np.int64, np.int32, np.uint16]))
    def test_label_is_the_hand_written_format(self, kind, k, gamma, size_bits, levels, quantized,
                                              integer):
        size = integer(2 ** size_bits)
        cc = (ComplexCodebook.uniform_polar(*(2 ** b for b in levels)) if quantized
              else ComplexCodebook.ideal())
        scheme = {
            "optimal": lambda: OptimalScheme(),
            "proposed": lambda: ProposedScheme(k=integer(k), gamma=integer(gamma),
                                               angle_codebook_size=size, coeff_codebook=cc),
            "sparse": lambda: SparseScheme(q=integer(k), angle_codebook_size=size),
            "multilevel": lambda: MultilevelScheme(k=integer(k), angle_codebook_size=size,
                                                   coeff_codebook=cc),
        }[kind]()
        # SparseScheme's K, gamma and ideal codebook are class attributes, so not in its label.
        assert scheme.label == hand_written_label(scheme)

    def test_numpy_integer_fields_make_a_duplicate_label(self):
        with pytest.raises(InvalidInputError, match="labels"):
            small_experiment(schemes=(ProposedScheme(k=4, angle_codebook_size=64),
                                      ProposedScheme(k=np.int64(4), angle_codebook_size=64)))

    def test_numpy_integer_fields_give_the_same_bytes(self):
        # The reference schemes, two of them on a 16 x 16 polar codebook, with every integer
        # field and codebook level an np.int64: the same labels, bits, rates and bit errors.
        def numpy_fields(scheme):
            values = {}
            for f in dataclasses.fields(scheme):
                v = getattr(scheme, f.name)
                if not isinstance(v, ComplexCodebook):
                    values[f.name] = np.int64(v)
                elif v.mode != "ideal":
                    values[f.name] = ComplexCodebook.uniform_polar(np.int64(v.magnitude_levels),
                                                                   np.int64(v.phase_levels))
            return dataclasses.replace(scheme, **values)

        cc = ComplexCodebook.uniform_polar(16, 16)
        opt, k6, k8, k16, sparse, multilevel = reference_experiment().schemes
        schemes = (opt, k6, k8, dataclasses.replace(k16, gamma=2, coeff_codebook=cc), sparse,
                   dataclasses.replace(multilevel, coeff_codebook=cc))
        python = reference_experiment(trials=3, schemes=schemes)
        numpy = reference_experiment(trials=3, schemes=tuple(numpy_fields(s) for s in schemes))
        assert run_overhead_table(numpy) == run_overhead_table(python)
        for sweep in (run_rate_sweep, run_ber_sweep):
            assert sweep(numpy) == sweep(python)

    def test_numpy_built_reference_config_gives_the_same_bytes(self):
        # The reference config as a numpy user writes it: the SNR grid from np.arange, the
        # sectors from np.deg2rad, array gammas and np.int64 sizes. Every CSV, its `# config:`
        # line included, equals the CLI's; the sweep CSV raised a TypeError after the sweep.
        cli_cfg = reference_experiment()
        twin = ExperimentConfig(
            channel=ChannelConfig(tx=ArrayGeometry(np.int64(128)), rx=ArrayGeometry(np.int64(16)),
                                  num_clusters=np.int64(12), rays_per_cluster=np.int64(20),
                                  tx_sector=np.deg2rad([-45, 45]), rx_sector=np.deg2rad([-180, 180]),
                                  angular_spread=np.deg2rad(0.875)),
            streams=np.int64(4), schemes=list(cli_cfg.schemes), snr_db_grid=np.arange(-20, 10.1, 2.5),
            trials=np.int64(200), symbols_per_trial=np.int64(1000), seed=np.int64(20250809),
            beam_pattern=BeamPatternConfig(sector=np.deg2rad([-30, 30]), codebook_size=np.int64(16),
                                           center_index=np.int64(8), grid_size=np.int64(2048),
                                           gammas=np.array([1, 2, 4])))
        assert run_overhead_table(twin) == run_overhead_table(cli_cfg)
        assert run_beam_pattern(twin) == run_beam_pattern(cli_cfg)
        for sweep, trials in ((run_rate_sweep, 3), (run_ber_sweep, 2)):
            assert (sweep(dataclasses.replace(twin, trials=trials))
                    == sweep(dataclasses.replace(cli_cfg, trials=trials)))


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
            stage = runner._Stage(cfg, trial_targets(cfg, trial))     # one target per draw
            assert [t for t, *_ in stage.targets] == [trial]
            assert np.array_equal(stage.precoders[0, 2], expected / np.linalg.norm(expected))

    def test_fields_are_the_config_keys(self):
        # K = Q, gamma = 1 and the ideal codebook are class attributes, not fields, so a sparse
        # config node and the `# config:` JSON still hold `q` and `angle_codebook_size` alone.
        assert [f.name for f in dataclasses.fields(SparseScheme)] == ["q", "angle_codebook_size"]
        scheme = SparseScheme(q=8, angle_codebook_size=64)
        assert dataclasses.asdict(scheme) == {"q": 8, "angle_codebook_size": 64}
        assert (scheme.k, scheme.gamma, scheme.coeff_codebook) == (8, 1, ComplexCodebook.ideal())
