import numpy as np
import pytest

from fapsim.benchmarks import SparsePrecoderConfig, multilevel_csi_feedback, sparse_precoder
from fapsim.channel import (ArrayGeometry, ChannelConfig, ChannelRealization, channel_from_paths,
                            sample_channel, substream)
from fapsim.errors import InvalidInputError
from fapsim.feedback import (AngleCodebook, BasisSpec, ComplexCodebook, build_report,
                             dictionary, overhead_bits, reconstruct_precoder)
from fapsim.numerics import least_squares
from fapsim.precoding import PowerAllocation, optimal_precoder

QUARTER = (-np.pi / 4, np.pi / 4)
UNITARY = PowerAllocation("unitary")


def sample_setup(seed, m=32, n=8, clusters=4, rays=3):
    cfg = ChannelConfig(tx=ArrayGeometry(m), rx=ArrayGeometry(n),
                        num_clusters=clusters, rays_per_cluster=rays)
    return cfg, sample_channel(cfg, substream(seed, 0))


class TestSparsePrecoder:
    def test_equivalence_with_proposed_at_k_q(self):
        # With a single-beam basis and K = Q the two designs coincide exactly.
        for seed in range(5):
            cfg, ch = sample_setup(seed)
            f_opt = optimal_precoder(ch.matrix, 2, UNITARY)
            codebook = AngleCodebook(QUARTER, 64)
            bench = SparsePrecoderConfig(num_rf_chains=6, codebook=codebook, tx=cfg.tx)
            f_rf, f_bb = sparse_precoder(f_opt, bench)

            spec = BasisSpec(codebook=codebook, tx=cfg.tx, gamma=1)
            report = build_report(f_opt, spec, 6, ComplexCodebook.ideal())
            f_hat = reconstruct_precoder(report, spec).matrix

            product = f_rf @ f_bb
            product /= np.linalg.norm(product)
            assert np.max(np.abs(product - f_hat)) <= 1e-12

    def test_rf_columns_constant_modulus(self):
        cfg, ch = sample_setup(7)
        f_opt = optimal_precoder(ch.matrix, 2, UNITARY)
        bench = SparsePrecoderConfig(num_rf_chains=4,
                                     codebook=AngleCodebook(QUARTER, 32), tx=cfg.tx)
        f_rf, _ = sparse_precoder(f_opt, bench)
        assert np.max(np.abs(np.abs(f_rf) - 1.0 / np.sqrt(32))) <= 1e-12

    def test_full_codebook_hits_projection_error(self):
        cfg, ch = sample_setup(11, m=16)
        f_opt = optimal_precoder(ch.matrix, 2, UNITARY)
        codebook = AngleCodebook(QUARTER, 8)
        bench = SparsePrecoderConfig(num_rf_chains=8, codebook=codebook, tx=cfg.tx)
        f_rf, _ = sparse_precoder(f_opt, bench)
        assert f_rf.shape == (16, 8)
        g_ls = least_squares(f_rf, f_opt.matrix)
        residual = np.linalg.norm(f_opt.matrix - f_rf @ g_ls)
        psi = dictionary(BasisSpec(codebook=codebook, tx=cfg.tx, gamma=1))
        proj_err = np.linalg.norm(f_opt.matrix - psi @ (np.linalg.pinv(psi) @ f_opt.matrix))
        assert residual == pytest.approx(proj_err, abs=1e-9)

    def test_unit_product_norm(self):
        cfg, ch = sample_setup(13)
        f_opt = optimal_precoder(ch.matrix, 2, UNITARY)
        bench = SparsePrecoderConfig(num_rf_chains=5,
                                     codebook=AngleCodebook(QUARTER, 32), tx=cfg.tx)
        f_rf, f_bb = sparse_precoder(f_opt, bench)
        assert np.linalg.norm(f_rf @ f_bb) == pytest.approx(1.0, abs=1e-9)

    def test_q_below_streams_rejected(self):
        cfg, ch = sample_setup(17)
        f_opt = optimal_precoder(ch.matrix, 3, UNITARY)
        bench = SparsePrecoderConfig(num_rf_chains=2,
                                     codebook=AngleCodebook(QUARTER, 32), tx=cfg.tx)
        with pytest.raises(InvalidInputError):
            sparse_precoder(f_opt, bench)


IDEAL = ComplexCodebook.ideal()


class TestMultilevelCsi:
    def test_lossless_when_angles_on_grid(self):
        # Paths placed exactly on codebook centers + ideal coefficients: H_hat == H.
        cfg = ChannelConfig(tx=ArrayGeometry(16), rx=ArrayGeometry(4),
                            num_clusters=2, rays_per_cluster=3)
        aod_cb = AngleCodebook(cfg.tx_sector, 64)
        aoa_cb = AngleCodebook(cfg.rx_sector, 64)
        rng = np.random.default_rng(19)
        gains = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        aod = aod_cb.centers[rng.integers(64, size=6)]
        aoa = aoa_cb.centers[rng.integers(64, size=6)]
        h = channel_from_paths(gains, aod, aoa, cfg.tx, cfg.rx)
        ch = ChannelRealization(matrix=h, gains=gains, aod=aod, aoa=aoa)
        h_hat = multilevel_csi_feedback(ch, cfg, 6, 64, IDEAL)
        assert np.linalg.norm(h_hat - h) <= 1e-9 * np.linalg.norm(h)

    def test_single_path_rank_one(self):
        cfg, ch = sample_setup(23)
        h_hat = multilevel_csi_feedback(ch, cfg, 1, 256, IDEAL)
        assert np.linalg.matrix_rank(h_hat, tol=1e-9) == 1

    def test_error_non_increasing_in_k(self):
        cfg, ch = sample_setup(3)      # 12 paths, seed with monotone truncation
        errors = []
        for k in range(1, ch.gains.size + 1):
            h_hat = multilevel_csi_feedback(ch, cfg, k, 4096, IDEAL)
            errors.append(np.linalg.norm(ch.matrix - h_hat))
        assert all(errors[i + 1] <= errors[i] + 1e-9 for i in range(len(errors) - 1))

    def test_quantized_gains_still_close(self):
        cfg, ch = sample_setup(29)
        coarse = multilevel_csi_feedback(ch, cfg, 12, 256, ComplexCodebook.uniform_polar(16, 16))
        ideal = multilevel_csi_feedback(ch, cfg, 12, 256, IDEAL)
        rel = np.linalg.norm(coarse - ideal) / np.linalg.norm(ideal)
        assert 0 < rel < 0.25

    def test_k_too_large(self):
        cfg, ch = sample_setup(31)
        with pytest.raises(InvalidInputError):
            multilevel_csi_feedback(ch, cfg, ch.gains.size + 1, 256, IDEAL)

    def test_overhead_row_matches_formula(self):
        assert overhead_bits("multilevel_csi", k=16, angle_codebook_size=256,
                             coeff_codebook_size=256) == (2 * 16 * 8, 16 * 8)
