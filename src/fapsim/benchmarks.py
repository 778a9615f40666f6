"""Literature comparison schemes.

Benchmark 1 approximates the optimal unitary precoder on a fully-connected
architecture with Q RF chains; with the single-beam basis it coincides with
the greedy feedback design at K = Q, so the same engine is reused and the
result is split into the RF factor (steering-vector columns) and the
baseband factor.

Benchmark 2 feeds back the K strongest paths (quantized AoD/AoA/gain) and
rebuilds the channel estimate at the transmitter. Channel estimation itself
is out of scope: an oracle reads the true path arrays, which matches the
ideal-estimation premise of the comparison.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, channel_from_paths
from .errors import InvalidInputError
from .feedback import (AngleCodebook, BasisSpec, ComplexCodebook, _polar_dequantize,
                       _polar_quantize_indices, dictionary, omp_approximate, quantize_angles)


@dataclass(frozen=True)
class SparsePrecoderConfig:
    num_rf_chains: int
    codebook: AngleCodebook
    tx: ArrayGeometry


@dataclass(frozen=True)
class MultilevelCsiConfig:
    num_paths: int
    aod_codebook: AngleCodebook
    aoa_codebook: AngleCodebook
    coeff_codebook: ComplexCodebook
    tx: ArrayGeometry
    rx: ArrayGeometry


def sparse_precoder(f_opt, cfg):
    """RF/baseband factorization with Q steering-vector RF beams.

    Returns (F_rf, F_bb): F_rf holds constant-modulus array-response columns
    at the selected codebook angles, and F_bb is the least-squares combining
    matrix with ||F_rf @ F_bb||_F = 1. Q must lie in [S, codebook size].
    """
    if cfg.num_rf_chains < f_opt.num_streams:
        raise InvalidInputError("num_rf_chains must be >= the number of streams")
    spec = BasisSpec(codebook=cfg.codebook, tx=cfg.tx, gamma=1)
    indices, g, _ = omp_approximate(f_opt, spec, cfg.num_rf_chains)
    f_rf = dictionary(spec)[:, list(indices)]
    return f_rf, g


def multilevel_csi_feedback(ch, cfg):
    """Channel estimate rebuilt from the K strongest quantized paths.

    AoDs and AoAs snap to their codebook centers; gains pass through the
    complex-coefficient codebook (identity when ideal). The reconstruction
    keeps the original channel's path-count scaling so a subset is an
    unbiased truncation of the full superposition.
    """
    total = ch.gains.size
    if not 1 <= cfg.num_paths <= total:
        raise InvalidInputError(f"num_paths must be in [1, {total}], got {cfg.num_paths}")
    order = np.argsort(-np.abs(ch.gains), kind="stable")[:cfg.num_paths]

    gains = ch.gains[order]
    if cfg.coeff_codebook.mode != "ideal":
        gmax = float(np.max(np.abs(gains)))
        mi, pi_ = _polar_quantize_indices(gains, cfg.coeff_codebook, gmax)
        gains = _polar_dequantize(mi, pi_, cfg.coeff_codebook, gmax)
    aod = cfg.aod_codebook.centers[quantize_angles(cfg.aod_codebook, ch.aod[order])]
    aoa = cfg.aoa_codebook.centers[quantize_angles(cfg.aoa_codebook, ch.aoa[order])]
    return channel_from_paths(gains, aod, aoa, cfg.tx, cfg.rx, total_paths=total)
