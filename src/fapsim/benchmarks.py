"""Literature comparison schemes.

Benchmark 1 approximates the optimal unitary precoder on a fully-connected
architecture with Q RF chains; with the single-beam basis it coincides with
the greedy feedback design at K = Q, so the same engine is reused and the
result is split into the RF factor (steering-vector columns) and the
baseband factor.

Benchmark 2 feeds back the K strongest paths (AoD/AoA on codebooks over the
channel's sectors, gains on the `ComplexCodebook` grid) and rebuilds the
channel estimate at the transmitter. Channel estimation itself is out of
scope: an oracle reads the true path arrays, which matches the
ideal-estimation premise of the comparison.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, channel_from_paths
from .feedback import AngleCodebook, BasisSpec, _basis_columns, omp_approximate, quantize_angles
from .numerics import _count


@dataclass(frozen=True)
class SparsePrecoderConfig:
    num_rf_chains: int
    codebook: AngleCodebook
    tx: ArrayGeometry


def sparse_precoder(f_opt, cfg):
    """RF/baseband factorization with Q steering-vector RF beams.

    Returns (F_rf, F_bb): F_rf holds constant-modulus array-response columns
    at the selected codebook angles, and F_bb is the least-squares combining
    matrix with ||F_rf @ F_bb||_F = 1. Q must lie in [S, codebook size].
    """
    _count(cfg.num_rf_chains, "num_rf_chains", f_opt.num_streams)
    spec = BasisSpec(codebook=cfg.codebook, tx=cfg.tx, gamma=1)
    indices, g, _ = omp_approximate(f_opt, spec, cfg.num_rf_chains)
    f_rf = _basis_columns(spec, indices)
    return f_rf, g


def multilevel_csi_feedback(ch, channel, k, angle_codebook_size, coeff_codebook):
    """Channel estimate rebuilt from the K strongest quantized paths.

    AoDs and AoAs snap to `angle_codebook_size`-entry codebooks over the
    sectors of the `ChannelConfig` `channel`; gains go through
    `coeff_codebook.quantize`. The reconstruction keeps the original channel's
    path-count scaling so a subset is an unbiased truncation of the full
    superposition.
    """
    total = ch.gains.size
    k = _count(k, "k", 1, total)
    order = np.argsort(-np.abs(ch.gains), kind="stable")[:k]
    gains, _ = coeff_codebook.quantize(ch.gains[order])
    aod_cb = AngleCodebook(channel.tx_sector, angle_codebook_size)
    aoa_cb = AngleCodebook(channel.rx_sector, angle_codebook_size)
    aod = aod_cb.centers[quantize_angles(aod_cb, ch.aod[order])]
    aoa = aoa_cb.centers[quantize_angles(aoa_cb, ch.aoa[order])]
    return channel_from_paths(gains, aod, aoa, channel.tx, channel.rx, total_paths=total)
