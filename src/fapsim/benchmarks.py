"""Literature comparison schemes.

Benchmark 1 approximates the optimal unitary precoder on a fully-connected
architecture with Q RF chains; with the single-beam basis it coincides with
the greedy feedback design at K = Q, so the same engine is reused and the
result is split into the RF factor (steering-vector columns) and the
baseband factor.

Benchmark 2 feeds back the K strongest paths (quantized AoD/AoA/gain) and
rebuilds the channel estimate at the transmitter. Channel estimation itself
is out of scope: an oracle reads the true path list, which matches the
ideal-estimation premise of the comparison.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ArrayGeometry, PathComponent, reconstruct_from_paths
from .errors import InvalidInputError
from .feedback import (AngleCodebook, BasisSpec, ComplexCodebook, _polar_dequantize,
                       _polar_quantize_indices, dictionary, omp_approximate, quantize_angle)


@dataclass(frozen=True)
class SparsePrecoderConfig:
    num_rf_chains: int
    codebook: AngleCodebook
    tx: ArrayGeometry

    def __post_init__(self):
        if self.num_rf_chains < 1:
            raise InvalidInputError("num_rf_chains must be >= 1")
        if self.num_rf_chains > self.codebook.size:
            raise InvalidInputError("num_rf_chains cannot exceed the codebook size")


@dataclass(frozen=True)
class MultilevelCsiConfig:
    num_paths: int
    aod_codebook: AngleCodebook
    aoa_codebook: AngleCodebook
    coeff_codebook: ComplexCodebook
    tx: ArrayGeometry
    rx: ArrayGeometry

    def __post_init__(self):
        if self.num_paths < 1:
            raise InvalidInputError("num_paths must be >= 1")


def sparse_precoder(f_opt, cfg):
    """RF/baseband factorization with Q steering-vector RF beams.

    Returns (F_rf, F_bb): F_rf holds constant-modulus array-response columns
    at the selected codebook angles, and F_bb is the least-squares combining
    matrix with ||F_rf @ F_bb||_F = 1.
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
    total = len(ch.paths)
    if not 1 <= cfg.num_paths <= total:
        raise InvalidInputError(f"num_paths must be in [1, {total}], got {cfg.num_paths}")
    gains = np.array([p.gain for p in ch.paths])
    order = np.argsort(-np.abs(gains), kind="stable")[:cfg.num_paths]
    strongest = [ch.paths[i] for i in order]

    quant_gains = np.array([p.gain for p in strongest])
    if cfg.coeff_codebook.mode != "ideal":
        gmax = float(np.max(np.abs(quant_gains)))
        mi, pi_ = _polar_quantize_indices(quant_gains, cfg.coeff_codebook, gmax)
        quant_gains = _polar_dequantize(mi, pi_, cfg.coeff_codebook, gmax)

    quant_paths = [
        PathComponent(
            gain=complex(quant_gains[i]),
            aod=float(cfg.aod_codebook.centers[quantize_angle(cfg.aod_codebook, p.aod)]),
            aoa=float(cfg.aoa_codebook.centers[quantize_angle(cfg.aoa_codebook, p.aoa)]),
        )
        for i, p in enumerate(strongest)
    ]
    return reconstruct_from_paths(quant_paths, cfg.tx, cfg.rx, total_paths=total)
