"""Clustered mmWave channel generation and ULA array responses.

The channel is a superposition of L clusters with J rays each,

    H = sqrt(M*N/(L*J)) * sum_k h_k * h_r(theta_k) * h_t(phi_k)^H,

with i.i.d. CN(0,1) ray gains, cluster mean angles uniform over the sector,
and Laplacian ray offsets around each cluster mean.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import _count, _instance, _positive, _sequence

# Laplacian scale of the intra-cluster ray offsets (std ~1.24 deg). Narrow
# enough that a 16-term basis expansion tracks the optimal precoder closely;
# configurable per experiment.
DEFAULT_ANGULAR_SPREAD = np.deg2rad(0.875)


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array described by element count and d/lambda spacing."""

    num_elements: int
    spacing_over_wavelength: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "num_elements", _count(self.num_elements, "num_elements"))
        object.__setattr__(self, "spacing_over_wavelength",
                           _positive(self.spacing_over_wavelength, "spacing_over_wavelength"))


def _check_sector(sector, name):
    lo, hi = _sequence(sector, name, 2)
    if not (-np.pi <= lo < hi <= np.pi):
        raise InvalidInputError(f"{name} must satisfy -pi <= lo < hi <= pi, got ({lo}, {hi})")
    return float(lo), float(hi)


@dataclass(frozen=True)
class ChannelConfig:
    tx: ArrayGeometry
    rx: ArrayGeometry
    num_clusters: int
    rays_per_cluster: int
    tx_sector: tuple = (-np.pi / 4, np.pi / 4)   # 90 deg transmit sector
    rx_sector: tuple = (-np.pi, np.pi)           # 360 deg receive sector
    angular_spread: float = DEFAULT_ANGULAR_SPREAD

    def __post_init__(self):
        for name in ("tx", "rx"):
            _instance(getattr(self, name), ArrayGeometry, name)
        object.__setattr__(self, "num_clusters", _count(self.num_clusters, "num_clusters"))
        object.__setattr__(self, "rays_per_cluster", _count(self.rays_per_cluster, "rays_per_cluster"))
        object.__setattr__(self, "angular_spread", _positive(self.angular_spread, "angular_spread"))
        object.__setattr__(self, "tx_sector", _check_sector(self.tx_sector, "tx_sector"))
        object.__setattr__(self, "rx_sector", _check_sector(self.rx_sector, "rx_sector"))

    @property
    def num_paths(self):
        return self.num_clusters * self.rays_per_cluster


@dataclass(frozen=True)
class PathComponent:
    gain: complex
    aod: float
    aoa: float


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    matrix: np.ndarray            # N x M
    gains: np.ndarray             # per path, cluster-major order
    aod: np.ndarray
    aoa: np.ndarray


def array_response(geom, angle):
    """Unit-norm ULA steering vector: element m is exp(j*m*2*pi*(d/lambda)*sin(angle))/sqrt(M)."""
    if not np.isfinite(angle):
        raise InvalidInputError("angle must be finite")
    return _steering_matrix(geom, [angle])[:, 0]


def _steering_matrix(geom, angles):
    # Stacked steering vectors, one column per angle. Element m = b*a + c of a column is
    # exp(j*b*a*x) * exp(j*c*x) / sqrt(M), x its phase step, with b = ceil(sqrt(M)): two exp
    # tables of about sqrt(M) rows and one broadcast product, not M exps per column.
    angles = np.asarray(angles, dtype=float)
    m = geom.num_elements
    b = math.isqrt(m - 1) + 1                              # ceil(sqrt(M))
    phase = 2.0 * np.pi * geom.spacing_over_wavelength * np.sin(angles)[None, :]
    coarse = np.exp(1j * (b * np.arange((m + b - 1) // b))[:, None] * phase)   # rows b*a
    fine = np.exp(1j * np.arange(b)[:, None] * phase) / np.sqrt(m)            # rows c
    return (coarse[:, None, :] * fine[None, :, :]).reshape(-1, angles.size)[:m]


def substream(master_seed, *path):
    """Independent generator for a (seed, index...) coordinate.

    Trials mix the master seed and their index through a splittable seed
    sequence, so streams are independent and insensitive to execution order
    or worker count.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


def sample_channel(cfg, rng):
    """Draw one channel realization from the clustered model.

    The draw order is fixed (cluster means, ray offsets, gains) and ray
    angles outside the sector are clamped to its edge rather than re-drawn,
    so a given (seed, config) always produces the same realization.
    """
    L, J = cfg.num_clusters, cfg.rays_per_cluster
    tx_lo, tx_hi = cfg.tx_sector
    rx_lo, rx_hi = cfg.rx_sector

    mean_aod = rng.uniform(tx_lo, tx_hi, size=L)
    mean_aoa = rng.uniform(rx_lo, rx_hi, size=L)
    aod = np.clip(mean_aod[:, None] + rng.laplace(0.0, cfg.angular_spread, size=(L, J)), tx_lo, tx_hi)
    aoa = np.clip(mean_aoa[:, None] + rng.laplace(0.0, cfg.angular_spread, size=(L, J)), rx_lo, rx_hi)
    gains = (rng.standard_normal((L, J)) + 1j * rng.standard_normal((L, J))) / np.sqrt(2.0)

    gains, aod, aoa = gains.reshape(-1), aod.reshape(-1), aoa.reshape(-1)
    matrix = channel_from_paths(gains, aod, aoa, cfg.tx, cfg.rx)
    return ChannelRealization(matrix=matrix, gains=gains, aod=aod, aoa=aoa)


def channel_from_paths(gains, aod, aoa, tx, rx, total_paths=None):
    """Assemble H_r diag(gains) H_t^H with the sqrt(M*N/total_paths) scaling.

    `gains`, `aod` and `aoa` hold one entry per path. `total_paths` defaults
    to the path count; pass the original count when rebuilding from a subset
    so the subset keeps the full channel's scaling.
    """
    gains = np.asarray(gains, dtype=np.complex128)
    if gains.ndim != 1 or gains.size == 0 or not gains.shape == np.shape(aod) == np.shape(aoa):
        raise InvalidInputError("gains, aod and aoa must be non-empty 1-D arrays of one length")
    if total_paths is None:
        total_paths = gains.size
    if not 1 <= total_paths < np.inf:
        raise InvalidInputError(f"total_paths must be finite and >= 1, got {total_paths!r}")
    if not all(np.all(np.isfinite(x)) for x in (gains, aod, aoa)):
        raise InvalidInputError("path gains and angles must be finite")
    h_t = _steering_matrix(tx, aod)    # M x K, conjugated in place: h_t.conj()'s layout, so its GEMM
    h_r = _steering_matrix(rx, aoa)    # N x K
    scale = np.sqrt(tx.num_elements * rx.num_elements / total_paths)
    return scale * ((h_r * gains[None, :]) @ np.conjugate(h_t, out=h_t).T)


def reconstruct_from_paths(paths, tx, rx, total_paths=None):
    """`channel_from_paths` over a sequence of PathComponent."""
    return channel_from_paths([p.gain for p in paths], [p.aod for p in paths],
                              [p.aoa for p in paths], tx, rx, total_paths)
