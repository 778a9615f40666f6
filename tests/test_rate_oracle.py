"""One rate trial written straight from the paper's formulas, against `runner._rate_trial`.

The reference below shares no code with the engine: it rebuilds H as the explicit per-path sum
over the trial's path arrays, takes F_opt from `np.linalg.svd` with its own phase rule and
water level, runs OMP with an explicit residual and `np.linalg.pinv`, and reads each rate off
`slogdet`. Only the random draw itself (`sample_channel`'s path arrays) comes from the library.

The comparison is exact up to rounding, so examples whose discrete choices rounding could flip
are discarded: an OMP correlation tie within 1e-12, a residual norm near the zero-residual stop,
or an F_opt (of H or of the multilevel estimate) whose top-S subspace has no clear gap.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fapsim.channel import ArrayGeometry, ChannelConfig, sample_channel, substream
from fapsim.runner import (ExperimentConfig, MultilevelScheme, OptimalScheme, ProposedScheme,
                           SparseScheme, _rate_trial)

RATE_RTOL = 1e-9
# The engine's zero-residual stop (`feedback._ZERO_RESIDUAL`), restated.
ZERO_RESIDUAL = 1e-12


def response(m, spacing, angle):
    """ULA response: element i is exp(j 2 pi (d/lambda) i sin(angle)) / sqrt(M)."""
    return np.exp(2j * np.pi * spacing * np.arange(m) * np.sin(angle)) / np.sqrt(m)


def channel(cfg, gains, aod, aoa, total_paths):
    """H = sqrt(M N / L) sum_l g_l a_r(theta_l) a_t(phi_l)^H, one path at a time."""
    tx, rx = cfg.channel.tx, cfg.channel.rx
    m, n = tx.num_elements, rx.num_elements
    h = np.zeros((n, m), dtype=complex)
    for g, phi, theta in zip(gains, aod, aoa):
        h += g * np.outer(response(n, rx.spacing_over_wavelength, theta),
                          response(m, tx.spacing_over_wavelength, phi).conj())
    return np.sqrt(m * n / total_paths) * h


def water_level(sigma, snr):
    """p_s = mu - 1 / (snr sigma_s^2) on the strongest streams, 0 on the rest, sum p_s = 1."""
    with np.errstate(divide="ignore"):
        floor = 1.0 / (snr * sigma ** 2)
    for count in range(len(sigma), 0, -1):
        mu = (1.0 + np.sum(floor[:count])) / count
        if np.isfinite(floor[count - 1]) and mu >= floor[count - 1]:
            return np.concatenate([mu - floor[:count], np.zeros(len(sigma) - count)])
    raise AssertionError("no stream above water")


def optimal(h, s, allocation, snr, vectors=False):
    """Top-S right singular vectors, largest entry of each real and non-negative, powered.

    With `vectors`, the vectors themselves must be clear, not only their span: distinct top-S
    singular values, and a largest entry of each vector clear of the next, so that rounding
    can neither rotate the streams nor move the phase reference.
    """
    _, sigma, vh = np.linalg.svd(h)
    gains = np.concatenate([sigma, np.zeros(h.shape[1] - sigma.size)])   # one per transmit dim
    assume(s == gains.size or gains[s - 1] - gains[s] > 1e-3 * gains[0])   # a clear top-S space
    v = vh.conj().T[:, :s]
    if vectors:
        assume(np.all(-np.diff(gains[:s]) > 1e-3 * gains[0]))
        top = np.sort(np.abs(v), axis=0)
        assume(v.shape[0] == 1 or np.all(top[-1] - top[-2] > 1e-9))
    pivot = v[np.argmax(np.abs(v), axis=0), np.arange(s)]
    v = v * (np.conj(pivot) / np.abs(pivot))
    power = np.full(s, 1.0 / s) if allocation == "unitary" else water_level(sigma[:s], snr)
    return v * np.sqrt(power)


def codebook_centers(sector, size):
    lo, hi = sector
    return lo + (np.arange(size) + 0.5) * (hi - lo) / size


def dictionary(cfg, size, gamma):
    """Column i: (1/sqrt(gamma)) sum_g a_t(phi_i - dphi/2 + g dphi/(gamma + 1))."""
    tx, sector = cfg.channel.tx, cfg.channel.tx_sector
    dphi = (sector[1] - sector[0]) / size
    return np.stack([sum(response(tx.num_elements, tx.spacing_over_wavelength,
                                  phi - dphi / 2 + g * dphi / (gamma + 1))
                         for g in range(1, gamma + 1)) / np.sqrt(gamma)
                     for phi in codebook_centers(sector, size)], axis=1)


def omp(f, psi, k):
    """Greedy K-column fit of F, renormalized: pick, re-fit by pinv, recompute the residual."""
    picks, r = [], f
    for _ in range(k):
        corr = np.sum(np.abs(psi.conj().T @ r) ** 2, axis=1)
        top = np.sort(corr)[::-1]
        assume(len(top) == 1 or top[0] - top[1] > 1e-12 * np.linalg.norm(r) ** 2)
        pick = int(np.argmax(corr))
        if pick in picks:
            break
        picks.append(pick)
        fit = psi[:, picks] @ (np.linalg.pinv(psi[:, picks]) @ f)
        r = f - fit
        norm = np.linalg.norm(r)
        assume(not 1e-3 * ZERO_RESIDUAL < norm < 1e3 * ZERO_RESIDUAL)
        if norm <= ZERO_RESIDUAL:
            break
    return fit / np.linalg.norm(fit)


def multilevel_estimate(cfg, ch, k, size):
    """H rebuilt from the K strongest paths, angles snapped to the nearest codebook center."""
    strongest = np.argsort(-np.abs(ch.gains), kind="stable")[:k]
    snap = {}
    for name, angles, sector in (("aod", ch.aod, cfg.channel.tx_sector),
                                 ("aoa", ch.aoa, cfg.channel.rx_sector)):
        centers = codebook_centers(sector, size)
        snap[name] = [centers[np.argmin(np.abs(a - centers))] for a in angles[strongest]]
    return channel(cfg, ch.gains[strongest], snap["aod"], snap["aoa"], ch.gains.size)


def rate(h, f, snr):
    hf = h @ f
    return np.linalg.slogdet(np.eye(h.shape[0]) + snr * hf @ hf.conj().T)[1] / np.log(2.0)


def reference_trial(cfg, trial, vectors=False):
    """H and, per SNR point, (linear SNR, every scheme's F); `vectors` as in `optimal`."""
    ch = sample_channel(cfg.channel, substream(cfg.seed, trial))
    h = channel(cfg, ch.gains, ch.aod, ch.aoa, ch.gains.size)
    points = []
    for snr in 10.0 ** (np.array(cfg.snr_db_grid) / 10.0):
        f_opt = optimal(h, cfg.streams, cfg.allocation, snr, vectors)
        precoders = []
        for scheme in cfg.schemes:
            if isinstance(scheme, OptimalScheme):
                f = f_opt
            elif isinstance(scheme, ProposedScheme):
                f = omp(f_opt, dictionary(cfg, scheme.angle_codebook_size, scheme.gamma), scheme.k)
            elif isinstance(scheme, SparseScheme):
                f = omp(f_opt, dictionary(cfg, scheme.angle_codebook_size, 1), scheme.q)
            else:
                h_hat = multilevel_estimate(cfg, ch, scheme.k, scheme.angle_codebook_size)
                f = optimal(h_hat, cfg.streams, cfg.allocation, snr, vectors)
            precoders.append(f)
        points.append((snr, precoders))
    return h, points


def reference_rate_trial(cfg, trial):
    h, points = reference_trial(cfg, trial)
    return np.array([[rate(h, f, snr) for f in precoders] for snr, precoders in points]).T


@st.composite
def rate_configs(draw, symbols=st.just(1), min_paths=1):
    """Small configs with every scheme type; the channel and the multilevel estimate keep at
    least `min_paths` (at most 3) paths."""
    m, n = draw(st.integers(1, 32)), draw(st.integers(1, 8))
    streams = draw(st.integers(1, min(3, m, n)))
    clusters = draw(st.integers(1, 3))
    rays = draw(st.integers(-(-min_paths // clusters), 3))
    size = draw(st.sampled_from([8, 16, 32, 64]))
    spacing = draw(st.sampled_from([0.5, 0.3, 1.0]))
    schemes = (OptimalScheme(),
               ProposedScheme(k=draw(st.integers(1, 8)), gamma=draw(st.sampled_from([1, 2])),
                              angle_codebook_size=size),
               SparseScheme(q=draw(st.integers(streams, 8)), angle_codebook_size=size),
               MultilevelScheme(k=draw(st.integers(min_paths, min(8, clusters * rays))),
                                angle_codebook_size=size))
    return ExperimentConfig(
        channel=ChannelConfig(tx=ArrayGeometry(m, spacing), rx=ArrayGeometry(n, spacing),
                              num_clusters=clusters, rays_per_cluster=rays,
                              angular_spread=np.deg2rad(draw(st.sampled_from([0.875, 5.0])))),
        streams=streams, schemes=schemes,
        snr_db_grid=tuple(draw(st.lists(st.sampled_from([-10.0, 0.0, 7.5, 20.0]), min_size=1,
                                        max_size=3, unique=True))),
        trials=1, symbols_per_trial=draw(symbols), seed=draw(st.integers(0, 2 ** 32 - 1)),
        allocation=draw(st.sampled_from(["unitary", "water_filling"])))


@settings(max_examples=150, deadline=None)
@given(cfg=rate_configs(), trial=st.integers(0, 1000))
def test_rate_trial_matches_the_straight_line_reference(cfg, trial):
    expected = reference_rate_trial(cfg, trial)
    got = _rate_trial(cfg, trial)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= RATE_RTOL * np.abs(expected)), (got, expected)
