"""One BER trial written straight from the paper's formulas, against `runner._ber_trial`.

The reference reuses the straight-line H, F_opt and OMP of `test_rate_oracle`, restates the
block draw of each (trial, SNR) from `substream(seed, trial, j)` (bits, then the noise's real
and imaginary planes), and detects with the N x N LMMSE solve
(HF)^H (HF (HF)^H + I/P)^{-1} y, not the engine's SVD form. Bit-error counts must agree
exactly, so an example is discarded when any component of an estimate lies within 1e-9 of
zero, relative to the largest component of its block: rounding could flip that decision.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fapsim.channel import substream
from fapsim.runner import _ber_trial
from test_rate_oracle import rate_configs, reference_trial

DECISION_RTOL = 1e-9


def lmmse_bit_errors(h, f, snr, bits, noise):
    """Joint LMMSE estimate by the N x N solve; count the signs that disagree with the bits."""
    hf = h @ f
    symbols = ((1.0 - 2.0 * bits[0]) + 1j * (1.0 - 2.0 * bits[1])) / np.sqrt(2.0)
    y = np.sqrt(snr) * hf @ symbols + noise
    est = hf.conj().T @ np.linalg.solve(hf @ hf.conj().T + np.eye(h.shape[0]) / snr, y)
    parts = np.abs(np.stack([est.real, est.imag]))
    assume(np.all(parts > DECISION_RTOL * parts.max()))
    return int(np.count_nonzero((est.real < 0) != bits[0]) + np.count_nonzero((est.imag < 0) != bits[1]))


def reference_ber_trial(cfg, trial):
    h, points = reference_trial(cfg, trial, vectors=True)
    n, s, t = h.shape[0], cfg.streams, cfg.symbols_per_trial
    errors = np.empty((len(cfg.schemes), len(points)), dtype=np.int64)
    for j, (snr, precoders) in enumerate(points):
        rng = substream(cfg.seed, trial, j)
        bits = rng.integers(0, 2, size=(2, s, t))
        noise = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) / np.sqrt(2.0)
        errors[:, j] = [lmmse_bit_errors(h, f, snr, bits, noise) for f in precoders]
    return errors


@settings(max_examples=150, deadline=None)
@given(cfg=rate_configs(symbols=st.integers(1, 64), min_paths=3), trial=st.integers(0, 1000))
def test_ber_trial_matches_the_straight_line_reference(cfg, trial):
    expected = reference_ber_trial(cfg, trial)
    got = _ber_trial(cfg, trial)
    assert np.array_equal(got, expected), (got, expected)
