import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fapsim import evaluation, numerics
from fapsim.channel import (ArrayGeometry, ChannelConfig, PathComponent, array_response,
                            reconstruct_from_paths, sample_channel, substream)
from fapsim.errors import InvalidInputError
from fapsim.evaluation import MmseLink, achievable_rate, beam_pattern, ber_qpsk_mmse, draw_qpsk
from fapsim.feedback import AngleCodebook, BasisSpec
from fapsim.precoding import PowerAllocation, optimal_precoder


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def random_channel(rng, n, m):
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def unit_precoder(rng, m, s):
    f = rng.standard_normal((m, s)) + 1j * rng.standard_normal((m, s))
    return f / np.linalg.norm(f)


def expression_block(rng, s, n, t):
    """The draws of `draw_qpsk` (bits, then noise), assembled by one-line expressions:
    (bits, Gray-mapped symbols, noise)."""
    bits = rng.integers(0, 2, size=(2, s, t))
    noise = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) / np.sqrt(2.0)
    return bits, ((1.0 - 2.0 * bits[0]) + 1j * (1.0 - 2.0 * bits[1])) / np.sqrt(2.0), noise


def log_det_rate(h, f, snr):
    """Reference rate: Cholesky log-det of I + snr * H F F^H H^H."""
    hf = h @ f
    return numerics.log_det_hermitian(np.eye(h.shape[0]) + snr * (hf @ hf.conj().T))


class TestAchievableRate:
    def test_scalar_link(self):
        assert achievable_rate(np.ones((1, 1)), np.ones((1, 1)), 1.0) == pytest.approx(1.0)

    def test_zero_channel(self):
        assert achievable_rate(np.zeros((2, 3)), unit_precoder(np.random.default_rng(0), 3, 2),
                               5.0) == pytest.approx(0.0, abs=1e-12)

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(60)
        h = random_channel(rng, 4, 6)
        f = unit_precoder(rng, 6, 2)
        snr = 3.7
        hf = h @ f
        eig = np.linalg.eigvalsh(hf @ hf.conj().T)
        expected = float(np.sum(np.log2(1.0 + snr * np.clip(eig, 0.0, None))))
        assert achievable_rate(h, f, snr) == pytest.approx(expected, abs=1e-9)

    def test_unitary_rotation_invariance(self):
        rng = np.random.default_rng(61)
        h = random_channel(rng, 4, 6)
        f = unit_precoder(rng, 6, 3)
        q, _ = np.linalg.qr(random_channel(rng, 3, 3))
        assert achievable_rate(h, f @ q, 2.0) == pytest.approx(
            achievable_rate(h, f, 2.0), abs=1e-9)

    def test_water_filling_beats_random_competitors(self):
        rng = np.random.default_rng(62)
        for _ in range(4):
            h = random_channel(rng, 4, 6)
            snr = float(rng.uniform(0.2, 5.0))
            fw = optimal_precoder(h, 2, PowerAllocation("water_filling", total_power=snr))
            best = achievable_rate(h, fw.matrix, snr)
            for _ in range(50):
                assert best >= achievable_rate(h, unit_precoder(rng, 6, 2), snr) - 1e-9

    def test_requires_unit_norm(self):
        with pytest.raises(InvalidInputError):
            achievable_rate(np.eye(2), 2.0 * np.eye(2), 1.0)
        # Off by 1e-7: outside `Precoder`'s tolerance (1e-9), which both link metrics use.
        with pytest.raises(InvalidInputError, match="got 1.0000001"):
            achievable_rate(np.eye(2), (1.0 + 1e-7) * np.eye(2) / np.sqrt(2), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            achievable_rate(np.eye(2), unit_precoder(np.random.default_rng(1), 3, 1), 1.0)

    @pytest.mark.parametrize("n, m, s, snrs", [
        (1, 1, 1, [1.0]),
        (4, 6, 2, [0.01, 1.0, 3.7, 100.0]),
        (16, 128, 4, list(10.0 ** (np.arange(-20.0, 10.1, 2.5) / 10.0))),
        (3, 8, 3, [[0.5, 2.0], [8.0, 32.0]]),
    ])
    def test_snr_array_matches_log_det(self, n, m, s, snrs):
        rng = np.random.default_rng(66 + n)
        h, f = random_channel(rng, n, m), unit_precoder(rng, m, s)
        rates = achievable_rate(h, f, np.array(snrs))
        assert rates.shape == np.shape(snrs)
        for snr, rate in zip(np.ravel(snrs), rates.ravel()):
            assert rate == pytest.approx(log_det_rate(h, f, snr), abs=1e-10)
            scalar = achievable_rate(h, f, float(snr))
            assert type(scalar) is float and rate == pytest.approx(scalar, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 8),
           s=st.integers(1, 4),
           snr_db=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=13))
    def test_snr_array_matches_log_det_property(self, seed, n, m, s, snr_db):
        rng = np.random.default_rng(seed)
        h, f = random_channel(rng, n, m), unit_precoder(rng, m, min(s, m))
        snrs = 10.0 ** (np.array(snr_db) / 10.0)
        rates = achievable_rate(h, f, snrs)
        expected = [log_det_rate(h, f, snr) for snr in snrs]
        assert np.allclose(rates, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("snr", [0.0, -1.0, np.inf, np.nan, [1.0, 0.0], [1.0, np.inf], []])
    def test_snr_must_be_positive_finite(self, snr):
        rng = np.random.default_rng(67)
        with pytest.raises(InvalidInputError):
            achievable_rate(random_channel(rng, 2, 3), unit_precoder(rng, 3, 1), snr)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_channel_rejected(self):
        # Finite entries, but snr * sigma^2 of H F overflows: an error, not a rate of inf.
        with pytest.raises(InvalidInputError, match=r"snr \* \|\|H\|\|\^2 must be finite"):
            achievable_rate(1e200 * np.eye(2), np.eye(2) / np.sqrt(2), 1.0)

    @pytest.mark.parametrize("where", ["h", "f"])
    def test_nan_entries_rejected(self, where):
        rng = np.random.default_rng(68)
        h, f = random_channel(rng, 3, 4), unit_precoder(rng, 4, 2)
        if where == "h":
            h[1, 2] = np.nan
        else:
            f[0, 0] = np.nan
        with pytest.raises(InvalidInputError, match="non-finite"):
            achievable_rate(h, f, [1.0, 2.0])


class TestBerQpskMmse:
    def test_noiseless_perfect_detection(self):
        rng = np.random.default_rng(63)
        h = random_channel(rng, 6, 8)
        f = optimal_precoder(h, 2, PowerAllocation("unitary")).matrix
        errors, sent = ber_qpsk_mmse(h, f, 1e9, 10_000, np.random.default_rng(1))
        assert sent == 40_000
        assert errors == 0

    def test_vanishing_snr_half(self):
        rng = np.random.default_rng(64)
        h = random_channel(rng, 4, 8)
        f = optimal_precoder(h, 2, PowerAllocation("unitary")).matrix
        errors, sent = ber_qpsk_mmse(h, f, 1e-9, 25_000, np.random.default_rng(2))
        assert sent == 100_000
        assert abs(errors / sent - 0.5) < 0.02

    def test_awgn_oracle_single_stream(self):
        # Matched single-path beamforming reduces to scalar QPSK in AWGN,
        # where BER = Q(sqrt(P * ||H f||^2)).
        tx, rx = ArrayGeometry(16), ArrayGeometry(4)
        path = PathComponent(1.0 + 0.0j, 0.3, -0.5)
        h = reconstruct_from_paths([path], tx, rx)
        f = array_response(tx, 0.3)[:, None]
        gain = np.linalg.norm(h @ f) ** 2
        snr = 2.8 / gain                       # effective SNR 2.8 -> BER ~ 4.7e-2
        expected = q_function(math.sqrt(snr * gain))
        symbols = 60_000
        errors, sent = ber_qpsk_mmse(h, f, snr, symbols, np.random.default_rng(3))
        stderr = math.sqrt(expected * (1 - expected) / sent)
        assert abs(errors / sent - expected) <= 3 * stderr

    def test_monotone_in_snr_averaged(self):
        cfg = ChannelConfig(tx=ArrayGeometry(16), rx=ArrayGeometry(4),
                            num_clusters=3, rays_per_cluster=4)
        snrs = [0.05, 0.2, 0.8, 3.2, 12.8]
        errors = np.zeros(len(snrs), dtype=np.int64)
        sent = np.zeros_like(errors)
        channels = 150
        for t in range(channels):
            ch = sample_channel(cfg, substream(77, t))
            f = optimal_precoder(ch.matrix, 2, PowerAllocation("unitary")).matrix
            for j, snr in enumerate(snrs):
                e, b = ber_qpsk_mmse(ch.matrix, f, snr, 1000, substream(77, t, j))
                errors[j] += e
                sent[j] += b
        ber = errors / sent
        slack = 2.0 * np.sqrt(ber * (1 - ber) / sent)
        assert all(ber[j + 1] <= ber[j] + slack[j] + slack[j + 1] for j in range(len(snrs) - 1))

    def test_bad_symbol_count(self):
        for count in (0, 2.5):
            with pytest.raises(InvalidInputError, match="num_symbols"):
                ber_qpsk_mmse(np.eye(2), np.eye(2) / np.sqrt(2), 1.0, count, np.random.default_rng(0))

    @pytest.mark.parametrize("shape, field", [
        ((2.5, 4, 10), "num_streams"), ((2, 4.0, 10), "num_rx"), ((True, 4, 10), "num_streams"),
        ((0, 4, 10), "num_streams"), ((2, -1, 10), "num_rx"), ((2, 4, None), "num_symbols"),
    ])
    def test_draw_qpsk_shapes_are_counts(self, shape, field):
        # Each raised a bare TypeError from `rng.integers` or `np.empty`, or drew an empty block.
        with pytest.raises(InvalidInputError, match=rf"{field} must be an integer >= 1, got "):
            draw_qpsk(np.random.default_rng(0), *shape)
        symbols, noise = draw_qpsk(np.random.default_rng(0), np.int64(2), np.uint8(4), np.int32(10))
        assert symbols.shape == (2, 10) and noise.shape == (4, 10)

    def test_draw_then_detect_is_ber_qpsk_mmse(self):
        rng = np.random.default_rng(69)
        h = random_channel(rng, 4, 8)
        f = optimal_precoder(h, 2, PowerAllocation("unitary")).matrix
        symbols, noise = draw_qpsk(np.random.default_rng(5), 2, 4, 300)
        assert symbols.shape == (2, 300) and noise.shape == (4, 300)
        link = MmseLink(h @ f)
        for snr in (0.1, 1.0, 10.0):
            assert (link.bit_errors(snr, symbols, noise), 2 * 2 * 300) == ber_qpsk_mmse(
                h, f, snr, 300, np.random.default_rng(5))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(1, 8), n=st.integers(1, 16),
           t=st.integers(1, 300))
    @example(seed=0, s=1, n=1, t=1)
    @example(seed=1, s=2, n=4, t=300)
    @example(seed=2, s=4, n=16, t=1000)
    @example(seed=3, s=3, n=5, t=7)
    def test_draw_is_the_expression_form(self, seed, s, n, t):
        # The noise is filled in place after the bit draw; its bytes are those of the one-line
        # expression over the same draws.
        _, _, noise = expression_block(np.random.default_rng(seed), s, n, t)
        drawn = draw_qpsk(np.random.default_rng(seed), s, n, t)
        assert drawn[1].shape == (n, t) and drawn[1].tobytes() == noise.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(1, 8), n=st.integers(1, 16),
           t=st.integers(1, 300))
    def test_symbols_are_the_expression_form(self, seed, s, n, t):
        # The symbols are filled in place from the first draw; their bytes are those of the
        # one-line Gray-map expression of the same bits.
        _, symbols, _ = expression_block(np.random.default_rng(seed), s, n, t)
        drawn = draw_qpsk(np.random.default_rng(seed), s, n, t)
        assert drawn[0].shape == (s, t) and drawn[0].tobytes() == symbols.tobytes()

    @pytest.mark.parametrize("case", ["nan_f", "nan_snr", "negative_snr", "scaled_f", "snr_array"])
    def test_rejects_invalid_link(self, case):
        # Inputs that `achievable_rate` rejects: the BER metric rejects them too.
        rng = np.random.default_rng(70)
        h = random_channel(rng, 4, 8)
        f = optimal_precoder(h, 4, PowerAllocation("unitary")).matrix
        snr = {"nan_snr": np.nan, "negative_snr": -1.0, "snr_array": [1.0, 2.0]}.get(case, 1.0)
        if case == "nan_f":
            f[3, 1] = np.nan
        elif case == "scaled_f":
            f = 3.0 * f
        with pytest.raises(InvalidInputError):
            ber_qpsk_mmse(h, f, snr, 1000, np.random.default_rng(0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_channel_rejected(self):
        # Unchecked, sigma^2 overflows and the detector's gain sigma / (sigma^2 + 1/P) reads 0.
        with pytest.raises(InvalidInputError, match=r"snr \* \|\|H\|\|\^2 must be finite"):
            ber_qpsk_mmse(1e200 * np.eye(2), np.eye(2) / np.sqrt(2), 1.0, 200,
                          np.random.default_rng(0))

    def test_detect_rejects_mismatched_block(self):
        # `_link_inputs` checks H against F for both metrics; the detector's per-SNR step checks
        # the block against the link.
        h, f = np.eye(2), np.ones((3, 1)) / np.sqrt(3)
        mismatch = r"shape mismatch: H is \(2, 2\), F is \(3, 1\)"
        with pytest.raises(InvalidInputError, match=mismatch):
            ber_qpsk_mmse(h, f, 1.0, 10, np.random.default_rng(0))
        with pytest.raises(InvalidInputError, match=mismatch):
            achievable_rate(h, f, 1.0)
        symbols, noise = draw_qpsk(np.random.default_rng(0), 1, 2, 10)
        with pytest.raises(InvalidInputError, match="do not fit 2 streams"):
            MmseLink(np.eye(2) / np.sqrt(2)).bit_errors(1.0, symbols, noise)


def single_call_detector(h, f, snr_linear, bits, noise):
    """The BER detector as one call, before its factor/step split: every call forms H F, its
    SVD and the QPSK symbols again. Kept here, unchanged, as the oracle of `MmseLink`."""
    h = np.asarray(h, dtype=np.complex128)
    f = np.asarray(f, dtype=np.complex128)
    p = float(snr_linear)
    symbols = ((1.0 - 2.0 * bits[0]) + 1j * (1.0 - 2.0 * bits[1])) / np.sqrt(2.0)

    hf = h @ f
    y = np.sqrt(p) * (hf @ symbols) + noise
    u, sigma, vh = np.linalg.svd(hf, full_matrices=False)
    est = (vh.conj().T * (sigma / (sigma ** 2 + 1.0 / p))) @ (u.conj().T @ y)

    errors = int(np.count_nonzero((est.real < 0) != bits[0]))
    errors += int(np.count_nonzero((est.imag < 0) != bits[1]))
    return errors


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), m=st.integers(1, 8),
       data=st.data(), t=st.integers(1, 64),
       degenerate=st.sampled_from([None, None, "zero_f_column", "rank_one_f", "singular_h"]),
       snrs_db=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=4),
       stack=st.integers(0, 3))
def test_split_detector_is_the_single_call_detector(seed, n, m, data, t, degenerate, snrs_db,
                                                    stack):
    # One factor per stack of links, reused at every SNR, and one symbol block shared by every
    # SNR and precoder give each precoder the bit-error counts of the single-call detector, also
    # on a rank-deficient F and a singular H, where at high SNR only the fallback to the U^H y
    # step keeps them equal. stack = 0 passes one M x S precoder (I = 1).
    s = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    h, fs = random_channel(rng, n, m), [unit_precoder(rng, m, s) for _ in range(max(stack, 1))]
    if degenerate == "zero_f_column":
        fs[-1][:, rng.integers(s)] = 0.0
    elif degenerate == "rank_one_f":                # every stream on one beam
        fs[-1] = unit_precoder(rng, m, 1) * (rng.standard_normal(s) / np.sqrt(s))
    elif degenerate == "singular_h":
        h = np.outer(h[:, 0], h[0])                 # rank 1
    bits, symbols, noise = expression_block(rng, s, n, t)
    link = MmseLink(h @ (np.array(fs) if stack else fs[0]))
    if data.draw(st.booleans()):                    # the same symbols in a strided layout
        symbols = np.asfortranarray(symbols)
    for snr_db in snrs_db:
        snr = 10.0 ** (snr_db / 10.0)
        assert link.bit_errors(snr, symbols, noise).tolist() == [
            single_call_detector(h, f, snr, bits, noise) for f in fs]


@pytest.mark.parametrize("seed, n, m, s, t", [(6, 7, 2, 3, 45), (11, 5, 1, 5, 42),
                                                (19, 8, 2, 3, 18)])
def test_stacked_detector_on_rank_deficient_links(seed, n, m, s, t):
    # M < S: H F is rank-deficient, and at these SNRs the Sigma V^H step alone miscounts these
    # blocks (by 2 to 9 bits). Their precoders take the certified fallback to the U^H y step.
    rng = np.random.default_rng(seed)
    h, f = random_channel(rng, n, m), unit_precoder(rng, m, s)
    bits, symbols, noise = expression_block(rng, s, n, t)
    link = MmseLink(h @ np.array([f, f[::-1]]))
    for snr in 10.0 ** (np.array([250.0, 278.0, 300.0]) / 10.0):
        assert link.bit_errors(snr, symbols, noise).tolist() == [
            single_call_detector(h, g, snr, bits, noise) for g in (f, f[::-1])]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), m=st.integers(1, 6),
       s=st.integers(1, 3), extra_cols=st.sampled_from([0, 0, 0, 1]),
       bad_h=st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf]),
       bad_f=st.sampled_from([None] * 6 + [np.nan, np.inf, -np.inf]),
       scale=st.sampled_from([1.0] * 5 + [0.0, 0.5, 3.0, 1.0 + 1e-7, 1.0 - 1e-8]),
       snr=st.one_of(st.sampled_from([0.0, -1.0, np.nan, np.inf, -np.inf]),
                     st.floats(1e-300, 1e300)))
def test_link_metrics_accept_the_same_inputs(seed, n, m, s, extra_cols, bad_h, bad_f, scale, snr):
    # achievable_rate and ber_qpsk_mmse take (H, F, scalar SNR) through one check: both accept
    # it or both raise InvalidInputError, and nothing else escapes either.
    rng = np.random.default_rng(seed)
    h, f = random_channel(rng, n, m + extra_cols), scale * unit_precoder(rng, m, min(s, m))
    if bad_h is not None:
        h[rng.integers(n), rng.integers(m)] = bad_h
    if bad_f is not None:
        f[rng.integers(m), rng.integers(f.shape[1])] = bad_f
    accepted = []
    for metric in (lambda: achievable_rate(h, f, snr),
                   lambda: ber_qpsk_mmse(h, f, snr, 4, np.random.default_rng(seed))):
        try:
            metric()
            accepted.append(True)
        except InvalidInputError:
            accepted.append(False)
    assert accepted[0] == accepted[1]


class TestBeamPattern:
    def spec(self, gamma, m=128, size=16):
        return BasisSpec(codebook=AngleCodebook((-np.pi / 6, np.pi / 6), size),
                         tx=ArrayGeometry(m), gamma=gamma)

    def test_integral_is_one(self):
        for gamma in (1, 2, 4):
            bp = beam_pattern(self.spec(gamma), 8)
            assert np.trapezoid(bp.gain, bp.angles) == pytest.approx(1.0, abs=1e-3)
            assert np.all(bp.gain >= 0)

    def test_single_beam_peak_at_center(self):
        bp = beam_pattern(self.spec(1), 5, grid_size=4096)
        center = self.spec(1).codebook.centers[5]
        step = bp.angles[1] - bp.angles[0]
        assert abs(bp.angles[np.argmax(bp.gain)] - center) <= step

    def test_two_beams_fill_nulls(self):
        spec1, spec2 = self.spec(1), self.spec(2)
        cb = spec1.codebook
        lo = cb.centers[8] - cb.resolution / 2
        hi = cb.centers[8] + cb.resolution / 2
        g1 = beam_pattern(spec1, 8)
        g2 = beam_pattern(spec2, 8)
        inside = (g1.angles >= lo) & (g1.angles <= hi)
        assert np.min(g2.gain[inside]) > np.min(g1.gain[inside])

    @pytest.mark.parametrize("m, grid_size", [(16, 1000), (128, 4096), (1024, 2048), (128, 777),
                                              (1024, 4097)])
    @pytest.mark.parametrize("block", [8, 64, 256])
    def test_blocks_bitwise_equal_one_block(self, monkeypatch, m, grid_size, block):
        spec = self.spec(2, m=m)
        monkeypatch.setattr(evaluation, "BEAM_PATTERN_BLOCK", grid_size)
        whole = beam_pattern(spec, 3, grid_size)
        monkeypatch.setattr(evaluation, "BEAM_PATTERN_BLOCK", block)
        blocked = beam_pattern(spec, 3, grid_size)
        assert blocked.gain.tobytes() == whole.gain.tobytes()
        assert blocked.angles.tobytes() == whole.angles.tobytes()

    def test_grid_size_and_errors(self):
        bp = beam_pattern(self.spec(1), 0, grid_size=256)
        assert bp.angles.shape == (256,) and bp.gain.shape == (256,)
        with pytest.raises(InvalidInputError):
            beam_pattern(self.spec(1), 0, grid_size=32)
        with pytest.raises(InvalidInputError):
            beam_pattern(self.spec(1), 16)
