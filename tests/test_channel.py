import dataclasses
import hashlib
import math

import numpy as np
import pytest

from fsqkd import _kernels, channel
from fsqkd.channel import (_KERNEL_CHUNK, Cause, Outcome, _click_cdfs, draw_eta_system,
                           simulate_channel)
from fsqkd.params import MAX_MEAN_PHOTON_NUMBER, ProtocolParams
from fsqkd.rng import random_bits, stream

QUIET = dict(background_prob_per_gate=0.0, dark_count_rate_hz=0.0)


def fixed_eta(eta):
    """Parameters that hold the system efficiency at ``eta`` in every block."""
    return dict(eta_system_mean=eta, eta_system_sigma=0.0)


class TestChannelParams:
    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(mean_photon_number=-0.1)

    def test_mean_above_ceiling_rejected(self):
        # the click table and the per-click flip draws grow linearly in nbar
        assert ProtocolParams(mean_photon_number=10.0).mean_photon_number == 10.0
        for nbar in (10.01, 1e10):
            with pytest.raises(ValueError, match="at most 10"):
                ProtocolParams(mean_photon_number=nbar)

    def test_noise_probability_above_one_rejected(self):
        # half of 1.0 background plus 0.6 dark per detector: the gate
        # firing probability would be meaningless
        with pytest.raises(ValueError, match="per-detector noise"):
            ProtocolParams(background_prob_per_gate=1.0, dark_count_rate_hz=1.2e8)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ProtocolParams(eta_system_mean=1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ProtocolParams)
                                      if isinstance(f.default, float)])
    def test_non_finite_rejected(self, name, value):
        # nan slipped past the sign checks; inf overflowed in the channel
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ProtocolParams(**{name: value})

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # it overflowed the Hello frame's seed field mid-session
        with pytest.raises(ValueError, match="rng_seed"):
            ProtocolParams(rng_seed=seed)


class TestEtaSystem:
    def test_zero_sigma_is_degenerate(self):
        params = ProtocolParams(eta_system_sigma=0.0)
        rng = stream(7, "eta")
        assert np.all(draw_eta_system(params, rng, 10) == 0.13)

    def test_moments(self):
        params = ProtocolParams()
        rng = stream(8, "eta")
        draws = draw_eta_system(params, rng, 10_000)
        assert abs(draws.mean() - 0.13) < 0.005
        assert abs(draws.std() - 0.04) < 0.01

    def test_clamped_to_unit_interval(self):
        params = ProtocolParams(eta_system_mean=0.05, eta_system_sigma=0.5)
        rng = stream(9, "eta")
        draws = draw_eta_system(params, rng, 2_000)
        assert draws.min() >= 0.0 and draws.max() <= 1.0


def _one_gate(bit, flips, noise):
    """One fired gate through the kernel, with no noise or misalignment.

    ``flips`` holds one wrong-detector uniform per signal click, ``noise``
    the two detector uniforms.
    """
    outcomes, causes = _kernels.channel_outcomes(
        np.array([bit], dtype=np.uint8), np.array([len(flips)], dtype=np.int64),
        np.array([[noise[0]], [noise[1]]]), np.array(flips, dtype=np.float64),
        0.0, 0.0, 0.0)
    return Outcome(int(outcomes[0])), Cause(int(causes[0]))


class TestTransmitPulse:
    def test_empty_pulse_quiet_gate_is_none(self):
        # no photons and silent detectors: no gate fires, the log stays empty
        params = ProtocolParams(mean_photon_number=0.0, **fixed_eta(1.0), **QUIET)
        run = simulate_channel(np.ones(100_000, dtype=np.uint8), params, seed=1,
                               block_size=50_000)
        assert len(run.detections) == 0

    def test_vertical_photon_blocked_by_h_analyzer(self):
        # a vertical photon never passes the horizontal-analysis path, so
        # without misalignment or noise detector 0 never fires for bit 1
        params = ProtocolParams(optical_error_prob=0.0, **fixed_eta(1.0), **QUIET)
        run = simulate_channel(np.ones(100_000, dtype=np.uint8), params, seed=2,
                               block_size=50_000, photon_count_override=1)
        assert len(run.detections) > 20_000
        assert np.all(run.detections.outcomes == Outcome.BIT1.value)

    def test_matching_analyzer_fires_and_assigns_bit(self):
        outcome, cause = _one_gate(1, [0.9], (0.99, 0.99))
        assert outcome is Outcome.BIT1
        assert cause is Cause.SIGNAL


# Per-fired-gate reference loop: the kernel must reproduce it gate for gate.
def _gate_outcome_py(bit, flips, u0, u1, p_bg_half, p_dark, p_opt_err):
    sig = [False, False]
    for u in flips:
        # a click lands on the detector of Alice's bit unless it is flipped
        sig[bit if u >= p_opt_err else 1 - bit] = True
    p_noise = p_bg_half + p_dark
    if flips:
        w0 = u0
    else:
        # the gate fired from noise alone: condition detector 0 on that
        w0 = u0 * (p_noise * (2.0 - p_noise))
    bg0 = w0 < p_bg_half
    dk0 = (not bg0) and w0 < p_noise
    if flips or bg0 or dk0:
        bg1 = u1 < p_bg_half
        dk1 = (not bg1) and u1 < p_noise
    else:
        # nothing else fired, so detector 1's noise did
        bg1 = u1 * p_noise < p_bg_half
        dk1 = not bg1
    fired0 = sig[0] or bg0 or dk0
    fired1 = sig[1] or bg1 or dk1
    if fired0 and fired1:
        outcome = Outcome.DUAL_FIRE
    elif fired1:
        outcome = Outcome.BIT1
    else:
        assert fired0, "a fired gate must fire a detector"
        outcome = Outcome.BIT0
    sources = set()
    if sig[0] or sig[1]:
        sources.add(Cause.SIGNAL)
    if bg0 or bg1:
        sources.add(Cause.BACKGROUND)
    if dk0 or dk1:
        sources.add(Cause.DARK)
    return outcome, sources.pop() if len(sources) == 1 else Cause.MIXED


def _oracle(bits, clicks, u_noise, u_flip, p_bg_half, p_dark, p_opt_err):
    outcomes = np.zeros(len(bits), dtype=np.uint8)
    causes = np.zeros(len(bits), dtype=np.uint8)
    first = 0
    for i in range(len(bits)):
        flips = u_flip[first:first + clicks[i]].tolist()
        first += clicks[i]
        outcomes[i], causes[i] = _gate_outcome_py(
            int(bits[i]), flips, float(u_noise[0][i]), float(u_noise[1][i]),
            p_bg_half, p_dark, p_opt_err)
    assert first == len(u_flip)
    return outcomes, causes


def _recorded_kernel_calls(monkeypatch, params, n, seed):
    """Run the channel and return every kernel call's arguments and result."""
    calls = []
    kernel = _kernels.channel_outcomes

    def recording(*args):
        result = kernel(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(_kernels, "channel_outcomes", recording)
    bits = random_bits(stream(seed, "oracle-bits"), n)
    simulate_channel(bits, params, seed=seed, block_size=50_000)
    return calls


HEAVY_NOISE = dict(background_prob_per_gate=0.6, dark_count_rate_hz=4e7,
                   optical_error_prob=0.5)


class TestKernelOracle:
    def test_matches_per_pulse_oracle(self, monkeypatch):
        # the sparse draws of whole sessions' worth of blocks at nbar 0.5
        params = ProtocolParams(mean_photon_number=0.5)
        for seed in (0, 1, 2):
            calls = _recorded_kernel_calls(monkeypatch, params, 1_000_000, seed)
            assert sum(len(args[0]) for args, _ in calls) > 10_000
            for args, (outcomes, causes) in calls:
                o_ref, c_ref = _oracle(*args)
                assert np.array_equal(outcomes, o_ref)
                assert np.array_equal(causes, c_ref)

    def test_every_cause_branch_matches_oracle(self, monkeypatch):
        # heavy noise and misalignment so every outcome and cause occurs
        params = ProtocolParams(mean_photon_number=2.0, **fixed_eta(0.5), **HEAVY_NOISE)
        calls = _recorded_kernel_calls(monkeypatch, params, 100_000, 3)
        outcomes = np.concatenate([result[0] for _, result in calls])
        causes = np.concatenate([result[1] for _, result in calls])
        for args, (o, c) in calls:
            o_ref, c_ref = _oracle(*args)
            assert np.array_equal(o, o_ref)
            assert np.array_equal(c, c_ref)
        assert set(np.unique(outcomes)) == set(Outcome)
        assert set(np.unique(causes)) == set(Cause)
        clicks = np.concatenate([args[1] for args, _ in calls])
        assert clicks.max() >= 3 and np.count_nonzero(clicks == 0) > 0


def _click_cdf_reference(p_click, nbar):
    """The Poisson click CDF with one ``math.lgamma`` call per count."""
    lam = nbar * p_click
    kmax = int(lam + 12.0 * math.sqrt(lam) + 24)
    log_w = [k * np.log(lam) - math.lgamma(k + 1) for k in range(1, kmax + 1)]
    cdf = np.cumsum(np.exp(np.array(log_w) - max(log_w)))
    return cdf / cdf[-1]


class TestClickCdf:
    """The Poisson click CDF, read from a log-factorial table, equals the
    per-count formula bit for bit at every click mean the parameters allow."""

    def test_table_matches_formula(self):
        # the grid ends at nbar's ceiling with a click probability of 1,
        # where the CDF takes all 71 entries of the table
        means = np.concatenate([np.linspace(0.0, MAX_MEAN_PHOTON_NUMBER, 2001)[1:],
                                stream(3, "click-means").uniform(0.0, 10.0, 500),
                                [5e-324, 1e-300, 1e-9]])
        cdfs, counts = _click_cdfs(np.ones(len(means)), means, None)
        for lam, cdf, count in zip(means.tolist(), cdfs, counts):
            reference = _click_cdf_reference(1.0, lam)
            assert count == len(reference), lam
            assert cdf[:count].tobytes() == reference.tobytes(), lam
            assert np.all(cdf[count:] == 1.0), lam
        cdf, counts = _click_cdfs(np.ones(1), MAX_MEAN_PHOTON_NUMBER, None)
        assert cdf.shape == (1, 71) and counts.tolist() == [71]


def _cell_probabilities(params, eta, photon_count_override=None):
    """Exact per-gate probability of every (Alice bit, outcome, cause) cell.

    Enumerates the independent events of one gate in the physical model:
    whether any photon clicks on the detector of Alice's bit ("right") and
    whether any clicks on the other ("wrong"), and each detector's noise
    (none, background or dark).  Outcome 0 stands for an empty gate.
    """
    q = params.eta_q * eta
    p_err = params.optical_error_prob
    if photon_count_override is None:
        lam = params.mean_photon_number * q
        p_no_right = math.exp(-lam * (1.0 - p_err))
        p_no_wrong = math.exp(-lam * p_err)
        p_clicks = {(False, False): p_no_right * p_no_wrong,
                    (False, True): p_no_right * (1.0 - p_no_wrong),
                    (True, False): (1.0 - p_no_right) * p_no_wrong,
                    (True, True): (1.0 - p_no_right) * (1.0 - p_no_wrong)}
    else:
        n = photon_count_override
        none = (1.0 - q) ** n
        no_right = (1.0 - q * (1.0 - p_err)) ** n
        no_wrong = (1.0 - q * p_err) ** n
        p_clicks = {(False, False): none,
                    (False, True): no_right - none,
                    (True, False): no_wrong - none,
                    (True, True): 1.0 - no_right - no_wrong + none}
    p_bg_half = params.background_prob_per_gate / 2.0
    p_dark = params.dark_prob_per_gate
    noise = {None: 1.0 - p_bg_half - p_dark, Cause.BACKGROUND: p_bg_half, Cause.DARK: p_dark}
    cells = {}
    for bit in (0, 1):
        for (right, wrong), p_sig in p_clicks.items():
            sig = {bit: right, 1 - bit: wrong}
            for n0, p0 in noise.items():
                for n1, p1 in noise.items():
                    fired0 = sig[0] or n0 is not None
                    fired1 = sig[1] or n1 is not None
                    outcome = fired0 * Outcome.BIT0 + fired1 * Outcome.BIT1
                    sources = {n for n in (n0, n1) if n is not None}
                    if right or wrong:
                        sources.add(Cause.SIGNAL)
                    cause = sources.pop() if len(sources) == 1 else Cause.MIXED
                    key = (bit, outcome, cause if outcome else 0)
                    cells[key] = cells.get(key, 0.0) + 0.5 * p_sig * p0 * p1
    return cells


class TestCellFrequencies:
    """The sparse draws reproduce the dense model's per-gate statistics.

    Joint (Alice bit, outcome, cause) counts over millions of gates are
    compared with the exact cell probabilities of the physical model's
    independent events.  Bound fixed beforehand: |z| < 5 in every cell,
    with the binomial variance floored at one count so that cells expected
    to hold less than one gate may hold a few; impossible cells stay empty.
    """

    @pytest.mark.parametrize("overrides, n, eta, pco", [
        (dict(), 32_000_000, 0.13, None),
        (dict(mean_photon_number=2.0, **HEAVY_NOISE), 4_000_000, 0.5, None),
        (dict(**HEAVY_NOISE), 4_000_000, 1.0, 3),
    ], ids=["default", "heavy-noise", "heavy-noise-3-photons"])
    def test_cells_match_model(self, overrides, n, eta, pco):
        params = ProtocolParams(**overrides, **fixed_eta(eta))
        bits = random_bits(stream(31, "cell-bits"), n)
        run = simulate_channel(bits, params, seed=31, block_size=50_000,
                               photon_count_override=pco)
        det = run.detections
        fired_bits = bits[det.ticks].astype(np.int64)
        observed = np.bincount(fired_bits * 16 + det.outcomes.astype(np.int64) * 4
                               + det.causes, minlength=32)
        ones = int(np.count_nonzero(bits))
        observed[0] += (n - ones) - np.count_nonzero(fired_bits == 0)
        observed[16] += ones - np.count_nonzero(fired_bits == 1)
        expected = np.zeros(32)
        for (bit, outcome, cause), p in _cell_probabilities(params, eta, pco).items():
            expected[bit * 16 + outcome * 4 + cause] += p
        assert abs(expected.sum() - 1.0) < 1e-12
        impossible = expected == 0.0
        assert not observed[impossible].any()
        mean = n * expected[~impossible]
        var = np.maximum(mean * (1.0 - expected[~impossible]), 1.0)
        z = (observed[~impossible] - mean) / np.sqrt(var)
        assert np.all(np.abs(z) < 5.0), dict(zip(np.flatnonzero(~impossible), z.round(2)))


class TestChannelStatistics:
    def test_detection_fraction_noise_off(self):
        # pure signal: conclusive fraction converges on 1 - exp(-nbar/4 * eta)
        params = ProtocolParams(mean_photon_number=0.5, **fixed_eta(0.13), **QUIET)
        bits = stream(21, "bits").integers(0, 2, 1_000_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=21, block_size=100_000)
        frac = np.count_nonzero(run.detections.conclusive_mask()) / len(bits)
        expected = 1.0 - math.exp(-0.25 * 0.13 * 0.5)
        sigma = math.sqrt(expected * (1 - expected) / len(bits))
        assert abs(frac - expected) < 3 * sigma

    def test_detection_fraction_with_defaults(self):
        params = ProtocolParams(mean_photon_number=0.5, **fixed_eta(0.13))
        bits = stream(22, "bits").integers(0, 2, 4_000_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=22, block_size=100_000)
        frac = np.count_nonzero(run.detections.conclusive_mask()) / len(bits)
        p_b = 1.0 - math.exp(-0.25 * 0.13 * 0.5)
        assert abs(frac - p_b) / p_b < 0.05

    def test_conclusive_bits_error_free_without_noise(self):
        params = ProtocolParams(mean_photon_number=0.5, optical_error_prob=0.0, **QUIET)
        bits = stream(23, "bits").integers(0, 2, 300_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=23, block_size=100_000)
        det = run.detections
        inferred = det.conclusive_bits()
        truth = bits[det.conclusive_ticks()]
        assert len(inferred) > 0
        assert np.array_equal(inferred, truth)

    def test_background_only_rates_and_ber(self):
        params = ProtocolParams(mean_photon_number=0.0)
        n = 4_000_000
        bits = stream(24, "bits").integers(0, 2, n).astype(np.uint8)
        run = simulate_channel(bits, params, seed=24, block_size=200_000)
        det = run.detections
        per_detector = params.background_prob_per_gate / 2 + params.dark_prob_per_gate
        for outcome in (Outcome.BIT0, Outcome.BIT1):
            fired = np.count_nonzero(det.outcomes == outcome) / n
            sigma = math.sqrt(per_detector / n)
            assert abs(fired - per_detector) < 4 * sigma
        inferred = det.conclusive_bits()
        truth = bits[det.conclusive_ticks()]
        ber = np.count_nonzero(inferred != truth) / len(inferred)
        assert abs(ber - 0.5) < 4 * math.sqrt(0.25 / len(inferred))

    def test_dual_fire_rate_monotone_in_nbar(self):
        rates = []
        n = 12_000_000
        for nbar in (0.2, 0.35, 0.5):
            params = ProtocolParams(mean_photon_number=nbar, **fixed_eta(0.13))
            bits = stream(25, f"bits{nbar}").integers(0, 2, n).astype(np.uint8)
            run = simulate_channel(bits, params, seed=25, block_size=400_000)
            rates.append(run.detections.dual_fire_count() / n)
        assert rates[0] < rates[1] < rates[2]

    def test_photon_count_override(self):
        params = ProtocolParams(**fixed_eta(1.0), **QUIET)
        bits = stream(26, "bits").integers(0, 2, 100_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=26, block_size=50_000,
                               photon_count_override=1)
        frac = np.count_nonzero(run.detections.conclusive_mask()) / len(bits)
        assert abs(frac - 0.25) < 0.01

    def test_fired_fraction_follows_eta_q(self):
        # the channel takes the protocol factor from the parameters, as the
        # closed-form model does; bound fixed before running: |z| < 5
        nbar, eta_q, eta = 0.5, 0.125, 0.5
        params = ProtocolParams(mean_photon_number=nbar, eta_q=eta_q, **fixed_eta(eta))
        n = 2_000_000
        run = simulate_channel(random_bits(stream(27, "bits"), n), params, seed=27,
                               block_size=100_000)
        quiet = 1.0 - params.background_prob_per_gate / 2 - params.dark_prob_per_gate
        p = 1.0 - math.exp(-nbar * eta_q * eta) * quiet ** 2
        z = (len(run.detections) - n * p) / math.sqrt(n * p * (1.0 - p))
        assert abs(z) < 5.0, z


def _log_sha256(run):
    det = run.detections
    digest = hashlib.sha256()
    for column in (det.ticks, det.outcomes, det.causes):
        digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


class TestKernelBatches:
    """Consecutive blocks are drawn and run through the kernel in batches.

    The digests pin the detection log (ticks, outcomes, causes) at batch
    edges, as ``PROTOCOL_VERSION`` 6 draws it: one ``eta`` and one
    ``gates`` stream for the whole run.
    """

    @pytest.mark.parametrize("overrides, n, block_size, pco, seed, fired, digest", [
        # 143 blocks of 7 pulses, nearly all empty, the last one too
        (dict(mean_photon_number=0.5), 1_000, 7, None, 41, 16,
         "bf7d35eaa44d75dcdf5ccc401da70aa5cf8350776b01ce11f9e5f4d454e1fe6b"),
        # one block whose fired gates exceed a kernel batch
        (dict(mean_photon_number=5.0), 400_000, 400_000, None, 42, 68_631,
         "01239537f2a2c7afdf08adbb975a25b1d1717de265559e6ac6a8bd8de3a80d95"),
        (dict(), 300_000, 50_000, 3, 43, 25_933,
         "f5fb94a42613979737856207ff0dc84b9a0fc57960d7b0a4c964ab661647477d"),
        (dict(mean_photon_number=0.5, eta_system_sigma=0.0), 300_000, 50_000, None, 44, 5_076,
         "48ca41e59980a7af66c9227a6087364978bc097dd94e644e26a2b9871da4c4fe"),
    ], ids=["tiny-blocks", "one-wide-block", "three-photons", "fixed-eta"])
    def test_log_is_pinned(self, overrides, n, block_size, pco, seed, fired, digest):
        bits = random_bits(stream(seed, "pin-bits"), n)
        run = simulate_channel(bits, ProtocolParams(**overrides), seed=seed,
                               block_size=block_size, photon_count_override=pco)
        assert len(run.detections) == fired
        assert run.detections.ticks.dtype == np.int64
        assert _log_sha256(run) == digest

    def test_tiny_blocks_end_in_an_empty_block(self):
        # seed 41 still leaves the last block, ticks 994-999, dark: its last
        # fired tick is 963
        bits = random_bits(stream(41, "pin-bits"), 1_000)
        run = simulate_channel(bits, ProtocolParams(mean_photon_number=0.5), seed=41,
                               block_size=7)
        assert run.detections.ticks[-1] < 1_000 // 7 * 7

    def test_one_kernel_call_per_batch(self, monkeypatch):
        params = ProtocolParams(mean_photon_number=0.5)
        calls = _recorded_kernel_calls(monkeypatch, params, 32 * 50_000, 7)
        fired = sum(len(args[0]) for args, _ in calls)
        assert fired > 2 * _KERNEL_CHUNK
        assert len(calls) <= -(-fired // _KERNEL_CHUNK) + 1
        # every batch but the last holds at least a full chunk
        assert all(len(args[0]) >= _KERNEL_CHUNK for args, _ in calls[:-1])


class _RecordingStream:
    """A generator that records what its ``binomial`` calls return."""

    def __init__(self, rng):
        self._rng = rng
        self.binomials = []

    def binomial(self, *args, **kwargs):
        self.binomials.append(self._rng.binomial(*args, **kwargs))
        return self.binomials[-1]

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _recorded_fired_counts(monkeypatch, params, n, block_size, seed):
    """Run the channel; return its detections and each block's fired count."""
    recorded = {}

    def recording(seed, label):
        recorded[label] = _RecordingStream(stream(seed, label))
        return recorded[label]

    monkeypatch.setattr(channel, "stream", recording)
    run = simulate_channel(random_bits(stream(seed, "draw-bits"), n), params, seed=seed,
                           block_size=block_size)
    assert sorted(recorded) == ["eta", "gates"]
    (fired,) = recorded["gates"].binomials
    return run.detections, fired


def _offset_z(offsets, block_size, bins):
    """z-score of the chi-square statistic of in-block offsets over equal bins."""
    counts = np.bincount(offsets * bins // block_size, minlength=bins)
    expected = len(offsets) / bins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return (chi2 - (bins - 1)) / math.sqrt(2 * (bins - 1))


class TestGateDraws:
    """Each block's fired gates are a uniform subset of its fired count.

    Bounds fixed before running: the in-block offsets' chi-square statistic
    over 50 equal bins lies within 5 standard deviations of its mean.
    """

    @pytest.mark.parametrize("overrides, block_size", [
        (dict(mean_photon_number=0.5), 50_000),
        # odd block and session lengths: a short last block in a batch
        (dict(mean_photon_number=2.0, **HEAVY_NOISE), 7_001),
    ], ids=["sparse", "noisy-odd-blocks"])
    def test_ticks_are_a_uniform_subset_of_each_block(self, monkeypatch, overrides, block_size):
        n = 2_000_003
        det, fired = _recorded_fired_counts(monkeypatch, ProtocolParams(**overrides), n,
                                            block_size, 51)
        assert np.all(np.diff(det.ticks) > 0)
        assert det.ticks[0] >= 0 and det.ticks[-1] < n
        assert np.array_equal(np.bincount(det.ticks // block_size, minlength=len(fired)), fired)
        full = det.ticks < n // block_size * block_size
        assert abs(_offset_z(det.ticks[full] % block_size, block_size, 50)) < 5.0

    def test_dense_blocks_draw_the_dark_gates(self, monkeypatch):
        # nbar 10 at full efficiency: more than half of every block fires,
        # so the positions drawn are those of the gates that stay dark
        params = ProtocolParams(mean_photon_number=10.0, **fixed_eta(1.0))
        drawn = []
        distinct = channel._distinct_ticks

        def recording(rng, first, span):
            drawn.append(len(first))
            return distinct(rng, first, span)

        monkeypatch.setattr(channel, "_distinct_ticks", recording)
        n, block_size = 100_000, 10_000
        det, fired = _recorded_fired_counts(monkeypatch, params, n, block_size, 52)
        assert np.all(2 * fired > block_size)
        assert sum(drawn) == n - fired.sum()
        assert np.all(np.diff(det.ticks) > 0)
        assert np.array_equal(np.bincount(det.ticks // block_size, minlength=len(fired)), fired)
        dark = np.setdiff1d(np.arange(n), det.ticks)
        assert abs(_offset_z(dark % block_size, block_size, 50)) < 5.0

    def test_every_gate_fires(self):
        # noise fires every detector in every gate: each block is dense and
        # draws no dark gate at all
        params = ProtocolParams(background_prob_per_gate=1.0, dark_count_rate_hz=0.5,
                                gate_width_s=1.0)
        run = simulate_channel(random_bits(stream(54, "draw-bits"), 30_001), params, seed=54,
                               block_size=1_000)
        assert np.array_equal(run.detections.ticks, np.arange(30_001))
        assert np.all(run.detections.outcomes == Outcome.DUAL_FIRE.value)

    def test_certain_clicks_raise_no_warning(self):
        # three photons that all click: the binomial click CDF puts all its
        # weight on three clicks, with log(1 - 1) never multiplied out
        params = ProtocolParams(eta_q=1.0, optical_error_prob=0.0, **fixed_eta(1.0), **QUIET)
        bits = random_bits(stream(55, "draw-bits"), 10_000)
        with np.errstate(all="raise"):
            run = simulate_channel(bits, params, seed=55, block_size=1_000,
                                   photon_count_override=3)
        assert np.array_equal(run.detections.ticks, np.arange(10_000))
        assert np.array_equal(run.detections.conclusive_bits(), bits)

    @pytest.mark.parametrize("overrides", [
        # about 46% of blocks clamp to eta 0; without noise such a block
        # cannot fire
        dict(eta_system_mean=0.05, eta_system_sigma=0.5, **QUIET),
        dict(eta_system_mean=0.05, eta_system_sigma=0.5),
        # nothing can fire anywhere
        dict(mean_photon_number=0.0, **QUIET),
    ], ids=["clamped-quiet", "clamped-noisy", "dark"])
    def test_blocks_that_cannot_fire_raise_no_warning(self, overrides):
        params = ProtocolParams(**overrides)
        n, block_size = 1_000_000, 10_000
        eta = draw_eta_system(params, stream(53, "eta"), n // block_size)
        if params.eta_system_sigma == 0.5:
            assert np.count_nonzero(eta == 0.0) > 10
        bits = random_bits(stream(53, "draw-bits"), n)
        with np.errstate(all="raise"):
            run = simulate_channel(bits, params, seed=53, block_size=block_size)
        det = run.detections
        assert set(np.unique(det.outcomes)) <= {o.value for o in Outcome}
        if params.mean_photon_number == 0.0:
            assert len(det) == 0
        else:
            # eta-0 blocks of a quiet link stay dark
            lit = np.unique(det.ticks // block_size)
            assert len(lit) > 0
            if params.background_prob_per_gate == 0.0:
                assert np.all(eta[lit] > 0.0)
