import math

import numpy as np
import pytest

from fsqkd import _kernels
from fsqkd._kernels import (
    CAUSE_BACKGROUND,
    CAUSE_DARK,
    CAUSE_MIXED,
    CAUSE_NA,
    CAUSE_SIGNAL,
    OUTCOME_BIT0,
    OUTCOME_BIT1,
    OUTCOME_DUAL,
    OUTCOME_NONE,
)
from fsqkd.channel import (
    Cause,
    Outcome,
    draw_eta_system,
    draw_photon_count,
    simulate_channel,
)
from fsqkd.params import ProtocolParams
from fsqkd.rng import stream

QUIET = dict(background_prob_per_gate=0.0, dark_count_rate_hz=0.0)


class TestPhotonStatistics:
    def test_sample_mean_tracks_nbar(self):
        counts = draw_photon_count(0.5, stream(3, "poisson"), size=1_000_000)
        assert 0.495 <= counts.mean() <= 0.505

    def test_nonzero_probability_matches_poisson(self):
        counts = draw_photon_count(0.2, stream(4, "poisson"), size=1_000_000)
        p_nonzero = np.count_nonzero(counts) / len(counts)
        assert abs(p_nonzero - (1.0 - math.exp(-0.2))) < 0.002

    def test_vanishing_mean_gives_zeros(self):
        counts = draw_photon_count(1e-9, stream(5, "poisson"), size=100_000)
        assert np.count_nonzero(counts) <= 3

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            draw_photon_count(-0.1, stream(6, "poisson"))


class TestEtaSystem:
    def test_zero_sigma_is_degenerate(self):
        params = ProtocolParams(eta_system_sigma=0.0)
        rng = stream(7, "eta")
        assert all(draw_eta_system(params, rng) == 0.13 for _ in range(10))

    def test_moments(self):
        params = ProtocolParams()
        rng = stream(8, "eta")
        draws = np.array([draw_eta_system(params, rng) for _ in range(10_000)])
        assert abs(draws.mean() - 0.13) < 0.005
        assert abs(draws.std() - 0.04) < 0.01

    def test_clamped_to_unit_interval(self):
        params = ProtocolParams(eta_system_mean=0.05, eta_system_sigma=0.5)
        rng = stream(9, "eta")
        draws = np.array([draw_eta_system(params, rng) for _ in range(2_000)])
        assert draws.min() >= 0.0 and draws.max() <= 1.0


def _one_gate(bit, photons, noise):
    """One ideal gate (eta 1, no noise, no misalignment) through the kernel.

    ``photons`` holds one (survival, route, projection, misalignment)
    uniform quadruple per photon, ``noise`` the two detector uniforms.
    """
    u = np.array(photons, dtype=np.float64).reshape(-1, 4).T
    outcomes, causes = _kernels.channel_outcomes(
        np.array([bit], dtype=np.uint8), np.array([len(photons)], dtype=np.int64),
        np.zeros(1, dtype=np.int64),
        *(np.ascontiguousarray(row) for row in u),
        np.array([noise[0]]), np.array([noise[1]]),
        1.0, 0.0, 0.0, 0.0)
    return Outcome(int(outcomes[0])), Cause(int(causes[0]))


class TestTransmitPulse:
    def test_empty_pulse_quiet_gate_is_none(self):
        outcome, cause = _one_gate(0, [], (0.0, 0.0))
        assert outcome is Outcome.NONE
        assert cause is Cause.NA

    def test_vertical_photon_blocked_by_h_analyzer(self):
        # route draw 0.9 sends the photon down the horizontal-analysis path,
        # orthogonal to |V>; with no misalignment nothing can fire
        outcome, _cause = _one_gate(1, [(0.0, 0.9, 0.0, 0.0)], (0.99, 0.99))
        assert outcome is Outcome.NONE

    def test_matching_analyzer_fires_and_assigns_bit(self):
        # survive, route to the -45 path (u < 0.5), pass projection
        outcome, cause = _one_gate(1, [(0.0, 0.1, 0.2, 0.9)], (0.99, 0.99))
        assert outcome is Outcome.BIT1
        assert cause is Cause.SIGNAL

    def test_eta_out_of_range_rejected(self):
        bits = np.zeros(10, dtype=np.uint8)
        with pytest.raises(ValueError):
            simulate_channel(bits, ProtocolParams(), seed=1, block_size=10,
                             eta_system_override=1.5)


# Per-pulse reference loop: the kernel must reproduce it gate for gate.
def _channel_outcomes_py(bits, counts, offsets,
                         u_surv, u_route, u_proj, u_err,
                         u_noise0, u_noise1,
                         eta, p_bg_half, p_dark, p_opt_err,
                         outcomes, causes):
    n = bits.shape[0]
    for i in range(n):
        sig0 = False
        sig1 = False
        abit = bits[i]
        start = offsets[i]
        for j in range(start, start + counts[i]):
            if u_surv[j] >= eta:
                continue
            route1 = u_route[j] < 0.5
            # only the analyzer matching Alice's bit is non-orthogonal
            if route1 == (abit == 1) and u_proj[j] < 0.5:
                if route1 != (u_err[j] < p_opt_err):
                    sig1 = True
                else:
                    sig0 = True
        bg0 = u_noise0[i] < p_bg_half
        dk0 = (not bg0) and (u_noise0[i] < p_bg_half + p_dark)
        bg1 = u_noise1[i] < p_bg_half
        dk1 = (not bg1) and (u_noise1[i] < p_bg_half + p_dark)
        fired0 = sig0 or bg0 or dk0
        fired1 = sig1 or bg1 or dk1
        if fired0 and fired1:
            outcomes[i] = OUTCOME_DUAL
        elif fired1:
            outcomes[i] = OUTCOME_BIT1
        elif fired0:
            outcomes[i] = OUTCOME_BIT0
        else:
            outcomes[i] = OUTCOME_NONE
            causes[i] = CAUSE_NA
            continue
        mask = 0
        if fired0:
            if sig0:
                mask |= 1
            if bg0:
                mask |= 2
            if dk0:
                mask |= 4
        if fired1:
            if sig1:
                mask |= 1
            if bg1:
                mask |= 2
            if dk1:
                mask |= 4
        if mask == 1:
            causes[i] = CAUSE_SIGNAL
        elif mask == 2:
            causes[i] = CAUSE_BACKGROUND
        elif mask == 4:
            causes[i] = CAUSE_DARK
        else:
            causes[i] = CAUSE_MIXED


def _oracle(bits, counts, offsets, u_surv, u_route, u_proj, u_err,
            u_noise0, u_noise1, eta, p_bg_half, p_dark, p_opt_err):
    outcomes = np.zeros(len(bits), dtype=np.uint8)
    causes = np.zeros(len(bits), dtype=np.uint8)
    _channel_outcomes_py(bits, counts, offsets, u_surv, u_route, u_proj, u_err,
                         u_noise0, u_noise1, eta, p_bg_half, p_dark, p_opt_err,
                         outcomes, causes)
    return outcomes, causes


def _random_kernel_inputs(seed, n=50_000, nbar=0.5,
                          p_bg_half=3.35e-4, p_dark=7e-6, p_opt_err=0.019):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n).astype(np.uint8)
    counts = rng.poisson(nbar, n).astype(np.int64)
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum())
    u = rng.random((4, total))
    noise = rng.random((2, n))
    return (bits, counts, offsets,
            np.ascontiguousarray(u[0]), np.ascontiguousarray(u[1]),
            np.ascontiguousarray(u[2]), np.ascontiguousarray(u[3]),
            np.ascontiguousarray(noise[0]), np.ascontiguousarray(noise[1]),
            0.13, p_bg_half, p_dark, p_opt_err)


class TestKernelOracle:
    def test_matches_per_pulse_oracle(self):
        for seed in (0, 1, 2):
            args = _random_kernel_inputs(seed)
            outcomes, causes = _kernels.channel_outcomes(*args)
            o_ref, c_ref = _oracle(*args)
            assert np.array_equal(outcomes, o_ref)
            assert np.array_equal(causes, c_ref)

    def test_every_cause_branch_matches_oracle(self):
        # heavy noise and misalignment so every outcome and cause occurs
        args = _random_kernel_inputs(3, nbar=2.0, p_bg_half=0.3, p_dark=0.2,
                                     p_opt_err=0.5)
        outcomes, causes = _kernels.channel_outcomes(*args)
        o_ref, c_ref = _oracle(*args)
        assert np.array_equal(outcomes, o_ref)
        assert np.array_equal(causes, c_ref)
        assert set(np.unique(outcomes)) == set(Outcome)
        assert set(np.unique(causes)) == set(Cause)


class TestChannelStatistics:
    def test_detection_fraction_noise_off(self):
        # pure signal: conclusive fraction converges on 1 - exp(-nbar/4 * eta)
        params = ProtocolParams(mean_photon_number=0.5, **QUIET)
        bits = stream(21, "bits").integers(0, 2, 1_000_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=21, block_size=100_000,
                               eta_system_override=0.13)
        frac = np.count_nonzero(run.detections.conclusive_mask()) / len(bits)
        expected = 1.0 - math.exp(-0.25 * 0.13 * 0.5)
        sigma = math.sqrt(expected * (1 - expected) / len(bits))
        assert abs(frac - expected) < 3 * sigma

    def test_detection_fraction_with_defaults(self):
        params = ProtocolParams(mean_photon_number=0.5)
        bits = stream(22, "bits").integers(0, 2, 4_000_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=22, block_size=100_000,
                               eta_system_override=0.13)
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
            params = ProtocolParams(mean_photon_number=nbar)
            bits = stream(25, f"bits{nbar}").integers(0, 2, n).astype(np.uint8)
            run = simulate_channel(bits, params, seed=25, block_size=400_000,
                                   eta_system_override=0.13)
            rates.append(run.detections.dual_fire_count() / n)
        assert rates[0] < rates[1] < rates[2]

    def test_photon_count_override(self):
        params = ProtocolParams(**QUIET)
        bits = stream(26, "bits").integers(0, 2, 100_000).astype(np.uint8)
        run = simulate_channel(bits, params, seed=26, block_size=50_000,
                               photon_count_override=1, eta_system_override=1.0)
        frac = np.count_nonzero(run.detections.conclusive_mask()) / len(bits)
        assert abs(frac - 0.25) < 0.01
