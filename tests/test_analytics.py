import math

import numpy as np
import pytest

from fsqkd.analytics import (
    ber_model,
    default_grid,
    detection_probability,
    optimize_nbar,
    rate_curve_rows,
    CSV_HEADER,
)
from fsqkd.params import ProtocolParams


class TestDetectionProbability:
    def test_reference_operating_point(self):
        # eta_q * eta_system = 0.0325 at nbar 0.5 -> 16.1 kHz on a 1-MHz clock
        assert detection_probability(0.0325, 0.5) == pytest.approx(0.016119, abs=1e-6)

    def test_zero_photon_number(self):
        assert detection_probability(0.0325, 0.0) == 0.0

    def test_small_signal_linearization(self):
        eta, nbar = 1e-2, 1e-2
        p = detection_probability(eta, nbar)
        assert abs(p - eta * nbar) / (eta * nbar) < 1e-4

    def test_input_validation(self):
        with pytest.raises(ValueError):
            detection_probability(1.5, 0.1)
        with pytest.raises(ValueError):
            detection_probability(0.5, -0.1)


class TestBerModel:
    def test_decomposition_near_measured_values(self):
        # totals within 1.5 pp of 7.8/4.1/4.1 %, background within 1.5 pp
        # of 5.9/2.4/1.9 %
        params = ProtocolParams()
        expectations = [
            (0.2, 0.078, 0.059),
            (0.35, 0.041, 0.024),
            (0.5, 0.041, 0.019),
        ]
        for nbar, total, background in expectations:
            budget = ber_model(params, nbar)
            assert abs(budget.ber_total - total) < 0.015
            assert abs(budget.ber_background - background) < 0.015
            assert budget.ber_dark < 0.001

    def test_noise_free_model_has_zero_error_rate(self):
        params = ProtocolParams(background_prob_per_gate=0.0,
                                dark_count_rate_hz=0.0,
                                optical_error_prob=0.0)
        assert ber_model(params, 0.4).ber_total == 0.0

    def test_signal_dominated_limit_is_optical_floor(self):
        params = ProtocolParams()
        budget = ber_model(params.replace(eta_system_mean=1.0), 0.99)
        assert budget.ber_total == pytest.approx(params.optical_error_prob, abs=0.002)

    def test_component_sum(self):
        budget = ber_model(ProtocolParams(), 0.35)
        assert budget.ber_total == pytest.approx(
            budget.ber_background + budget.ber_optical + budget.ber_dark)

    def test_all_zero_probabilities_rejected(self):
        params = ProtocolParams(background_prob_per_gate=0.0, dark_count_rate_hz=0.0)
        with pytest.raises(ValueError):
            ber_model(params, 0.0)

    def test_monte_carlo_consistency(self):
        # simulated sifted rate and error rate track the closed form within
        # 3 standard errors plus the 1.5-pp model band
        from fsqkd.channel import simulate_channel
        from fsqkd.protocol import bob_receive
        from fsqkd.rng import stream

        params_base = ProtocolParams()
        n = 1_000_000
        for nbar in (0.2, 0.35, 0.5):
            params = params_base.replace(mean_photon_number=nbar)
            budget = ber_model(params, nbar)
            bits = stream(int(nbar * 100), "bits").integers(0, 2, n).astype(np.uint8)
            run = simulate_channel(bits, params.replace(eta_system_mean=0.13,
                                                        eta_system_sigma=0.0),
                                   seed=int(nbar * 100), block_size=100_000)
            ticks, sifted = bob_receive(run.detections)
            frac = len(sifted) / n
            sigma_rate = math.sqrt(budget.p_total * (1 - budget.p_total) / n)
            assert abs(frac - budget.p_total) < 3 * sigma_rate + 0.015 * budget.p_total
            truth = bits[ticks]
            ber = np.count_nonzero(truth != sifted) / len(sifted)
            sigma_ber = math.sqrt(budget.ber_total * (1 - budget.ber_total) / len(sifted))
            assert abs(ber - budget.ber_total) < 3 * sigma_ber + 0.015


class TestOptimizeNbar:
    def test_daylight_defaults_optimum(self):
        nbar_opt, budget, no_yield = optimize_nbar(ProtocolParams(), 1.0)
        assert not no_yield
        assert 0.30 <= nbar_opt <= 0.50
        assert 0.0025 <= budget.secret_fraction_of_transmitted <= 0.0055

    def test_low_system_efficiency_has_no_yield(self):
        _nbar, budget, no_yield = optimize_nbar(
            ProtocolParams().replace(eta_system_mean=0.03), 1.0)
        assert no_yield
        assert budget.secret_fraction_of_transmitted == 0.0

    def test_dim_pulse_region_has_no_yield(self):
        grid = default_grid(0.01, 0.05, 0.01)
        _nbar, budget, no_yield = optimize_nbar(ProtocolParams(), 1.0, grid=grid)
        assert no_yield

    def test_stable_under_grid_refinement(self):
        coarse, _b1, _f1 = optimize_nbar(ProtocolParams(), 1.0, grid=default_grid(0.01, 0.99, 0.01))
        fine, _b2, _f2 = optimize_nbar(ProtocolParams(), 1.0, grid=default_grid(0.005, 0.99, 0.005))
        assert abs(coarse - fine) <= 0.02

    def test_cascade_efficiency_lowers_yield_pointwise(self):
        params = ProtocolParams()
        for nbar in default_grid(0.05, 0.95, 0.05):
            shannon = ber_model(params, float(nbar), recon_efficiency=1.0)
            cascade = ber_model(params, float(nbar), recon_efficiency=1.16)
            assert cascade.secret_fraction_of_transmitted <= shannon.secret_fraction_of_transmitted

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimize_nbar(ProtocolParams(), 1.0, grid=np.array([]))


class TestRateCurve:
    def test_rows_cover_grid_and_parse(self):
        rows = rate_curve_rows(ProtocolParams(), 1.0, grid=default_grid(0.1, 0.5, 0.1))
        assert len(rows) == 5
        header_fields = CSV_HEADER.split(",")
        for row in rows:
            values = row.split(",")
            assert len(values) == len(header_fields)
            float(values[0])
