"""Closed-form link budget: detection probability, error decomposition,
rates, and secret-yield optimization over the mean photon number.

The error model attributes half of all background and dark firings to the
wrong detector and a fixed fraction of signal detections to polarization
imperfections, all over the common denominator of conclusive-detection
probability.  The optimizer maximizes secret bits per *transmitted* pulse,
which is what a link operator actually banks per second of air time.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .params import ProtocolParams
from .privacy import secret_yield_per_sifted_bit


@dataclass(frozen=True)
class LinkBudget:
    """Per-gate probabilities, error decomposition, and yields at one nbar."""

    nbar: float
    p_signal: float
    p_background: float
    p_dark: float
    p_total: float
    ber_background: float
    ber_optical: float
    ber_dark: float
    ber_total: float
    sifted_rate_hz: float
    secret_fraction_of_sifted: float
    secret_fraction_of_transmitted: float


def detection_probability(eta: float, nbar: float) -> float:
    """Conclusive-detection probability 1 - exp(-eta * nbar).

    ``eta`` is the product of protocol efficiency and system efficiency.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    return -math.expm1(-eta * nbar)


def ber_model(params: ProtocolParams, nbar: float,
              recon_efficiency: float = 1.0) -> LinkBudget:
    """Analytic error decomposition and yield at one operating point."""
    p_signal = detection_probability(params.eta_q * params.eta_system_mean, nbar)
    p_background = params.background_prob_per_gate
    p_dark = 2.0 * params.dark_prob_per_gate
    p_total = p_signal + p_background + p_dark
    if p_total == 0.0:
        raise ValueError("all detection probabilities are zero")
    ber_background = 0.5 * p_background / p_total
    ber_optical = params.optical_error_prob * p_signal / p_total
    ber_dark = 0.5 * p_dark / p_total
    ber_total = ber_background + ber_optical + ber_dark
    secret_per_sifted = secret_yield_per_sifted_bit(nbar, ber_total, recon_efficiency)
    return LinkBudget(
        nbar=nbar,
        p_signal=p_signal,
        p_background=p_background,
        p_dark=p_dark,
        p_total=p_total,
        ber_background=ber_background,
        ber_optical=ber_optical,
        ber_dark=ber_dark,
        ber_total=ber_total,
        sifted_rate_hz=p_total * params.clock_rate_hz,
        secret_fraction_of_sifted=secret_per_sifted,
        secret_fraction_of_transmitted=p_total * secret_per_sifted,
    )


def default_grid(start: float = 0.01, stop: float = 0.99, step: float = 0.01) -> np.ndarray:
    count = int(round((stop - start) / step)) + 1
    return np.round(np.linspace(start, stop, count), 12)


def optimize_nbar(params: ProtocolParams, recon_efficiency: float = 1.0,
                  grid: np.ndarray | None = None) -> tuple[float, LinkBudget, bool]:
    """Maximize secret bits per transmitted pulse over an nbar grid.

    Returns ``(nbar_opt, budget_at_opt, no_yield)``; ties break toward the
    smaller nbar, and ``no_yield`` flags an all-zero yield surface.
    """
    if grid is None:
        grid = default_grid()
    grid = np.asarray(grid, dtype=np.float64)
    if len(grid) == 0 or np.any(grid <= 0) or np.any(grid >= 1):
        raise ValueError("grid must be non-empty within (0, 1)")
    best: LinkBudget | None = None
    for nbar in grid:
        budget = ber_model(params, float(nbar), recon_efficiency)
        if best is None or budget.secret_fraction_of_transmitted > best.secret_fraction_of_transmitted:
            best = budget
    no_yield = best.secret_fraction_of_transmitted <= 0.0
    if no_yield:
        best = ber_model(params, float(grid[0]), recon_efficiency)
    return best.nbar, best, no_yield


CSV_HEADER = ("nbar,p_signal,p_background,p_dark,p_total,ber_background,"
              "ber_optical,ber_dark,ber_total,secret_per_sifted,secret_per_pulse")


def rate_curve_rows(params: ProtocolParams, recon_efficiency: float = 1.0,
                    grid: np.ndarray | None = None) -> list[str]:
    """CSV rows of the full rate curve for plotting."""
    if grid is None:
        grid = default_grid()
    rows = []
    for nbar in np.asarray(grid, dtype=np.float64):
        b = ber_model(params, float(nbar), recon_efficiency)
        rows.append(
            f"{b.nbar:.6g},{b.p_signal:.8g},{b.p_background:.8g},{b.p_dark:.8g},"
            f"{b.p_total:.8g},{b.ber_background:.8g},{b.ber_optical:.8g},"
            f"{b.ber_dark:.8g},{b.ber_total:.8g},"
            f"{b.secret_fraction_of_sifted:.8g},{b.secret_fraction_of_transmitted:.8g}"
        )
    return rows
