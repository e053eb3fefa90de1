"""Monte Carlo model of the free-space optical link, one clock tick at a time.

Per gate the physical model is: Poisson photon statistics of the dim
pulse, independent per-photon survival with the current system efficiency,
a 50/50 beamsplitter routing each survivor to one of the two analyzers,
projection onto the analyzer state (cos^2 law), a flat per-photon
wrong-detector recording probability for polarization imperfections, and
per-detector background and dark firings.  Exactly one firing detector
yields a conclusive bit, both yield a discarded dual fire.

The wrong-detector probability is applied to *detected* photons (a detected
photon is logged on the wrong analyzer with probability
``optical_error_prob``) so the conditional error rate of signal detections
equals the configured 1.9% and the conclusive-detection probability stays
at 1 - exp(-eta_q * eta_system * nbar).

The simulation draws only what the model makes observable.  A photon
clicks when it survives (probability eta_system), takes the path of the
analyzer matching Alice's state (1/2; the other analyzer is orthogonal to
it) and passes the projection (1/2); ``eta_q`` is the product of those
two factors, 1/4 by default.  Thinning a Poisson count by an independent
per-photon probability leaves it Poisson, so within a block of fixed
eta_system the clicks of a gate are Poisson with mean
nbar * eta_q * eta_system (binomial over the photons with a photon-count
override), all on the detector Alice's bit selects until each is moved to
the other detector with probability ``optical_error_prob``.  Each detector
also fires from noise with probability ``p_bg_half + p_dark``,
independently.  A gate therefore fires with probability
1 - P(no click) * (1 - p_bg_half - p_dark)^2, and empty gates leave no
trace.  Per block the simulation draws the number of fired gates
(binomial), their positions (a uniform subset), and only for those gates
the remaining conditional events: whether any photon clicked, the
zero-truncated click count, each click's detector and each detector's
noise.  About 98% of gates never fire at the paper's operating points,
so the detection log holds fired gates only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import Cause, Outcome  # the kernel's codes, re-exported
from .params import ProtocolParams
from .rng import stream


@dataclass
class DetectionBatch:
    """Columnar log of the fired gates of a run, in tick order."""

    ticks: np.ndarray
    outcomes: np.ndarray
    causes: np.ndarray

    def __len__(self) -> int:
        return len(self.ticks)

    def conclusive_mask(self) -> np.ndarray:
        return (self.outcomes == Outcome.BIT0) | (self.outcomes == Outcome.BIT1)

    def conclusive_ticks(self) -> np.ndarray:
        return self.ticks[self.conclusive_mask()]

    def conclusive_bits(self) -> np.ndarray:
        mask = self.conclusive_mask()
        return (self.outcomes[mask] == Outcome.BIT1).astype(np.uint8)

    def dual_fire_count(self) -> int:
        return int(np.count_nonzero(self.outcomes == Outcome.DUAL_FIRE))

    @staticmethod
    def concatenate(batches: list["DetectionBatch"]) -> "DetectionBatch":
        return DetectionBatch(
            ticks=np.concatenate([b.ticks for b in batches]) if batches else np.zeros(0, np.int64),
            outcomes=np.concatenate([b.outcomes for b in batches]) if batches else np.zeros(0, np.uint8),
            causes=np.concatenate([b.causes for b in batches]) if batches else np.zeros(0, np.uint8),
        )


def draw_eta_system(params: ProtocolParams, rng: np.random.Generator) -> float:
    """System efficiency for one transmission block.

    Gaussian around the configured mean, clamped to [0, 1].  Redrawn once
    per block: turbulence wanders on millisecond scales, far slower than
    the pulse clock.
    """
    if params.eta_system_sigma == 0.0:
        return params.eta_system_mean
    value = rng.normal(params.eta_system_mean, params.eta_system_sigma)
    return float(min(1.0, max(0.0, value)))


def _click_cdf(p_click: float, nbar: float, photon_count_override: int | None) -> np.ndarray:
    """CDF over k = 1, 2, ... of a gate's signal clicks, given at least one.

    The clicks are Poisson with mean ``nbar * p_click``, or binomial over
    ``photon_count_override`` photons.  The entries stop twelve standard
    deviations plus 24 counts above the mean, where the remaining mass is
    far below double precision.
    """
    if photon_count_override is None:
        lam = nbar * p_click
        kmax = int(lam + 12.0 * math.sqrt(lam) + 24)
        log_w = [k * math.log(lam) - math.lgamma(k + 1) for k in range(1, kmax + 1)]
    else:
        n = photon_count_override
        mean = n * p_click
        kmax = min(n, int(mean + 12.0 * math.sqrt(mean) + 24))
        log_w = [math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * math.log(p_click) + (n - k) * math.log1p(-p_click)
                 for k in range(1, kmax + 1)]
    w = np.exp(np.array(log_w) - max(log_w))
    return np.cumsum(w) / w.sum()


def simulate_block(alice_bits: np.ndarray, first_tick: int, n: int, params: ProtocolParams,
                   eta_system_now: float, rng: np.random.Generator,
                   photon_count_override: int | None = None) -> DetectionBatch:
    """Simulate the n gates from tick ``first_tick`` on at a fixed system efficiency.

    Draw order is fixed: the number of fired gates, their positions, three
    uniforms per fired gate (signal, detector 0 noise, detector 1 noise),
    one click-count uniform per signal gate, then one flip uniform per
    click, so a block is fully determined by its stream.  ``alice_bits``
    is read only at the fired ticks.
    """
    p_click = params.eta_q * eta_system_now
    if photon_count_override is None:
        p_signal = -math.expm1(-params.mean_photon_number * p_click)
    else:
        p_signal = 1.0 - (1.0 - p_click) ** photon_count_override
    p_bg_half = params.background_prob_per_gate / 2.0
    p_dark = params.dark_prob_per_gate
    p_fire = 1.0 - (1.0 - p_signal) * (1.0 - p_bg_half - p_dark) ** 2
    fired = np.sort(rng.choice(n, size=rng.binomial(n, p_fire), replace=False))
    if len(fired) == 0:
        return DetectionBatch.concatenate([])
    u = rng.random((3, len(fired)))
    signal = u[0] < p_signal / p_fire
    clicks = np.zeros(len(fired), dtype=np.int64)
    if signal.any():
        cdf = _click_cdf(p_click, params.mean_photon_number, photon_count_override)
        picks = np.searchsorted(cdf, rng.random(int(signal.sum())), side="right")
        clicks[signal] = 1 + np.minimum(picks, len(cdf) - 1)
    u_flip = rng.random(int(clicks.sum()))
    ticks = fired + first_tick
    outcomes, causes = _kernels.channel_outcomes(
        np.ascontiguousarray(alice_bits[ticks], dtype=np.uint8), clicks, u[1:], u_flip,
        p_bg_half, p_dark, params.optical_error_prob,
    )
    return DetectionBatch(ticks=ticks, outcomes=outcomes, causes=causes)


@dataclass
class ChannelRun:
    """Result of simulating a whole session's worth of gates.

    A one-field record rather than the batch itself: the benchmark's tracer
    reads ``.detections`` from the result of ``simulate_channel``.
    """

    detections: DetectionBatch


def simulate_channel(alice_bits: np.ndarray, params: ProtocolParams, seed: int,
                     block_size: int, photon_count_override: int | None = None) -> ChannelRun:
    """Run the full channel in blocks, redrawing eta_system per block.

    ``alice_bits`` is read only through ``len`` and one index array of
    fired ticks per block, so it may be a bit array or the session's
    packed raw bits.  For a fixed efficiency set
    ``eta_system_sigma=0``: every block then runs at ``eta_system_mean``.
    Efficiency and gate draws come from separate streams, so fixing the
    efficiency leaves the gate stream as it is.
    """
    n = len(alice_bits)
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    batches = []
    for b, start in enumerate(range(0, n, block_size)):
        eta_now = draw_eta_system(params, stream(seed, f"eta/{b}"))
        batches.append(simulate_block(alice_bits, start, min(block_size, n - start), params,
                                      eta_now, stream(seed, f"gates/{b}"), photon_count_override))
    return ChannelRun(detections=DetectionBatch.concatenate(batches))
