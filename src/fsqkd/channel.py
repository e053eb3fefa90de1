"""Monte Carlo model of the free-space optical link, one clock tick at a time.

Per gate the model applies, in order: Poisson photon statistics of the dim
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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .params import ProtocolParams
from .rng import stream


class Outcome(enum.IntEnum):
    NONE = _kernels.OUTCOME_NONE
    BIT0 = _kernels.OUTCOME_BIT0
    BIT1 = _kernels.OUTCOME_BIT1
    DUAL_FIRE = _kernels.OUTCOME_DUAL


class Cause(enum.IntEnum):
    SIGNAL = _kernels.CAUSE_SIGNAL
    BACKGROUND = _kernels.CAUSE_BACKGROUND
    DARK = _kernels.CAUSE_DARK
    MIXED = _kernels.CAUSE_MIXED
    NA = _kernels.CAUSE_NA


@dataclass
class DetectionBatch:
    """Columnar log of detection events for a run of consecutive gates."""

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


def draw_photon_count(nbar: float, rng: np.random.Generator, size=None):
    """Poisson photon number of one (or ``size``) attenuated dim pulses."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    return rng.poisson(nbar, size=size)


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


def simulate_block(alice_bits: np.ndarray, first_tick: int, params: ProtocolParams,
                   eta_system_now: float, photon_rng: np.random.Generator,
                   transport_rng: np.random.Generator, noise_rng: np.random.Generator,
                   photon_count_override: int | None = None) -> DetectionBatch:
    """Simulate one block of gates with a fixed system efficiency.

    Draw order is fixed: photon counts, then the 4 x total_photons
    transport uniforms, then the 2 x n noise uniforms, so a block is fully
    determined by its three streams.
    """
    n = len(alice_bits)
    bits = np.ascontiguousarray(alice_bits, dtype=np.uint8)
    if photon_count_override is None:
        counts = draw_photon_count(params.mean_photon_number, photon_rng, size=n).astype(np.int64)
    else:
        counts = np.full(n, int(photon_count_override), dtype=np.int64)
    total = int(counts.sum())
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    u = transport_rng.random((4, total))
    noise = noise_rng.random((2, n))
    outcomes, causes = _kernels.channel_outcomes(
        bits, counts, offsets,
        np.ascontiguousarray(u[0]), np.ascontiguousarray(u[1]),
        np.ascontiguousarray(u[2]), np.ascontiguousarray(u[3]),
        np.ascontiguousarray(noise[0]), np.ascontiguousarray(noise[1]),
        float(eta_system_now),
        params.background_prob_per_gate / 2.0,
        params.dark_prob_per_gate,
        params.optical_error_prob,
    )
    ticks = np.arange(first_tick, first_tick + n, dtype=np.int64)
    return DetectionBatch(ticks=ticks, outcomes=outcomes, causes=causes)


@dataclass
class ChannelRun:
    """Aggregate result of simulating a whole session's worth of gates."""

    detections: DetectionBatch
    etas: np.ndarray
    block_size: int


def simulate_channel(alice_bits: np.ndarray, params: ProtocolParams, seed: int,
                     block_size: int, photon_count_override: int | None = None,
                     eta_system_override: float | None = None) -> ChannelRun:
    """Run the full channel in blocks, redrawing eta_system per block."""
    n = len(alice_bits)
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    if eta_system_override is not None and not 0.0 <= eta_system_override <= 1.0:
        raise ValueError("eta_system_override must lie in [0, 1]")
    batches = []
    etas = []
    for b, start in enumerate(range(0, n, block_size)):
        block_bits = alice_bits[start : start + block_size]
        if eta_system_override is not None:
            eta_now = float(eta_system_override)
        else:
            eta_now = draw_eta_system(params, stream(seed, f"eta/{b}"))
        batches.append(
            simulate_block(
                block_bits, start, params, eta_now,
                photon_rng=stream(seed, f"photons/{b}"),
                transport_rng=stream(seed, f"transport/{b}"),
                noise_rng=stream(seed, f"noise/{b}"),
                photon_count_override=photon_count_override,
            )
        )
        etas.append(eta_now)
    return ChannelRun(
        detections=DetectionBatch.concatenate(batches),
        etas=np.array(etas, dtype=np.float64),
        block_size=block_size,
    )
