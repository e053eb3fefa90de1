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

A run reads two streams, each in whole arrays.  ``eta`` gives every
block's efficiency in one ``normal`` draw (none when sigma is 0).
``gates`` first gives every block's number of fired gates in one
``binomial`` call.  Consecutive blocks are then cut into batches: a batch
closes once it holds at least ``_KERNEL_CHUNK`` fired gates, or at the
last block.  Each batch draws, in this order, the fired positions, three
uniforms per fired gate (signal, detector 0 noise, detector 1 noise), one
click-count uniform per signal gate and one flip uniform per click, and
then makes one ``_kernels.channel_outcomes`` call.  The kernel works gate
by gate with constants that do not change between blocks, so a batch
gives every outcome as a call per block would.

The k fired positions of a block of n gates are a uniform k-subset: k
offsets are drawn uniformly in the block, sorted, and every offset that
repeats one kept before it is redrawn in its block until all k differ.
Relabelling the block's gates by any permutation maps each run of this
procedure onto an equally likely run whose result is the relabelled set,
so every k-subset is equally likely.  When k > n/2 the n - k gates that
stay dark are drawn that way instead, and the fired gates are the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._kernels import Cause, Outcome  # the kernel's codes, re-exported
from .params import MAX_MEAN_PHOTON_NUMBER, ProtocolParams
from .rng import stream


@dataclass
class DetectionBatch:
    """Columnar log of the fired gates of a run, in tick order.

    The conclusive mask is built once per log, on first use.  Outcome codes
    are compared as plain ints: numpy compares an array with an
    ``IntEnum`` member about seven times more slowly.
    """

    ticks: np.ndarray
    outcomes: np.ndarray
    causes: np.ndarray
    _conclusive: np.ndarray | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.ticks)

    def conclusive_mask(self) -> np.ndarray:
        if self._conclusive is None:
            self._conclusive = ((self.outcomes == Outcome.BIT0.value)
                                | (self.outcomes == Outcome.BIT1.value))
        return self._conclusive

    def conclusive_ticks(self) -> np.ndarray:
        return self.ticks[self.conclusive_mask()]

    def conclusive_bits(self) -> np.ndarray:
        # BIT0 is 1 and BIT1 is 2: the bit is the code shifted right once
        return self.outcomes[self.conclusive_mask()] >> 1

    def dual_fire_count(self) -> int:
        return int(np.count_nonzero(self.outcomes == Outcome.DUAL_FIRE.value))

    @staticmethod
    def concatenate(batches: list["DetectionBatch"]) -> "DetectionBatch":
        return DetectionBatch(
            ticks=np.concatenate([b.ticks for b in batches]) if batches else np.zeros(0, np.int64),
            outcomes=np.concatenate([b.outcomes for b in batches]) if batches else np.zeros(0, np.uint8),
            causes=np.concatenate([b.causes for b in batches]) if batches else np.zeros(0, np.uint8),
        )


def draw_eta_system(params: ProtocolParams, rng: np.random.Generator, blocks: int) -> np.ndarray:
    """System efficiency for each of ``blocks`` transmission blocks.

    Gaussian around the configured mean, clamped to [0, 1], in one draw;
    with no spread nothing is drawn.  Redrawn once per block: turbulence
    wanders on millisecond scales, far slower than the pulse clock.
    """
    if params.eta_system_sigma == 0.0:
        return np.full(blocks, params.eta_system_mean)
    draws = rng.normal(params.eta_system_mean, params.eta_system_sigma, blocks)
    return np.clip(draws, 0.0, 1.0, out=draws)


# log k! for k = 1, 2, ...: nbar <= MAX_MEAN_PHOTON_NUMBER and a click
# probability of at most 1 bound the Poisson click mean, and so the number
# of entries a row of _click_cdfs takes, 71 at the ceiling of 10
_MAX_CLICKS = int(MAX_MEAN_PHOTON_NUMBER + 12.0 * math.sqrt(MAX_MEAN_PHOTON_NUMBER) + 24)
_CLICK_COUNTS = np.arange(1.0, _MAX_CLICKS + 1)
_LOG_FACTORIALS = np.array([math.lgamma(k + 1) for k in range(1, _MAX_CLICKS + 1)])


def _click_cdfs(p_click: np.ndarray, nbar: float, photon_count_override: int | None):
    """CDFs over k = 1, 2, ... of a gate's signal clicks, given at least one.

    One row per click probability, all of them positive.  The clicks are
    Poisson with mean ``nbar * p_click``, or binomial over
    ``photon_count_override`` photons.  A row's entries stop twelve
    standard deviations plus 24 counts above the mean, where the remaining
    mass is far below double precision; its last entry, and the padding up
    to the longest row, are exactly 1.  Returns the table and each row's
    entry count.
    """
    if photon_count_override is None:
        mean = nbar * p_click
        counts = (mean + 12.0 * np.sqrt(mean) + 24).astype(np.int64)
        k = _CLICK_COUNTS[: counts.max()]
        log_w = k * np.log(mean)[:, None] - _LOG_FACTORIALS[: len(k)]
    else:
        n = photon_count_override
        mean = n * p_click
        counts = np.minimum(n, (mean + 12.0 * np.sqrt(mean) + 24).astype(np.int64))
        k = np.arange(1.0, counts.max() + 1)
        log_choose = np.array([math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                               for j in k])
        # a click probability of 1 leaves no photon unclicked: only k = n
        # has weight, and log1p(-1) is never multiplied by n - k = 0
        with np.errstate(divide="ignore"):
            log_miss = np.log1p(-p_click)[:, None]
        log_w = log_choose + k * np.log(p_click)[:, None]
        log_w += np.multiply(n - k, log_miss, out=np.zeros_like(log_w), where=k < n)
    log_w[k > counts[:, None]] = -np.inf
    cdf = np.cumsum(np.exp(log_w - log_w.max(axis=1, keepdims=True)), axis=1)
    cdf /= cdf[:, -1:]
    return cdf, counts


def _distinct_ticks(rng: np.random.Generator, first: np.ndarray, span: np.ndarray) -> np.ndarray:
    """One uniform tick per entry, sorted, distinct within each block.

    Entry i lies in ``[first[i], first[i] + span[i])``.  A block's entries
    are consecutive and the blocks are in tick order, so sorting keeps
    every entry in its block; a tick equal to the one before it is redrawn
    in its block until none is.
    """
    # numpy draws the same values from one bound as from an array of equal
    # bounds, only several times faster; the blocks of a batch but the
    # session's last share one length
    if len(span) and span.min() == span.max():
        ticks = first + rng.integers(0, span[0], size=len(span))
    else:
        ticks = first + rng.integers(0, span)
    ticks.sort()
    while True:
        again = np.flatnonzero(ticks[1:] == ticks[:-1]) + 1
        if not len(again):
            return ticks
        ticks[again] = first[again] + rng.integers(0, span[again])
        # a few ticks out of place: timsort's runs put them back quickly
        ticks.sort(kind="stable")


def _fired_ticks(rng: np.random.Generator, starts: np.ndarray, lengths: np.ndarray,
                 fired: np.ndarray) -> np.ndarray:
    """Each block's fired ticks, a uniform subset of its ``fired`` count."""
    dense = 2 * fired > lengths
    if not dense.any():
        return _distinct_ticks(rng, np.repeat(starts, fired), np.repeat(lengths, fired))
    # a dense block draws the ticks that stay dark and keeps the others
    drawn = np.where(dense, lengths - fired, fired)
    parts = np.split(_distinct_ticks(rng, np.repeat(starts, drawn), np.repeat(lengths, drawn)),
                     np.cumsum(drawn)[:-1])
    for b in np.flatnonzero(dense):
        lit = np.ones(lengths[b], dtype=bool)
        lit[parts[b] - starts[b]] = False
        parts[b] = np.flatnonzero(lit) + starts[b]
    return np.concatenate(parts)


# A batch of blocks goes to the kernel once it holds this many fired
# gates, so the kernel's fixed cost is paid per batch rather than per
# block, while the scratch stays bounded by the batch plus one block.
_KERNEL_CHUNK = 1 << 13


def _draw_batch(alice_bits, rng: np.random.Generator, params: ProtocolParams,
                photon_count_override: int | None, starts: np.ndarray, lengths: np.ndarray,
                fired: np.ndarray, p_click: np.ndarray,
                p_signal_given_fire: np.ndarray) -> DetectionBatch:
    """Draw the fired gates of consecutive blocks and run the kernel on them.

    The per-block arrays hold the batch's blocks only.  Draw order is
    fixed: the fired positions, three uniforms per fired gate, one
    click-count uniform per signal gate, then one flip uniform per click.
    """
    ticks = _fired_ticks(rng, starts, lengths, fired)
    block = np.repeat(np.arange(len(fired)), fired)
    u = rng.random((3, len(ticks)))
    signal = u[0] < p_signal_given_fire[block]
    clicks = np.zeros(len(ticks), dtype=np.int64)
    # one CDF row per block with signal gates
    per_block = np.bincount(block[signal], minlength=len(fired))
    rows = np.flatnonzero(per_block)
    if len(rows):
        row = np.repeat(np.arange(len(rows)), per_block[rows])
        cdf, counts = _click_cdfs(p_click[rows], params.mean_photon_number,
                                  photon_count_override)
        u_click = rng.random(len(row))
        # a draw below its row's first entry is one click; only the others
        # are searched, in one call: row r offset by r keeps the whole
        # table sorted
        more = np.flatnonzero(u_click >= cdf[row, 0])
        row = row[more]
        cdf += np.arange(len(rows))[:, None]
        picks = np.searchsorted(cdf.ravel(), u_click[more] + row, side="right")
        picks -= row * cdf.shape[1]
        signal_clicks = np.ones(len(u_click), dtype=np.int64)
        signal_clicks[more] = np.minimum(picks, counts[row] - 1) + 1
        clicks[signal] = signal_clicks
    u_flip = rng.random(int(clicks.sum()))
    outcomes, causes = _kernels.channel_outcomes(
        np.ascontiguousarray(alice_bits[ticks], dtype=np.uint8), clicks, u[1:], u_flip,
        params.background_prob_per_gate / 2.0, params.dark_prob_per_gate,
        params.optical_error_prob,
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
    fired ticks per kernel batch, so it may be a bit array or the
    session's packed raw bits.  For a fixed efficiency set
    ``eta_system_sigma=0``: every block then runs at ``eta_system_mean``.
    Efficiency and gate draws come from separate streams, so fixing the
    efficiency leaves the gate stream as it is.
    """
    n = len(alice_bits)
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    starts = np.arange(0, n, block_size, dtype=np.int64)
    lengths = np.minimum(block_size, n - starts)
    p_click = params.eta_q * draw_eta_system(params, stream(seed, "eta"), len(starts))
    if photon_count_override is None:
        p_signal = -np.expm1(-params.mean_photon_number * p_click)
    else:
        p_signal = 1.0 - (1.0 - p_click) ** photon_count_override
    p_bg_half = params.background_prob_per_gate / 2.0
    p_fire = 1.0 - (1.0 - p_signal) * (1.0 - p_bg_half - params.dark_prob_per_gate) ** 2
    # a block that cannot fire draws no gate, so its ratio is never read
    p_signal_given_fire = np.divide(p_signal, p_fire, out=np.zeros_like(p_fire),
                                    where=p_fire > 0)
    rng = stream(seed, "gates")
    fired = rng.binomial(lengths, p_fire)
    ends = np.cumsum(fired)
    batches, first, done = [], 0, 0
    while first < len(starts):
        # the batch closes at the block that brings it to a full chunk
        stop = min(int(np.searchsorted(ends, done + _KERNEL_CHUNK)) + 1, len(starts))
        if ends[stop - 1] > done:
            part = slice(first, stop)
            batches.append(_draw_batch(alice_bits, rng, params, photon_count_override,
                                       starts[part], lengths[part], fired[part],
                                       p_click[part], p_signal_given_fire[part]))
        first, done = stop, int(ends[stop - 1])
    return ChannelRun(detections=DetectionBatch.concatenate(batches))
