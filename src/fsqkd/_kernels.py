"""The per-fired-gate kernel of the channel, vectorized with numpy.

The channel draws which gates fire and, for those gates only, how many
signal photons clicked; this kernel turns that into the detector outcome
and its cause.  Randomness never lives inside the kernel: it consumes
arrays of pre-drawn uniforms, so the tests check it gate for gate against
a per-gate loop over the same uniforms.

The codes it writes are ``Outcome`` and ``Cause``, which ``channel``
re-exports.
"""

from __future__ import annotations

import enum

import numpy as np

# recorded by the benchmark so results from different kernels are never compared
ACTIVE_BACKEND = "numpy"


class Outcome(enum.IntEnum):
    """Detector bit masks: detector 0 alone, detector 1 alone, both."""

    BIT0 = 1
    BIT1 = 2
    DUAL_FIRE = 3


class Cause(enum.IntEnum):
    """What fired a gate: signal, background or dark alone, or a mix."""

    SIGNAL = 0
    BACKGROUND = 1
    DARK = 2
    MIXED = 3


# cause of a fired gate by the set of its firing sources (1 signal,
# 2 background, 4 dark); the empty set cannot occur
_CAUSE_OF_SOURCES = np.array([Cause.MIXED, Cause.SIGNAL, Cause.BACKGROUND, Cause.MIXED,
                              Cause.DARK, Cause.MIXED, Cause.MIXED, Cause.MIXED],
                             dtype=np.uint8)


def channel_outcomes(bits, clicks, u_noise, u_flip, p_bg_half, p_dark, p_opt_err):
    """Outcome and cause codes of gates known to fire.

    ``bits`` holds Alice's bit per gate and ``clicks`` its signal clicks
    (0 where only noise fired), ``u_noise`` two detector uniforms per gate
    and ``u_flip`` one uniform per click, in gate order.  A click lands on
    the detector of Alice's bit unless its uniform is below ``p_opt_err``.
    Each detector fires from background below ``p_bg_half`` and from a
    dark count below ``p_bg_half + p_dark``; a gate without clicks is
    known to have a noise firing, so its uniforms are rescaled to that
    condition.
    """
    n = bits.shape[0]
    gate = np.repeat(np.arange(n, dtype=np.int64), clicks)
    flipped = u_flip < p_opt_err
    wrong = np.bincount(gate[flipped], minlength=n) > 0
    right = np.bincount(gate[~flipped], minlength=n) > 0
    one = bits == 1
    sig1 = np.where(one, right, wrong)
    sig0 = np.where(one, wrong, right)

    # With no click, detector 0 fired with probability 1 / (2 - p_noise)
    # and detector 1 surely fired if detector 0 did not.
    signal = clicks > 0
    p_noise = p_bg_half + p_dark
    w0 = np.where(signal, u_noise[0], u_noise[0] * (p_noise * (2.0 - p_noise)))
    bg0 = w0 < p_bg_half
    dk0 = ~bg0 & (w0 < p_noise)
    forced1 = ~(signal | bg0 | dk0)
    w1 = np.where(forced1, u_noise[1] * p_noise, u_noise[1])
    bg1 = w1 < p_bg_half
    dk1 = ~bg1 & (forced1 | (w1 < p_noise))

    fired0 = sig0 | bg0 | dk0
    fired1 = sig1 | bg1 | dk1
    # plain ints: numpy multiplies by an IntEnum member more slowly
    outcomes = (fired0 * Outcome.BIT0.value + fired1 * Outcome.BIT1.value).astype(np.uint8)
    sources = (sig0 | sig1) * 1 + (bg0 | bg1) * 2 + (dk0 | dk1) * 4
    return outcomes, _CAUSE_OF_SOURCES[sources]
