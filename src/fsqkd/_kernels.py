"""The per-gate Monte Carlo kernel of the channel, vectorized with numpy.

The per-gate outcome computation dominates the runtime of million-pulse
sessions.  Randomness never lives inside the kernel: it consumes arrays of
pre-drawn uniforms, so the tests check it gate for gate against a per-pulse
loop over the same uniforms.

Outcome codes: 0 none, 1 bit0, 2 bit1, 3 dual fire.
Cause codes: 0 signal, 1 background, 2 dark, 3 mixed, 255 n/a (no firing).
"""

from __future__ import annotations

import numpy as np

# recorded by the benchmark so results from different kernels are never compared
ACTIVE_BACKEND = "numpy"

OUTCOME_NONE = 0
OUTCOME_BIT0 = 1
OUTCOME_BIT1 = 2
OUTCOME_DUAL = 3

CAUSE_SIGNAL = 0
CAUSE_BACKGROUND = 1
CAUSE_DARK = 2
CAUSE_MIXED = 3
CAUSE_NA = 255


def channel_outcomes(bits, counts, offsets,
                     u_surv, u_route, u_proj, u_err,
                     u_noise0, u_noise1,
                     eta, p_bg_half, p_dark, p_opt_err):
    """Per-gate outcome and cause codes over pre-drawn uniforms."""
    n = bits.shape[0]
    pulse_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    surv = u_surv < eta
    route1 = u_route < 0.5
    abit1 = np.repeat(bits == 1, counts)
    fire = surv & (route1 == abit1) & (u_proj < 0.5)
    rec1 = route1 != (u_err < p_opt_err)
    sig1 = np.bincount(pulse_idx[fire & rec1], minlength=n) > 0
    sig0 = np.bincount(pulse_idx[fire & ~rec1], minlength=n) > 0

    bg0 = u_noise0 < p_bg_half
    dk0 = ~bg0 & (u_noise0 < p_bg_half + p_dark)
    bg1 = u_noise1 < p_bg_half
    dk1 = ~bg1 & (u_noise1 < p_bg_half + p_dark)
    fired0 = sig0 | bg0 | dk0
    fired1 = sig1 | bg1 | dk1

    outcomes = np.zeros(n, dtype=np.uint8)
    outcomes[fired0] = OUTCOME_BIT0
    outcomes[fired1] = OUTCOME_BIT1
    outcomes[fired0 & fired1] = OUTCOME_DUAL

    mask = np.zeros(n, dtype=np.uint8)
    mask |= np.where(fired0, sig0 * 1 | bg0 * 2 | dk0 * 4, 0).astype(np.uint8)
    mask |= np.where(fired1, sig1 * 1 | bg1 * 2 | dk1 * 4, 0).astype(np.uint8)
    causes = np.full(n, CAUSE_MIXED, dtype=np.uint8)
    causes[mask == 1] = CAUSE_SIGNAL
    causes[mask == 2] = CAUSE_BACKGROUND
    causes[mask == 4] = CAUSE_DARK
    causes[outcomes == OUTCOME_NONE] = CAUSE_NA
    return outcomes, causes
