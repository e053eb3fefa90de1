"""Alice and Bob protocol steps: bit generation, detection, sifting.

Alice maps each random bit to one of the two non-orthogonal states (+45deg
for 0, vertical for 1); Bob records conclusive detections indexed by clock
tick and later reveals the locations, but never the values, of those
detections.  Alice keeps exactly the raw bits at the revealed locations -
the sifted key.  Keys are uint8 arrays of 0/1 bits.
"""

from __future__ import annotations

import numpy as np

from .channel import DetectionBatch
from .rng import random_bytes


def alice_generate(n_pulses: int, rng: np.random.Generator) -> np.ndarray:
    """Alice's raw random bits for ``n_pulses`` clock ticks, packed MSB first
    into ceil(n_pulses / 8) bytes."""
    if n_pulses < 1:
        raise ValueError("n_pulses must be at least 1")
    return random_bytes(rng, n_pulses)


def bob_receive(batch: DetectionBatch) -> tuple[np.ndarray, np.ndarray]:
    """Bob's sifted key from an ordered detection log, as ``(ticks, bits)``.

    Conclusive events contribute one sifted bit each; empty gates and dual
    fires contribute nothing.  Out-of-order input is rejected.
    """
    if len(batch) > 1 and np.any(np.diff(batch.ticks) <= 0):
        raise ValueError("detection events must be ordered by strictly increasing tick")
    return batch.conclusive_ticks(), batch.conclusive_bits()


def sift(raw_bits, detection_indices: np.ndarray) -> np.ndarray:
    """Alice's sifted key: her raw bits at Bob's detection ticks.

    ``raw_bits`` is a bit array or anything that gathers like one from an
    index array, such as the session's packed raw bits.  The index list
    comes from the peer, so it is checked for range and order before use.
    """
    indices = np.asarray(detection_indices, dtype=np.int64)
    if len(indices):
        if indices[0] < 0 or indices[-1] >= len(raw_bits):
            raise ValueError("detection index out of range")
        if np.any(indices[1:] <= indices[:-1]):
            raise ValueError("detection indices must be strictly increasing")
    return raw_bits[indices]
