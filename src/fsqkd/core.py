"""Shared domain types: key buffers with their leak ledger, key comparison."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Stage(enum.Enum):
    """Provenance stage of a key buffer."""

    RAW = "raw"
    SIFTED = "sifted"
    CORRECTED = "corrected"
    SECRET = "secret"


@dataclass
class KeyBuffer:
    """An indexed bit sequence plus a ledger of publicly disclosed bits.

    ``indices`` carries the clock tick of each bit for sifted keys and is
    None otherwise.  ``leaked_bits`` counts bits of key-correlated
    information disclosed on the public channel about this buffer; it only
    grows as the key moves through reconciliation.
    """

    stage: Stage
    bits: np.ndarray
    indices: np.ndarray | None = None
    leaked_bits: int = 0

    def __post_init__(self) -> None:
        self.bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if self.indices is not None:
            self.indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        if self.bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if np.any(self.bits > 1):
            raise ValueError("bits must be 0/1")
        if self.leaked_bits < 0:
            raise ValueError("leaked_bits must be non-negative")
        if self.stage is Stage.SIFTED:
            if self.indices is None:
                raise ValueError("sifted keys carry tick indices")
            if len(self.indices) != len(self.bits):
                raise ValueError("indices and bits must have equal length")
            if len(self.indices) > 1 and np.any(np.diff(self.indices) <= 0):
                raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.bits)


def compare_keys(a: KeyBuffer, b: KeyBuffer) -> tuple[int, float]:
    """Hamming distance and bit error ratio between two equal-length keys."""
    if a.stage is not b.stage:
        raise ValueError(f"stage mismatch: {a.stage} vs {b.stage}")
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        return 0, 0.0
    errors = int(np.count_nonzero(a.bits != b.bits))
    return errors, errors / len(a)
