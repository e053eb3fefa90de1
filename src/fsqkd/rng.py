"""Deterministic labeled random streams.

Every stochastic draw in the package comes from a generator addressed by a
``(seed, label)`` pair.  The same pair always yields the same stream, and
distinct labels yield statistically independent streams, so a whole session
can be replayed bit-for-bit from one 64-bit seed while subsystems (photon
statistics, detector noise, shuffles, ...) stay decoupled.

A family of draws that runs over a whole session reads one stream in
order: the channel's efficiencies come from ``eta``, its gate draws from
``gates`` and Alice's raw bits from ``alice-bits``, each drawn in whole
arrays rather than a block at a time, so a session builds a fixed number
of generators whatever its pulse count.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the PCG64 generator identified by ``(seed, label)``."""
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence([seed & _MASK64, *words])
    return np.random.Generator(np.random.PCG64(ss))


def draw_seed(rng: np.random.Generator) -> int:
    """Draw a fresh non-negative 63-bit seed from an existing stream."""
    return int(rng.integers(0, 2**63 - 1, dtype=np.int64))


def random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """n unbiased bits packed MSB first: ceil(n / 8) random bytes.

    The bytes are the little-endian bytes of the bit generator's raw
    64-bit outputs, taken without the per-byte loop of ``integers``.  On a
    fresh PCG64 stream they equal ``rng.integers(0, 256, size=ceil(n / 8),
    dtype=np.uint8)``, which unpacks the same outputs byte by byte.  The
    generator's state afterwards differs from that call's, since no
    buffered half-word is left behind; the session draws nothing more
    from its ``alice-bits`` stream after the bits.
    """
    k = (n + 7) // 8
    words = rng.bit_generator.random_raw((k + 7) // 8)
    return words.astype("<u8", copy=False).view(np.uint8)[:k]


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """The bits of ``random_bytes(rng, n)`` unpacked, one uint8 per bit."""
    return np.unpackbits(random_bytes(rng, n), count=n)


# doubles per ``random`` call in ``toeplitz_diagonal``: 512 KiB of float64
# scratch however long the diagonal
_DIAGONAL_CHUNK = 1 << 16


def toeplitz_diagonal(rng: np.random.Generator, count: int) -> np.ndarray:
    """``rng.random(count) < 0.5`` as uint8 bits, drawn in bounded chunks.

    Consecutive ``random(k)`` calls continue one stream of doubles, so the
    bits equal the one-shot draw without holding 8 bytes per bit.
    """
    out = np.empty(count, dtype=np.uint8)
    for start in range(0, count, _DIAGONAL_CHUNK):
        chunk = out[start : start + _DIAGONAL_CHUNK]
        np.less(rng.random(len(chunk)), 0.5, out=chunk.view(bool))
    return out
