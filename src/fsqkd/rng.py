"""Deterministic labeled random streams.

Every stochastic draw in the package comes from a generator addressed by a
``(seed, label)`` pair.  The same pair always yields the same stream, and
distinct labels yield statistically independent streams, so a whole session
can be replayed bit-for-bit from one 64-bit seed while subsystems (photon
statistics, detector noise, shuffles, ...) stay decoupled.

``stream`` builds one generator through numpy's ``SeedSequence``, which
costs about 10 microseconds a call.  A session draws three streams per
block of pulses (``eta/<b>``, ``gates/<b>``, ``alice-bits/<b>``), 1,920
for 32M pulses, so ``streams`` seeds a whole family at once: the hashing
of ``SeedSequence``, run over every label together in uint32 arrays,
gives each label's state words, and each generator is built from them
only when it is reached.  Its generators start in ``stream``'s states.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = 0xFFFFFFFFFFFFFFFF


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the PCG64 generator identified by ``(seed, label)``."""
    digest = hashlib.blake2s(label.encode("utf-8"), digest_size=16).digest()
    words = [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]
    ss = np.random.SeedSequence([seed & _MASK64, *words])
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The ``hash_const`` before each of ``count`` hashes and after the last.

    SeedSequence multiplies its hash constant by ``mult`` at every hash,
    whatever the data, so the sequence is a fixed table.
    """
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# entropy mixing hashes the first four entropy words into the pool, each
# pool word into the other three, then each of the one or two entropy words
# beyond the pool into all four
_HASH_A = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 2 * _POOL_SIZE)
# ``generate_state(4, np.uint64)`` hashes eight 32-bit words
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 8)
_OTHERS = [[d for d in range(_POOL_SIZE) if d != s] for s in range(_POOL_SIZE)]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``values`` with its constant.

    ``consts`` holds the constant before each row's hash and after the last.
    """
    v = (values ^ consts[:-1]) * consts[1:]
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_MULT_L - y * _MIX_MULT_R
    return v ^ (v >> 16)


def _seed_states(seed: int, labels: Sequence[str]) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for every label.

    ``entropy`` is ``stream``'s: the masked seed's 32-bit words, low word
    first (a seed below 2^32, 0 included, is one word, as numpy splits an
    int), then the label's four big-endian blake2s words.  The hashes run
    over all labels at once as uint32 array arithmetic; one row per label.
    """
    seed &= _MASK64
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    digests = b"".join(hashlib.blake2s(label.encode("utf-8"), digest_size=16).digest()
                       for label in labels)
    entropy = np.empty((len(seed_words) + 4, len(labels)), dtype=np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[len(seed_words) :] = np.frombuffer(digests, dtype=">u4").reshape(-1, 4).T

    pool = _hashmix(entropy[:_POOL_SIZE], _HASH_A[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    for src, others in enumerate(_OTHERS):
        pool[others] = _mix(pool[others], _hashmix(pool[src], _HASH_A[k : k + len(others) + 1]))
        k += len(others)
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, _HASH_A[k : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    # pairs of 32-bit words viewed as uint64 in native order, as numpy does
    return np.ascontiguousarray(state.T).view(np.uint64)


class _SeedState(ISeedSequence):
    """A seed sequence whose PCG64 state words are already computed.

    It answers only the request ``PCG64`` makes, ``generate_state(4,
    np.uint64)``, and does not check it: the words stand in for a
    ``SeedSequence`` nowhere else.
    """

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self._words


def streams(seed: int, labels: Sequence[str]) -> Iterator[np.random.Generator]:
    """``stream(seed, label)`` for each label in turn, seeded in one pass.

    The seeding runs at once, over all labels together; each generator is
    built only when the caller reaches it, so an unread stream costs its 32
    bytes of state words and no generator.  Every generator's state equals
    ``stream``'s for its label.
    """
    states = _seed_states(seed, labels)
    return (np.random.Generator(np.random.PCG64(_SeedState(words))) for words in states)


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
    from an ``alice-bits/<b>`` stream after its bits.
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
