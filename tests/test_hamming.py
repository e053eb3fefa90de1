"""Hamming syndrome property of ``reconciliation.block_syndrome``.

No session calls ``block_syndrome`` since Cascade replaced Hamming
correction; it stays because the benchmark's tracer wraps that name. A
block of k bits is read as the first k positions of a Hamming code whose
parity-check column at position p is p + 1, so the syndromes of two blocks
that differ in one place XOR to that place plus one.
"""

import numpy as np
import pytest

from fsqkd.reconciliation import block_syndrome


def brute_force_single_error(a_block, b_block):
    """Oracle: the unique differing position, if exactly one exists."""
    diffs = np.nonzero(a_block != b_block)[0]
    return int(diffs[0]) if len(diffs) == 1 else None


class TestSingleErrorDecoding:
    def test_seven_bit_block_exhaustive(self):
        # every single-bit error in a 7-bit block is pinned by one 3-bit
        # syndrome difference
        rng = np.random.default_rng(5)
        base = rng.integers(0, 2, 7).astype(np.uint8)
        for position in range(7):
            other = base.copy()
            other[position] ^= 1
            diff = block_syndrome(base) ^ block_syndrome(other)
            assert 0 < diff < 8
            assert diff - 1 == brute_force_single_error(base, other) == position

    @pytest.mark.parametrize("length", [5, 12, 24, 63, 100])
    def test_random_blocks_single_errors(self, length):
        rng = np.random.default_rng(length)
        for _ in range(50):
            base = rng.integers(0, 2, length).astype(np.uint8)
            position = int(rng.integers(0, length))
            other = base.copy()
            other[position] ^= 1
            diff = block_syndrome(base) ^ block_syndrome(other)
            assert diff - 1 == position

    def test_equal_blocks_have_zero_difference(self):
        block = np.random.default_rng(9).integers(0, 2, 24).astype(np.uint8)
        assert block_syndrome(block) ^ block_syndrome(block.copy()) == 0
        assert block_syndrome(np.zeros(24, dtype=np.uint8)) == 0
