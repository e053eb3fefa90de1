import numpy as np
import pytest

from fsqkd.rng import _DIAGONAL_CHUNK, stream, toeplitz_diagonal


class TestSeededStreams:
    def test_same_seed_same_label_identical(self):
        a = stream(42, "alice-bits").integers(0, 2, 256)
        b = stream(42, "alice-bits").integers(0, 2, 256)
        assert np.array_equal(a, b)

    def test_distinct_labels_independent(self):
        a = stream(42, "alice-bits").integers(0, 2, 64)
        b = stream(42, "bob-basis").integers(0, 2, 64)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = stream(42, "alice-bits").integers(0, 2, 64)
        b = stream(43, "alice-bits").integers(0, 2, 64)
        assert not np.array_equal(a, b)


class TestToeplitzDiagonal:
    @pytest.mark.parametrize("count", [0, 1, _DIAGONAL_CHUNK - 1, _DIAGONAL_CHUNK,
                                       _DIAGONAL_CHUNK + 1, 3 * _DIAGONAL_CHUNK + 5])
    def test_equals_one_shot_draw(self, count):
        # chunked draws continue one stream of doubles
        expected = (stream(9, "diagonal").random(count) < 0.5).astype(np.uint8)
        got = toeplitz_diagonal(stream(9, "diagonal"), count)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)
