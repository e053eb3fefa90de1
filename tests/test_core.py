import numpy as np
import pytest

from fsqkd.core import KeyBuffer, Stage, compare_keys
from fsqkd.rng import stream

from fixtures import ALICE_250, BOB_250, bits_from_string


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


class TestCompareKeys:
    def _buf(self, bits):
        return KeyBuffer(stage=Stage.RAW, bits=np.asarray(bits, dtype=np.uint8))

    def test_identical_keys(self):
        key = self._buf(stream(1, "x").integers(0, 2, 100))
        assert compare_keys(key, key) == (0, 0.0)

    def test_complement(self):
        a = self._buf(np.zeros(8, dtype=np.uint8))
        b = self._buf(np.ones(8, dtype=np.uint8))
        assert compare_keys(a, b) == (8, 1.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            compare_keys(self._buf([0, 1]), self._buf([0, 1, 1]))

    def test_daylight_run_sample(self):
        a = self._buf(bits_from_string(ALICE_250))
        b = self._buf(bits_from_string(BOB_250))
        assert len(a) == len(b) == 250
        errors, ber = compare_keys(a, b)
        assert errors == 8
        assert ber == pytest.approx(0.032)


class TestKeyBuffer:
    def test_sifted_requires_matching_indices(self):
        with pytest.raises(ValueError):
            KeyBuffer(stage=Stage.SIFTED, bits=np.array([1, 0], dtype=np.uint8),
                      indices=np.array([3], dtype=np.int64))

    def test_sifted_indices_strictly_increasing(self):
        with pytest.raises(ValueError):
            KeyBuffer(stage=Stage.SIFTED, bits=np.array([1, 0], dtype=np.uint8),
                      indices=np.array([7, 3], dtype=np.int64))

    def test_bits_must_be_binary(self):
        with pytest.raises(ValueError):
            KeyBuffer(stage=Stage.RAW, bits=np.array([0, 2], dtype=np.uint8))

    def test_leak_ledger_non_negative(self):
        with pytest.raises(ValueError):
            KeyBuffer(stage=Stage.RAW, bits=np.zeros(4, dtype=np.uint8), leaked_bits=-1)
