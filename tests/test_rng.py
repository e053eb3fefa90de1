import numpy as np

from fsqkd.rng import stream


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
