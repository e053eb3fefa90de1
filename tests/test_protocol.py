import math

import numpy as np
import pytest

from fsqkd.channel import Cause, DetectionBatch, Outcome, simulate_channel
from fsqkd.params import ProtocolParams
from fsqkd.protocol import alice_generate, bob_receive, sift
from fsqkd.rng import stream

QUIET = dict(background_prob_per_gate=0.0, dark_count_rate_hz=0.0)


def _batch(events):
    """Detection log from (tick, outcome, cause) triples."""
    ticks, outcomes, causes = zip(*events) if events else ((), (), ())
    return DetectionBatch(ticks=np.array(ticks, dtype=np.int64),
                          outcomes=np.array(outcomes, dtype=np.uint8),
                          causes=np.array(causes, dtype=np.uint8))


class TestAliceGenerate:
    def test_unbiased_source(self):
        bits = np.unpackbits(alice_generate(1_000_000, stream(1, "alice")))
        assert abs(bits.mean() - 0.5) < 0.002

    def test_deterministic(self):
        a = np.unpackbits(alice_generate(10_000, stream(3, "alice")))
        b = np.unpackbits(alice_generate(10_000, stream(3, "alice")))
        assert np.array_equal(a, b)

    def test_rejects_zero_pulses(self):
        with pytest.raises(ValueError):
            alice_generate(0, stream(4, "alice"))


class TestBobReceive:
    def test_all_empty_gates_give_empty_key(self):
        # empty gates leave no entry in the detection log
        ticks, bits = bob_receive(_batch([]))
        assert len(ticks) == len(bits) == 0

    def test_direct_mapping_skips_dual_fires(self):
        ticks, bits = bob_receive(_batch([
            (3, Outcome.BIT1, Cause.SIGNAL),
            (7, Outcome.BIT0, Cause.SIGNAL),
            (9, Outcome.DUAL_FIRE, Cause.MIXED),
        ]))
        assert bits.tolist() == [1, 0]
        assert ticks.tolist() == [3, 7]

    def test_unordered_events_rejected(self):
        with pytest.raises(ValueError):
            bob_receive(_batch([
                (7, Outcome.BIT0, Cause.SIGNAL),
                (3, Outcome.BIT1, Cause.SIGNAL),
            ]))

    def test_sifted_length_tracks_detection_probability(self):
        params = ProtocolParams(mean_photon_number=0.35, eta_system_mean=0.13,
                                eta_system_sigma=0.0)
        n = 1_000_000
        bits = stream(5, "bits").integers(0, 2, n).astype(np.uint8)
        run = simulate_channel(bits, params, seed=5, block_size=100_000)
        _ticks, sifted = bob_receive(run.detections)
        expected = (1.0 - math.exp(-0.25 * 0.13 * 0.35)) * n
        assert abs(len(sifted) - 11_300) / 11_300 < 0.10
        assert len(sifted) > expected * 0.97


class TestSift:
    def _raw(self, bits):
        return np.asarray(bits, dtype=np.uint8)

    def test_selects_raw_bits_at_indices(self):
        key = sift(self._raw([0, 1, 1, 0, 1]), np.array([0, 4], dtype=np.int64))
        assert key.dtype == np.uint8
        assert key.tolist() == [0, 1]

    def test_empty_index_list(self):
        key = sift(self._raw([0, 1, 1]), np.array([], dtype=np.int64))
        assert len(key) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            sift(self._raw([0, 1, 1]), np.array([0, 3], dtype=np.int64))

    def test_non_monotonic_rejected(self):
        with pytest.raises(ValueError):
            sift(self._raw([0, 1, 1, 0]), np.array([2, 1], dtype=np.int64))

    def test_noiseless_channel_keys_agree_exactly(self):
        params = ProtocolParams(mean_photon_number=0.5, optical_error_prob=0.0, **QUIET)
        n = 100_000
        bits = stream(6, "bits").integers(0, 2, n).astype(np.uint8)
        run = simulate_channel(bits, params, seed=6, block_size=50_000)
        ticks, bob_key = bob_receive(run.detections)
        alice_key = sift(bits, ticks)
        assert len(alice_key) > 0
        assert np.array_equal(alice_key, bob_key)


class TestSiftingEfficiency:
    def test_single_photon_ideal_conditions(self):
        # routing (1/2) x projection (1/2) must emerge as the 25% protocol
        # efficiency without being inserted anywhere
        params = ProtocolParams(eta_system_mean=1.0, eta_system_sigma=0.0, **QUIET)
        n = 1_000_000
        bits = stream(7, "bits").integers(0, 2, n).astype(np.uint8)
        run = simulate_channel(bits, params, seed=7, block_size=100_000,
                               photon_count_override=1)
        _ticks, sifted = bob_receive(run.detections)
        assert abs(len(sifted) / n - 0.25) < 0.005
