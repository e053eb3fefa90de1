import math
import threading

import numpy as np
import pytest

from fsqkd.core import KeyBuffer, Stage
from fsqkd.messages import Kind, SampleRequest, leak_meter
from fsqkd.params import ProtocolParams
from fsqkd.reconciliation import (
    ReconConfig,
    block_schedule,
    estimate_ber_alice,
    estimate_ber_bob,
    reconcile,
    shannon_leak_per_bit,
)
from fsqkd.rng import stream
from fsqkd.transport import loopback_pair


def raw_key(bits):
    return KeyBuffer(stage=Stage.RAW, bits=np.asarray(bits, dtype=np.uint8))


def run_pair(alice, bob):
    """Run Alice's and Bob's halves of an exchange over loopback threads."""
    a_end, b_end = loopback_pair(timeout_s=20.0)
    results = {}

    def side(name, half, endpoint):
        results[name] = half(endpoint)

    threads = [threading.Thread(target=side, args=("a", alice, a_end)),
               threading.Thread(target=side, args=("b", bob, b_end))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
    return results["a"], results["b"], a_end, b_end


def reconcile_pair(a_bits, b_bits, est_num, est_den, cfg=None, seed=0):
    cfg = cfg or ReconConfig()
    return run_pair(
        lambda end: reconcile(raw_key(a_bits), end, cfg, "alice", 0, 1),
        lambda end: reconcile(raw_key(b_bits), end, cfg, "bob", est_num, est_den,
                              rng=stream(seed, "bob-recon")))


def estimate_pair(a_key, b_key, cfg, rng):
    """Both estimation halves; returns (estimate, Alice's trimmed, Bob's trimmed)."""
    a_trimmed, (errors, sample, b_trimmed), *_ = run_pair(
        lambda end: estimate_ber_alice(a_key, end),
        lambda end: estimate_ber_bob(b_key, end, cfg, rng))
    return errors / sample, a_trimmed, b_trimmed


class TestShannonLimit:
    def test_reference_point(self):
        assert abs(shannon_leak_per_bit(0.041) - 0.246) <= 0.001

    def test_deterministic_channel_costs_nothing(self):
        assert shannon_leak_per_bit(0.0) == 0.0

    def test_maximum_entropy(self):
        assert shannon_leak_per_bit(0.5) == pytest.approx(1.0)

    @pytest.mark.parametrize("eps", [-0.01, 1.01])
    def test_out_of_range_rejected(self, eps):
        with pytest.raises(ValueError):
            shannon_leak_per_bit(eps)


class TestBlockSchedule:
    def test_zero_estimate_gives_single_screening_pass(self):
        assert block_schedule(0.0, 100_000, 4) == [4096]

    def test_initial_size_follows_estimate(self):
        assert block_schedule(0.03, 10_000, 4)[0] == 24
        assert block_schedule(0.05, 10_000, 4)[0] == 15

    def test_clamps(self):
        assert block_schedule(0.4, 10_000, 2)[0] == 8
        assert block_schedule(1e-7, 100_000, 2)[0] == 4096

    def test_doubles_each_pass(self):
        assert block_schedule(0.03, 100_000, 4) == [24, 48, 96, 192]


class TestEstimation:
    def test_exhaustive_sample_is_exact(self):
        # all positions sampled -> exactly the true disagreement fraction
        rng = np.random.default_rng(0)
        b = rng.integers(0, 2, 1000).astype(np.uint8)
        a = b.copy()
        a[rng.choice(1000, 32, replace=False)] ^= 1
        a_end, b_end = loopback_pair()
        positions = np.arange(1000, dtype=np.int64)
        b_end.send(SampleRequest(positions=positions))
        trimmed_a = estimate_ber_alice(raw_key(a), a_end)
        reveal = b_end.expect(Kind.SAMPLE_REVEAL).payload
        estimate = np.count_nonzero(reveal.bits != b) / 1000
        assert estimate == pytest.approx(0.032)
        assert len(trimmed_a) == 0

    def test_identical_keys_estimate_zero(self):
        bits = np.zeros(500, dtype=np.uint8)
        est, a_t, b_t = estimate_pair(raw_key(bits), raw_key(bits.copy()),
                                      ReconConfig(), stream(1, "sample"))
        assert est == 0.0
        assert len(a_t) == len(b_t) == 450

    def test_sampled_positions_are_deleted_and_metered(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        a_key, b_key = raw_key(bits), raw_key(bits.copy())
        est, a_t, b_t = estimate_pair(a_key, b_key, ReconConfig(sample_fraction=0.25),
                                      stream(2, "sample"))
        assert len(a_t) == len(b_t) == 1500
        assert a_t.leaked_bits == b_t.leaked_bits == 500

    def test_tracks_simulation_truth(self):
        # channel-produced keys: the sampled estimate stays within 1.5
        # percentage points of the realized error rate
        from fsqkd.channel import simulate_channel
        from fsqkd.protocol import bob_receive

        params = ProtocolParams(mean_photon_number=0.35)
        for trial in range(6):
            n = 2_000_000
            bits = stream(100 + trial, "bits").integers(0, 2, n).astype(np.uint8)
            run = simulate_channel(bits, params, seed=100 + trial,
                                   block_size=100_000)
            sifted = bob_receive(run.detections)
            alice_bits = bits[sifted.indices]
            truth = np.count_nonzero(alice_bits != sifted.bits) / len(sifted)
            est, _a, _b = estimate_pair(
                KeyBuffer(stage=Stage.RAW, bits=alice_bits),
                KeyBuffer(stage=Stage.RAW, bits=sifted.bits.copy()),
                ReconConfig(), stream(200 + trial, "sample"))
            assert abs(est - truth) < 0.015

    def test_empty_sample_rejected(self):
        a_end, b_end = loopback_pair()
        b_end.send(SampleRequest(positions=np.zeros(0, dtype=np.int64)))
        with pytest.raises(Exception):
            estimate_ber_alice(raw_key(np.zeros(10, dtype=np.uint8)), a_end)


class TestReconcile:
    def test_error_free_keys_cost_one_parity_pass(self):
        bits = stream(3, "k").integers(0, 2, 10_000).astype(np.uint8)
        ra, rb, a_end, _ = reconcile_pair(bits, bits.copy(), 0, 1)
        assert ra.verified and rb.verified
        assert ra.passes_run == rb.passes_run == 1
        n_blocks = math.ceil(10_000 / 4096)
        assert ra.disclosed_bits == rb.disclosed_bits == n_blocks
        assert ra.efficiency == 0.0 or ra.estimated_ber == 0.0

    def test_seven_bit_block_single_error_exhaustive(self):
        # one 3-bit syndrome pins the planted position, wherever it is
        cfg = ReconConfig(passes=2)
        base = stream(4, "k").integers(0, 2, 7).astype(np.uint8)
        for position in range(7):
            corrupted = base.copy()
            corrupted[position] ^= 1
            ra, rb, a_end, _ = reconcile_pair(corrupted, base, 1, 7, cfg=cfg,
                                              seed=position)
            assert ra.verified and rb.verified
            assert np.array_equal(ra.corrected_key.bits, base)
            syndromes = [m for m in a_end.messages
                         if m.kind is Kind.SYNDROME and len(m.payload.bits)]
            assert len(syndromes) == 1
            assert len(syndromes[0].payload.bits) == 3

    @pytest.mark.parametrize("eps", [0.01, 0.03, 0.05])
    def test_planted_errors_verified(self, eps):
        n = 10_000
        failures = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            b = rng.integers(0, 2, n).astype(np.uint8)
            a = (b ^ (rng.random(n) < eps)).astype(np.uint8)
            ra, rb, a_end, b_end = reconcile_pair(a, b, int(round(eps * n)), n,
                                                  seed=seed)
            if not (ra.verified and rb.verified):
                failures += 1
                continue
            assert np.array_equal(ra.corrected_key.bits, rb.corrected_key.bits)
            assert len(ra.corrected_key) == len(rb.corrected_key)
            assert ra.corrected_key.leaked_bits == rb.corrected_key.leaked_bits
            assert ra.disclosed_bits == rb.disclosed_bits
        assert failures == 0

    def test_disclosure_matches_transcript_meter(self):
        n = 8_000
        rng = np.random.default_rng(77)
        b = rng.integers(0, 2, n).astype(np.uint8)
        a = (b ^ (rng.random(n) < 0.03)).astype(np.uint8)
        ra, rb, a_end, b_end = reconcile_pair(a, b, 240, n, seed=77)
        # independent recount: parities + syndrome payload bits, nothing else
        manual = 0
        for message in a_end.messages:
            if message.kind is Kind.BLOCK_PARITY:
                manual += len(message.payload.parities)
            elif message.kind is Kind.SYNDROME:
                manual += len(message.payload.bits)
        assert ra.disclosed_bits == manual == leak_meter(a_end.messages)
        assert rb.disclosed_bits == manual

    def test_corrected_key_carries_leak_ledger_forward(self):
        n = 4_000
        rng = np.random.default_rng(11)
        b = rng.integers(0, 2, n).astype(np.uint8)
        a = (b ^ (rng.random(n) < 0.02)).astype(np.uint8)
        ra, rb, *_ = reconcile_pair(a, b, 80, n, seed=11)
        assert ra.corrected_key.stage is Stage.CORRECTED
        assert ra.corrected_key.leaked_bits == ra.disclosed_bits
        assert rb.corrected_key.leaked_bits == rb.disclosed_bits

    def test_empty_key_rejected(self):
        a_end, _ = loopback_pair()
        with pytest.raises(ValueError):
            reconcile(raw_key(np.zeros(0, dtype=np.uint8)), a_end,
                      ReconConfig(), "alice", 0, 1)


class TestReconConfig:
    def test_sample_fraction_bounds(self):
        with pytest.raises(ValueError):
            ReconConfig(sample_fraction=0.6)
        with pytest.raises(ValueError):
            ReconConfig(sample_fraction=0.0)

    def test_minimum_passes(self):
        with pytest.raises(ValueError):
            ReconConfig(passes=1)
