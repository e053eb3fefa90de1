import functools
import hashlib
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

import fsqkd.reconciliation as recon
from fsqkd.messages import (
    ExtraPass,
    Kind,
    SampleRequest,
    SampleReveal,
    Schedule,
    Syndrome,
    VerifyHash,
    leak_meter,
)
from fsqkd.params import ProtocolParams
from fsqkd.reconciliation import (
    _AliceCorrector,
    _permutation,
    _shuffled_prefix,
    _verify_hash_bits,
    block_schedule,
    correction_plan,
    estimate_ber_alice,
    estimate_ber_bob,
    reconcile,
    shannon_leak_per_bit,
)
from fsqkd.rng import stream
from fsqkd.session import SessionConfig
from fsqkd.transport import ProtocolError, SessionAborted, loopback_pair

from fixtures import bisection_sha256, decoded

# the agreed number of correction passes when none is set
PASSES = SessionConfig().passes


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


def reconcile_pair(a_bits, b_bits, est_num, est_den, passes=PASSES, seed=0):
    est = est_num / est_den
    return run_pair(
        lambda end: reconcile(a_bits, end, passes, "alice", est),
        lambda end: reconcile(b_bits, end, passes, "bob", est, (est_num, est_den),
                              rng=stream(seed, "bob-recon")))


def settle_pair(a_bits, b_bits, est_num, seed, timeout_s=5.0):
    """Both halves of a correction exchange over loopback threads; returns
    each side's outcome or the SessionAborted that ended it, and Alice's end."""
    n = len(b_bits)
    a_end, b_end = loopback_pair(timeout_s=timeout_s)
    ends = {}

    def side(name, call):
        try:
            ends[name] = call()
        except SessionAborted as exc:
            ends[name] = exc

    threads = [
        threading.Thread(target=side, args=("a", lambda: reconcile(
            a_bits, a_end, PASSES, "alice", est_num / n))),
        threading.Thread(target=side, args=("b", lambda: reconcile(
            b_bits, b_end, PASSES, "bob", est_num / n, (est_num, n),
            rng=stream(seed, "bob-recon")))),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=2 * timeout_s)
    assert not any(t.is_alive() for t in threads)
    return ends["a"], ends["b"], a_end


def lie_on(monkeypatch, lie):
    """Make Bob XOR each bisection answer with ``lie(ids)``, the ids of the
    query it answers.  Alice builds each query and Bob its reply through
    ``reconciliation.Syndrome``, one after the other."""
    asked = {}

    def syndrome(pass_no, blocks, bits):
        if len(blocks):
            asked["ids"] = blocks
        elif len(bits):
            bits = bits ^ lie(asked["ids"])
        return Syndrome(pass_no=pass_no, blocks=blocks, bits=bits)

    monkeypatch.setattr(recon, "Syndrome", syndrome)


@pytest.fixture
def correctors(monkeypatch):
    """Alice's correctors, recorded as ``reconcile`` builds them."""
    built = []

    class Recorded(_AliceCorrector):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(recon, "_AliceCorrector", Recorded)
    return built


def estimate_pair(a_key, b_key, sample_size, rng):
    """Both estimation halves; returns (estimate, Alice's rest, Bob's rest, Alice's end)."""
    a_rest, (errors, b_rest), a_end, _ = run_pair(
        lambda end: estimate_ber_alice(a_key, end, sample_size),
        lambda end: estimate_ber_bob(b_key, end, sample_size, rng))
    return errors / sample_size, a_rest, b_rest, a_end


def expect_abort(endpoint, reason_part):
    """The peer's next message is an Abort naming ``reason_part``."""
    with pytest.raises(SessionAborted) as info:
        endpoint.expect()
    assert not info.value.local and reason_part in info.value.reason


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
        trimmed_a = estimate_ber_alice(a, a_end, 1000)
        reveal = b_end.expect(Kind.SAMPLE_REVEAL).payload
        estimate = np.count_nonzero(reveal.bits != b) / 1000
        assert estimate == pytest.approx(0.032)
        assert len(trimmed_a) == 0

    def test_identical_keys_estimate_zero(self):
        bits = np.zeros(500, dtype=np.uint8)
        est, a_t, b_t, _ = estimate_pair(bits, bits.copy(), 50, stream(1, "sample"))
        assert est == 0.0
        assert len(a_t) == len(b_t) == 450

    def test_sampled_positions_are_deleted_and_metered(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, 2000).astype(np.uint8)
        est, a_t, b_t, a_end = estimate_pair(bits, bits.copy(), 500, stream(2, "sample"))
        positions = decoded(a_end)[0].payload.positions
        assert len(positions) == 500
        assert np.array_equal(a_t, np.delete(bits, positions))
        assert np.array_equal(b_t, a_t)
        assert leak_meter(decoded(a_end)) == 500

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
            ticks, sifted = bob_receive(run.detections)
            alice_bits = bits[ticks]
            truth = np.count_nonzero(alice_bits != sifted) / len(sifted)
            est, *_ = estimate_pair(alice_bits, sifted, SessionConfig().sample_size(len(sifted)),
                                    stream(200 + trial, "sample"))
            assert abs(est - truth) < 0.015

    def test_empty_sample_rejected(self):
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(SampleRequest(positions=np.zeros(0, dtype=np.int64)))
        with pytest.raises(SessionAborted, match="sample request of 0 positions, agreed 1"):
            estimate_ber_alice(np.zeros(10, dtype=np.uint8), a_end, 1)
        expect_abort(b_end, "sample request of 0 positions, agreed 1")

    def test_out_of_range_sample_request_aborts(self):
        # a hostile reference: Alice answers with an Abort, not silence
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(SampleRequest(positions=np.array([3, 10], dtype=np.int64)))
        with pytest.raises(SessionAborted, match="out of range"):
            estimate_ber_alice(np.zeros(10, dtype=np.uint8), a_end, 2)
        expect_abort(b_end, "out of range")

    def test_short_sample_reveal_aborts(self):
        # a hostile transmitter reveals fewer bits than asked for
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def bob():
            try:
                estimate_ber_bob(np.zeros(100, dtype=np.uint8), b_end, 10, stream(1, "sample"))
            except SessionAborted as exc:
                errors["b"] = exc

        thread = threading.Thread(target=bob)
        thread.start()
        a_end.expect(Kind.SAMPLE_REQUEST)
        a_end.send(SampleReveal(bits=np.zeros(3, dtype=np.uint8)))
        expect_abort(a_end, "sample reveal size mismatch")
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert errors["b"].local


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
        # bisection pins the planted position, wherever it is, with at most
        # ceil(log2 7) = 3 answered bits
        base = stream(4, "k").integers(0, 2, 7).astype(np.uint8)
        for position in range(7):
            corrupted = base.copy()
            corrupted[position] ^= 1
            ra, rb, a_end, _ = reconcile_pair(corrupted, base, 1, 7, passes=2,
                                              seed=position)
            assert ra.verified and rb.verified
            assert np.array_equal(ra.corrected_key, base)
            answered = sum(len(m.payload.bits) for m in decoded(a_end)
                           if m.kind is Kind.SYNDROME)
            assert answered <= 3

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
            assert np.array_equal(ra.corrected_key, rb.corrected_key)
            assert len(ra.corrected_key) == len(rb.corrected_key)
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
        for message in decoded(a_end):
            if message.kind in (Kind.SCHEDULE, Kind.EXTRA_PASS):
                manual += len(message.payload.parities)
            elif message.kind is Kind.SYNDROME:
                manual += len(message.payload.bits)
        assert ra.disclosed_bits == manual == leak_meter(decoded(a_end))
        assert rb.disclosed_bits == manual

    def test_inverted_bisection_answers_abort_cleanly(self, monkeypatch):
        # a reference that inverts every answer steers each bisection to a
        # bit that already agrees; the flip budget must end the exchange
        # with an Abort on the wire, well inside the transport timeout
        lie_on(monkeypatch, lambda ids: 1)
        n = 10_000
        rng = np.random.default_rng(5)
        b = rng.integers(0, 2, n).astype(np.uint8)
        a = (b ^ (rng.random(n) < 0.03)).astype(np.uint8)
        start = time.monotonic()
        ra, rb, a_end = settle_pair(a, b, 300, seed=5)
        assert time.monotonic() - start < 5.0
        assert ra.local and "flipped more bits" in ra.reason
        assert not rb.local and rb.reason == ra.reason
        assert decoded(a_end)[-1].kind is Kind.ABORT

    def test_partly_lying_reference_aborts_cleanly(self, monkeypatch, correctors):
        # a reference that inverts a third of the answers from pass 2 on
        # sends those bisections down the even half to a bit that agrees;
        # the earlier passes flip it back, the later pass's block turns odd
        # again and is cut at the same false answer, round after round.
        # Each round still keeps exactly one odd half of every segment it
        # splits, so only the flip budget ends the exchange: Alice aborts
        # before flipping more bits than the key holds.
        n = 10_000
        lie_on(monkeypatch, lambda ids: (ids >= n) & (ids % 3 == 0))
        a, b = planted_keys(5, n, 0.03)
        start = time.monotonic()
        ra, rb, a_end = settle_pair(a, b, 300, seed=5)
        assert time.monotonic() - start < 2.0
        assert isinstance(ra, SessionAborted) and isinstance(rb, SessionAborted)
        assert ra.local and ra.reason == "bisection flipped more bits than the key holds"
        assert not rb.local and rb.reason == ra.reason
        assert decoded(a_end)[-1].kind is Kind.ABORT
        assert n // 2 < correctors[-1].flips <= n

    def test_query_beyond_built_passes_aborts(self):
        n = 64
        bits = stream(6, "k").integers(0, 2, n).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def bob():
            try:
                reconcile(bits, b_end, PASSES, "bob", 2 / n, (2, n),
                          rng=stream(6, "bob-recon"))
            except SessionAborted as exc:
                errors["b"] = exc

        thread = threading.Thread(target=bob)
        thread.start()
        a_end.expect(Kind.SCHEDULE)
        a_end.send(Syndrome(pass_no=1, blocks=np.array([n], dtype=np.int64),
                            bits=np.zeros(0, dtype=np.uint8)))
        with pytest.raises(SessionAborted):
            a_end.expect(Kind.SYNDROME)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors["b"].local and "not yet built" in errors["b"].reason

    @pytest.mark.parametrize("repeat", [[3, 10], [10, 20]], ids=["same-query", "one-id"])
    def test_repeated_bisection_query_aborts(self, repeat):
        # an honest peer keeps each answer; one that asks again would get
        # answers without limit, so Bob ends the session at the first repeat
        n = 64
        bits = stream(6, "k").integers(0, 2, n).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def bob():
            try:
                reconcile(bits, b_end, PASSES, "bob", 2 / n, (2, n),
                          rng=stream(6, "bob-recon"))
            except SessionAborted as exc:
                errors["b"] = exc

        start = time.monotonic()
        thread = threading.Thread(target=bob)
        thread.start()
        seed = a_end.expect(Kind.SCHEDULE).payload.seeds[0]
        prefix = _shuffled_prefix(bits, _permutation(seed, 1, n))
        for ids in ([3, 10], [5], repeat):
            a_end.send(Syndrome(pass_no=1, blocks=np.array(ids, dtype=np.int64),
                                bits=np.zeros(0, dtype=np.uint8)))
            if ids is not repeat:
                assert a_end.expect(Kind.SYNDROME).payload.bits.tolist() == prefix[ids].tolist()
        expect_abort(a_end, "repeats an answered position")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors["b"].local
        assert time.monotonic() - start < 2.0

    @pytest.mark.parametrize("queries, reason", [
        ([(5, [3])], "for pass 5, beyond pass 4"),
        ([(2, [3]), (1, [5])], "for pass 1 after pass 2"),
        ([(2, [3]), (1, [])], "for pass 1 after pass 2"),
        ([(1, [3]), (2, [])], "ends at pass 2, not at pass 4"),
    ], ids=["beyond-the-schedule", "pass-goes-back", "closing-pass-goes-back",
            "correction-ends-early"])
    def test_query_off_the_schedule_aborts(self, queries, reason):
        # a query names the pass Alice is draining: one of the four the
        # Schedule announced, never going back
        n = 64
        bits = stream(6, "k").integers(0, 2, n).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def bob():
            try:
                reconcile(bits, b_end, PASSES, "bob", 2 / n, (2, n),
                          rng=stream(6, "bob-recon"))
            except SessionAborted as exc:
                errors["b"] = exc

        thread = threading.Thread(target=bob)
        thread.start()
        assert len(a_end.expect(Kind.SCHEDULE).payload.seeds) == 4
        for i, (pass_no, ids) in enumerate(queries):
            a_end.send(Syndrome(pass_no=pass_no, blocks=np.array(ids, dtype=np.int64),
                                bits=np.zeros(0, dtype=np.uint8)))
            if i < len(queries) - 1:
                assert len(a_end.expect(Kind.SYNDROME).payload.bits) == len(ids)
        expect_abort(a_end, reason)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors["b"].local and reason in errors["b"].reason

    # Alice's plan for a 64-bit key at estimate 0: one screening pass of
    # the whole key, a hash, then the extra pass of the same size and a
    # last hash.  Each case plays the plan's steps in order, P the pass
    # that is due (the Schedule, then the ExtraPass) with a parity that
    # agrees and H a hash whose digest differs, before one message off the
    # plan.
    @pytest.mark.parametrize("steps, payload, error, reason", [
        ("", ExtraPass(seed=2, parities=np.zeros(1, dtype=np.uint8)), ProtocolError,
         "expected Schedule, got ExtraPass"),
        ("PHPH", ExtraPass(seed=3, parities=np.zeros(1, dtype=np.uint8)), ProtocolError,
         "expected Abort, got ExtraPass"),
        ("", VerifyHash(seed=2, digest=bytes(16), nbits=128), ProtocolError,
         "expected Schedule, got VerifyHash"),
        ("PH", VerifyHash(seed=2, digest=bytes(16), nbits=128), ProtocolError,
         "expected ExtraPass, got VerifyHash"),
        # an extra pass that no hash mismatch preceded
        ("P", ExtraPass(seed=2, parities=np.zeros(1, dtype=np.uint8)), ProtocolError,
         "expected VerifyHash, got ExtraPass"),
        ("P", Schedule(est_num=0, est_den=1, seeds=(2,), parities=np.zeros(1, dtype=np.uint8)),
         ProtocolError, "expected VerifyHash, got Schedule"),
        ("", Schedule(est_num=0, est_den=1, seeds=(1, 2),
                      parities=np.zeros(2, dtype=np.uint8)), SessionAborted, "off the plan"),
        ("", Schedule(est_num=0, est_den=1, seeds=(), parities=np.zeros(0, dtype=np.uint8)),
         SessionAborted, "off the plan"),
        ("", Schedule(est_num=0, est_den=1, seeds=(1,), parities=np.zeros(65, dtype=np.uint8)),
         SessionAborted, "off the plan"),
        ("PH", ExtraPass(seed=2, parities=np.zeros(2, dtype=np.uint8)), SessionAborted,
         "off the plan"),
        ("", Schedule(est_num=1, est_den=1, seeds=(1,), parities=np.zeros(1, dtype=np.uint8)),
         SessionAborted, "off the agreed estimate"),
    ], ids=["pass-out-of-order", "pass-beyond-the-plan", "hash-at-start", "hash-after-a-hash",
            "pass-where-a-hash-is-due", "schedule-where-a-hash-is-due", "two-passes",
            "no-pass", "65-parities", "extra-pass-of-2-parities", "estimate-off-the-plan"])
    def test_announcement_off_the_plan_aborts(self, steps, payload, error, reason):
        # each pass costs Alice several key-sized arrays and each hash a
        # key-sized product and 128 disclosed bits, so she follows Bob only
        # along the plan both derive from what they agreed
        n = 64
        bits = stream(8, "k").integers(0, 2, n).astype(np.uint8)
        parity = np.bitwise_xor.reduce(bits, keepdims=True)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def alice():
            try:
                reconcile(bits, a_end, PASSES, "alice", 0.0)
            except (SessionAborted, ProtocolError) as exc:
                errors["a"] = exc

        thread = threading.Thread(target=alice)
        thread.start()
        pass_no = 0
        for step in steps:
            if step == "P":
                pass_no += 1
                b_end.send(Schedule(est_num=0, est_den=1, seeds=(1,), parities=parity)
                           if pass_no == 1 else ExtraPass(seed=pass_no, parities=parity))
                # the parity agrees, so Alice ends correction with an empty query
                closing = b_end.expect(Kind.SYNDROME).payload
                assert closing.pass_no == pass_no and len(closing.blocks) == 0
            else:
                # a wrong digest: Alice answers with hers and waits for Bob
                b_end.send(VerifyHash(seed=1, digest=bytes(16), nbits=128))
                assert b_end.expect(Kind.VERIFY_HASH).payload.nbits == 128
        b_end.send(payload)
        expect_abort(b_end, reason)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert type(errors["a"]) is error and reason in str(errors["a"])
        if error is SessionAborted:
            assert errors["a"].local

    @pytest.mark.parametrize("reply, reason", [
        (Syndrome(pass_no=1, blocks=np.array([32], dtype=np.int64),
                  bits=np.ones(1, dtype=np.uint8)), "1 bits and 1 ids"),
        (Syndrome(pass_no=1, blocks=np.zeros(0, dtype=np.int64),
                  bits=np.ones(2, dtype=np.uint8)), "2 bits and 0 ids"),
        (Syndrome(pass_no=1, blocks=np.zeros(0, dtype=np.int64),
                  bits=np.zeros(0, dtype=np.uint8)), "0 bits and 0 ids"),
        (Syndrome(pass_no=2, blocks=np.zeros(0, dtype=np.int64),
                  bits=np.ones(1, dtype=np.uint8)), "for pass 2"),
    ], ids=["echoes-ids", "two-bits", "no-bits", "other-pass"])
    def test_reply_off_its_query_aborts(self, reply, reason):
        # a reply carries one answer bit per id of the query and no ids
        n = 64
        bits = stream(8, "k").integers(0, 2, n).astype(np.uint8)
        odd = np.bitwise_xor.reduce(bits, keepdims=True) ^ 1
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(Schedule(est_num=0, est_den=1, seeds=(1,), parities=odd))
        b_end.send(reply)
        with pytest.raises(SessionAborted, match="does not match|bits and") as info:
            reconcile(bits, a_end, PASSES, "alice", 0.0)
        assert info.value.local and reason in info.value.reason
        # the one block disagrees: Alice asked for its midpoint
        assert b_end.expect(Kind.SYNDROME).payload.blocks.tolist() == [32]
        expect_abort(b_end, reason)

    def test_verify_hash_of_unagreed_length_aborts(self):
        # the hash length is fixed by the protocol; a reference that asks
        # for a longer hash after the planned pass gets an Abort and no digest
        n = 64
        bits = stream(7, "k").integers(0, 2, n).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(Schedule(est_num=0, est_den=1, seeds=(1,),
                            parities=np.bitwise_xor.reduce(bits, keepdims=True)))
        b_end.send(VerifyHash(seed=1, digest=bytes(16), nbits=2**20))
        with pytest.raises(SessionAborted, match="agreed 128"):
            reconcile(bits, a_end, PASSES, "alice", 0.0)
        assert len(b_end.expect(Kind.SYNDROME).payload.blocks) == 0
        expect_abort(b_end, "agreed 128")

    def test_verify_hash_echo_of_another_seed_aborts(self):
        # Alice echoes the seed and length Bob hashed under; a digest under
        # any other seed must end the session, not open the extra pass and
        # disclose its parities
        n = 64
        bits = stream(9, "k").integers(0, 2, n).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def bob():
            try:
                reconcile(bits, b_end, PASSES, "bob", 2 / n, (2, n),
                          rng=stream(9, "bob-recon"))
            except SessionAborted as exc:
                errors["b"] = exc

        thread = threading.Thread(target=bob)
        thread.start()
        passes = len(a_end.expect(Kind.SCHEDULE).payload.seeds)
        # every parity taken to agree: end correction with an empty query
        a_end.send(Syndrome(pass_no=passes, blocks=np.zeros(0, dtype=np.int64),
                            bits=np.zeros(0, dtype=np.uint8)))
        seed = a_end.expect(Kind.VERIFY_HASH).payload.seed + 1
        a_end.send(VerifyHash(seed=seed, digest=_verify_hash_bits(bits, seed, 128),
                              nbits=128))
        expect_abort(a_end, "verify hash echo")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors["b"].local and "verify hash echo" in errors["b"].reason

    def test_block_parity_out_of_turn_aborts(self):
        # correction opens with the Schedule; Alice's expect answers block
        # parities that arrive in an ExtraPass in its place with an Abort
        bits = stream(7, "k").integers(0, 2, 64).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(ExtraPass(seed=1, parities=np.zeros(8, dtype=np.uint8)))
        with pytest.raises(ProtocolError, match="got ExtraPass"):
            reconcile(bits, a_end, PASSES, "alice", 0.0)
        expect_abort(b_end, "got ExtraPass")

    def test_input_key_left_unchanged(self):
        n = 4_000
        rng = np.random.default_rng(11)
        b = rng.integers(0, 2, n).astype(np.uint8)
        a = (b ^ (rng.random(n) < 0.02)).astype(np.uint8)
        a_before = a.copy()
        ra, rb, *_ = reconcile_pair(a, b, 80, n, seed=11)
        assert ra.verified and np.array_equal(ra.corrected_key, b)
        assert np.array_equal(a, a_before)

    def test_empty_key_rejected(self):
        a_end, _ = loopback_pair()
        with pytest.raises(ValueError):
            reconcile(np.zeros(0, dtype=np.uint8), a_end, PASSES, "alice", 0.0)


def planted_keys(seed, n, eps):
    """Bob's random key and Alice's copy with each bit flipped at rate eps."""
    rng = np.random.default_rng(seed)
    b = rng.integers(0, 2, n).astype(np.uint8)
    return (b ^ (rng.random(n) < eps)).astype(np.uint8), b


def short_key_pair():
    """A 6-bit key with one error: every pass's block is longer than the key."""
    b = stream(9, "k").integers(0, 2, 6).astype(np.uint8)
    a = b.copy()
    a[4] ^= 1
    return a, b


def one_bit_key_pair():
    """A 1-bit key with its one bit wrong."""
    b = stream(11, "k").integers(0, 2, 1).astype(np.uint8)
    return b ^ 1, b


class TestPinnedTranscripts:
    """Alice's whole correction transcript, her corrected key and the
    bisection exchange (each query's pass and ids and Bob's answers, apart
    from any wire layout), each pinned by sha256, on paths the session
    goldens do not reach; a faster corrector must replay them byte for byte."""

    CASES = {
        # two scheduled passes leave an error: hash mismatch, extra pass,
        # second hash round
        "extra-pass": (lambda: planted_keys(2, 2000, 0.05), 100, 2000, 2, 2, (3, 2), {
            "transcript": "c8ba747323c8f9ff76fedcf57b112110205e947e8add29c645ad59f909ef980a",
            "key": "182148fe13a55f3dc81417fe46be2c449436a820e6a028323b384aa1effbcdf7",
            "bisection": "0eee15207045992b9c94e150177ba86c7a4f8b198dce80dfbe445f49202f15e4"}),
        "key-shorter-than-block": (short_key_pair, 1, 6, PASSES, 9, (4, 1), {
            "transcript": "c1f55372a8337271a34cbc803fe7316a04d48a84b13bbbe152275710c7942d8f",
            "key": "4b68ab3847feda7d6c62c1fbcbeebfa35eab7351ed5e78f4ddadea5df64b8015",
            "bisection": "9680b85ffb65857c13a06035f4412ef33ab71b85b8de306a99f56a9ce1a35163"}),
        # pass 2's held half of odd blocks is still odd once the first
        # half and its backtracking have settled, so it is bisected too
        "held-half-drained": (lambda: planted_keys(1, 300, 0.05), 15, 300, PASSES, 1, (4, 1), {
            "transcript": "1afcbaacebfde1d8126c58ea0b204a78dca6f2b2fe03c4bdbfe0387857c565a2",
            "key": "e0c457b7cf6f0c6f1176b6dfcf7c58f43c965ba3c2578f1ae613b341d2527b93",
            "bisection": "f8e027bc12011cb5ded0e5517ba479a7f793d0553ad6496f28131022e36e6628"}),
        # blocks of 8 bits at 12% errors: 314 frames of bisection and
        # backtracking
        "heavy-backtracking": (lambda: planted_keys(3, 20_000, 0.12), 2400, 20_000, PASSES,
                               3, (4, 1), {
            "transcript": "4271eb19ce116a82b5fd01167595087b9c1f1fdb233637ea22402380d7b05423",
            "key": "380372df9bd289c3d1f3bf88390c54ec2150f9dbfeecf62d6510514cfe40b005",
            "bisection": "ef9e3b67300aa949bb311991baacb0a0a90c9cd87eefefb07dc59f6958992b55"}),
        # blocks of 15 bits and a last block of 11
        "short-last-block": (lambda: planted_keys(5, 1_001, 0.05), 50, 1_001, PASSES,
                             5, (4, 1), {
            "transcript": "8bb0f0014f10ebfbeb5acf99f43d3b7bf1bcea5666e9bcf71a1f662ac7a9dc31",
            "key": "46254e49b676578f94bbc2b3e7ed095481daebc2f30dac5832244247c1191114",
            "bisection": "fda9961652970bc2dbcb5b9dd5aa2f1452c8963833d3b69e918a203b86c70a7c"}),
        # every pass is one 1-bit block, odd in pass 1 only: its flip needs
        # no query
        "one-bit-key": (one_bit_key_pair, 1, 1, PASSES, 1, (4, 1), {
            "transcript": "e271a4184be816f89e5c61a0dd2656c162cd6146700b1d32be0b854ca07e2b29",
            "key": "76be8b528d0075f7aae98d6fa57a6d3c83ae480a8469e668d7b0af968995ac71",
            "bisection": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_transcript_and_key_bytes(self, case):
        ra, a_end = pinned_run(case)
        got = {"transcript": hashlib.sha256(b"".join(a_end.frames)).hexdigest(),
               "key": hashlib.sha256(np.packbits(ra.corrected_key).tobytes()).hexdigest()}
        expected = self.CASES[case][-1]
        assert got == {name: expected[name] for name in got}

    @pytest.mark.parametrize("case", CASES)
    def test_bisection_exchange(self, case):
        _ra, a_end = pinned_run(case)
        assert bisection_sha256(decoded(a_end)) == self.CASES[case][-1]["bisection"]


@functools.lru_cache(maxsize=None)
def pinned_run(case):
    """Alice's outcome and end of one pinned case, run once per process."""
    keys, est_num, est_den, agreed, seed, (passes, hash_rounds), _ = \
        TestPinnedTranscripts.CASES[case]
    a, b = keys()
    ra, rb, a_end, _ = reconcile_pair(a, b, est_num, est_den, passes=agreed, seed=seed)
    assert ra.verified and rb.verified and np.array_equal(ra.corrected_key, b)
    assert (ra.passes_run, ra.hash_rounds) == (passes, hash_rounds)
    return ra, a_end


class TestAliceCorrector:
    # (keys, disagreements in the estimate); the estimate is over the key
    KEYS = {
        "1 bit": (one_bit_key_pair, 1),
        "7 bits at 0.2": (lambda: planted_keys(1, 7, 0.2), 1),
        "300 bits at 0.05": (lambda: planted_keys(1, 300, 0.05), 15),
        "1,001 bits at 0.05": (lambda: planted_keys(5, 1_001, 0.05), 50),
        "5,000 bits at 0.005": (lambda: planted_keys(2, 5_000, 0.005), 25),
        "5,000 bits at 0.2": (lambda: planted_keys(4, 5_000, 0.2), 1_000),
        "20,000 bits at 0.12": (lambda: planted_keys(3, 20_000, 0.12), 2_400),
    }

    def test_round_finds_what_a_full_rescan_finds(self, monkeypatch):
        # A round rescans only the blocks holding a flipped bit and keeps
        # the odd half of every other segment it splits.  Its result must
        # equal the odd segments of every block the round touched, the
        # blocks of its segments and of its flips, scanned whole; and each
        # built pass's row of Alice's key must follow her flips.  Run
        # against an honest reference and one that inverts a third of the
        # answers from pass 2 on.
        whole_round = _AliceCorrector._round
        seen = {"rounds": 0, "merged": 0, "wrong": []}

        def checked(corr, lo, hi):
            # every round starts from all odd segments of their blocks,
            # the first round of a pass from its odd blocks whole
            given = corr._odd_segments(corr._block_starts(lo))
            if not (np.array_equal(lo, given[0]) and np.array_equal(hi, given[1])):
                seen["wrong"].append(("given", corr.built, len(lo)))
            before = corr.bits.copy()
            lo_next, hi_next = whole_round(corr, lo, hi)
            flipped = corr.inv[:corr.built, (corr.bits != before).nonzero()[0]].ravel()
            touched = corr._block_starts(np.concatenate([lo, flipped]))
            full_lo, full_hi = corr._odd_segments(touched)
            g = np.arange(corr.built * corr.stride).reshape(corr.built, -1)[:, :-1]
            if not (np.array_equal(lo_next, full_lo) and np.array_equal(hi_next, full_hi)
                    and np.array_equal(corr.shuffled[g], corr.bits[corr.perm[g]])):
                seen["wrong"].append(("found", corr.built, len(lo)))
            # a flip in a block that also holds an asked segment: that block's
            # rescan is merged with the halves of the others
            asked = corr._block_starts(lo[hi - lo > 1])
            seen["merged"] += bool(np.isin(asked, corr._block_starts(flipped)).any())
            seen["rounds"] += 1
            return lo_next, hi_next

        monkeypatch.setattr(_AliceCorrector, "_round", checked)
        outcomes = []
        for lying in (False, True):
            for seed, (keys, est_num) in enumerate(self.KEYS.values()):
                a, b = keys()
                n = len(b)
                if lying:
                    lie_on(monkeypatch, lambda ids, n=n: (ids >= n) & (ids % 3 == 0))
                ra, rb, _ = settle_pair(a, b, est_num, seed)
                outcomes.append(type(ra).__name__)
                if not lying:
                    assert ra.verified and np.array_equal(ra.corrected_key, b)
        assert seen["wrong"] == []
        assert seen["merged"] > 0 and seen["rounds"] > 100
        # the lies end some exchanges early
        assert "SessionAborted" in outcomes

    def test_tables_hold_ten_bytes_per_key_bit_and_pass(self):
        # the key length of a 32M-pulse session at nbar 0.5; each pass's
        # row has one slot past the key for the pass's end.  SessionConfig
        # caps the passes on "about 10 bytes per key bit and pass for Alice"
        n = 486_000
        rows = len(correction_plan(0.02, n, PASSES))
        corr = _AliceCorrector(np.zeros(n, dtype=np.uint8), None, rows)
        tables = (corr.perm, corr.inv, corr.bob_prefix, corr.shuffled)
        assert sum(t.nbytes for t in tables) <= 10 * rows * (n + 1)
        # a session's memory peaks while a pass is built: beyond the tables
        # it may hold only the int64 permutation it draws and the int64
        # bounds of its blocks
        blocks = -(-n // 30)
        tracemalloc.start()
        try:
            corr.begin_pass(1, 30, np.zeros(blocks, dtype=np.uint8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 16 * blocks + 2**16


def toeplitz_diagonal(seed, n, nbits):
    """The hash matrix's n + nbits - 1 diagonal bits, as PROTOCOL.md draws them."""
    return (stream(seed, "verify-hash").random(n + nbits - 1) < 0.5).astype(np.int64)


class TestVerifyHash:
    """The key-confirmation digest is an nbits x n Toeplitz matrix times the key."""

    @pytest.mark.parametrize("n", [1, 7, 127, 128, 129, 1000])
    def test_equals_dense_toeplitz_product(self, n):
        nbits, seed = 128, 12
        key = stream(n, "key").integers(0, 2, n).astype(np.uint8)
        diagonal = toeplitz_diagonal(seed, n, nbits)
        i, j = np.indices((nbits, n))
        matrix = diagonal[i - j + n - 1]
        expected = np.packbits((matrix @ key) & 1).tobytes()
        assert _verify_hash_bits(key, seed, nbits) == expected

    def test_equals_fft_convolution_at_bright_key_length(self):
        # the corrected key length of a 32M-pulse session at nbar 0.5
        n, nbits, seed = 485_907, 128, 3
        key = stream(1, "key").integers(0, 2, n).astype(np.uint8)
        size = 1 << (n + nbits - 2).bit_length()
        spectrum = np.fft.rfft(toeplitz_diagonal(seed, n, nbits), size)
        spectrum *= np.fft.rfft(key, size)
        product = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + nbits]
        expected = np.packbits(np.rint(product).astype(np.int64) & 1).tobytes()
        assert _verify_hash_bits(key, seed, nbits) == expected

    @pytest.mark.parametrize("position", [0, 500, 999])
    def test_one_bit_difference_changes_digest(self, position):
        key = stream(2, "key").integers(0, 2, 1000).astype(np.uint8)
        other = key.copy()
        other[position] ^= 1
        assert _verify_hash_bits(key, 5, 128) != _verify_hash_bits(other, 5, 128)

    @pytest.mark.parametrize("nbits", [8, 13, 128, 129])
    def test_digest_length(self, nbits):
        key = stream(3, "key").integers(0, 2, 300).astype(np.uint8)
        assert len(_verify_hash_bits(key, 1, nbits)) == math.ceil(nbits / 8)

