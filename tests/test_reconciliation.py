import hashlib
import math
import threading
import time

import numpy as np
import pytest

from fsqkd.messages import (
    BlockParity,
    Kind,
    SampleRequest,
    SampleReveal,
    ShuffleSeed,
    Syndrome,
    VerifyHash,
    leak_meter,
)
from fsqkd.params import ProtocolParams
from fsqkd.reconciliation import (
    _permutation,
    _shuffled_prefix,
    _verify_hash_bits,
    block_schedule,
    estimate_ber_alice,
    estimate_ber_bob,
    reconcile,
    shannon_leak_per_bit,
)
from fsqkd.rng import stream
from fsqkd.session import SessionConfig
from fsqkd.transport import ProtocolError, SessionAborted, loopback_pair

from fixtures import decoded

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
            if message.kind is Kind.BLOCK_PARITY:
                manual += len(message.payload.parities)
            elif message.kind is Kind.SYNDROME:
                manual += len(message.payload.bits)
        assert ra.disclosed_bits == manual == leak_meter(decoded(a_end))
        assert rb.disclosed_bits == manual

    def test_inverted_bisection_answers_abort_cleanly(self, monkeypatch):
        # a reference that inverts every answer steers each bisection to a
        # bit that already agrees; the flip budget must end the exchange
        # with an Abort on the wire, well inside the transport timeout
        import fsqkd.reconciliation as recon

        honest = recon._bisection_answers
        monkeypatch.setattr(recon, "_bisection_answers", lambda *args: honest(*args) ^ 1)
        n = 10_000
        rng = np.random.default_rng(5)
        b = rng.integers(0, 2, n).astype(np.uint8)
        a = (b ^ (rng.random(n) < 0.03)).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def side(name, call):
            try:
                call()
            except SessionAborted as exc:
                errors[name] = exc

        threads = [
            threading.Thread(target=side, args=("a", lambda: reconcile(
                a, a_end, PASSES, "alice", 300 / n))),
            threading.Thread(target=side, args=("b", lambda: reconcile(
                b, b_end, PASSES, "bob", 300 / n, (300, n),
                rng=stream(5, "bob-recon")))),
        ]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        assert time.monotonic() - start < 5.0
        assert errors["a"].local and "flipped more bits" in errors["a"].reason
        assert not errors["b"].local and errors["b"].reason == errors["a"].reason
        assert decoded(a_end)[-1].kind is Kind.ABORT

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
        a_end.expect(Kind.SHUFFLE_SEED)
        a_end.expect(Kind.BLOCK_PARITY)
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
        seed = a_end.expect(Kind.SHUFFLE_SEED).payload.seed
        a_end.expect(Kind.BLOCK_PARITY)
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

    # Alice's plan for a 64-bit key at estimate 0: one screening pass of
    # the whole key, a hash, then the extra pass of the same size and a
    # last hash.  Each case plays the plan's steps in order, P a pass whose
    # parity agrees and H a hash whose digest differs, before one message
    # off the plan.
    @pytest.mark.parametrize("steps, payload, error, reason", [
        ("", ShuffleSeed(pass_no=2, seed=2, block_size=64), SessionAborted, "off the plan"),
        ("PHPH", ShuffleSeed(pass_no=3, seed=3, block_size=64), ProtocolError,
         "expected Abort, got ShuffleSeed"),
        ("", VerifyHash(seed=2, digest=bytes(16), nbits=128), ProtocolError,
         "expected ShuffleSeed, got VerifyHash"),
        ("PH", VerifyHash(seed=2, digest=bytes(16), nbits=128), ProtocolError,
         "expected ShuffleSeed, got VerifyHash"),
        ("P", ShuffleSeed(pass_no=2, seed=2, block_size=64), ProtocolError,
         "expected VerifyHash, got ShuffleSeed"),
        # block sizes arrive as unbounded varints
        ("", ShuffleSeed(pass_no=1, seed=1, block_size=65), SessionAborted, "off the plan"),
        ("", ShuffleSeed(pass_no=1, seed=1, block_size=2**64 - 1), SessionAborted,
         "off the plan"),
        ("PH", ShuffleSeed(pass_no=2, seed=2, block_size=64, est_num=1, est_den=1),
         SessionAborted, "off the plan"),
    ], ids=["pass-out-of-order", "pass-beyond-the-plan", "hash-at-start", "hash-after-a-hash",
            "pass-where-a-hash-is-due", "block-size-65", "block-size-2**64-1",
            "later-estimate-differs"])
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
                b_end.send(ShuffleSeed(pass_no=pass_no, seed=pass_no, block_size=n))
                b_end.send(BlockParity(pass_no=pass_no, parities=parity))
                # the parity agrees, so Alice closes the pass with an empty query
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

    def test_verify_hash_of_unagreed_length_aborts(self):
        # the hash length is fixed by the protocol; a reference that asks
        # for a longer hash after the planned pass gets an Abort and no digest
        n = 64
        bits = stream(7, "k").integers(0, 2, n).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(ShuffleSeed(pass_no=1, seed=1, block_size=n))
        b_end.send(BlockParity(pass_no=1, parities=np.bitwise_xor.reduce(bits, keepdims=True)))
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
        while (message := a_end.expect(Kind.SHUFFLE_SEED, Kind.VERIFY_HASH)).kind \
                is Kind.SHUFFLE_SEED:
            # every parity taken to agree: close the pass with an empty query
            pass_no = a_end.expect(Kind.BLOCK_PARITY).payload.pass_no
            a_end.send(Syndrome(pass_no=pass_no, blocks=np.zeros(0, dtype=np.int64),
                                bits=np.zeros(0, dtype=np.uint8)))
        seed = message.payload.seed + 1
        a_end.send(VerifyHash(seed=seed, digest=_verify_hash_bits(bits, seed, 128),
                              nbits=128))
        expect_abort(a_end, "verify hash echo")
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors["b"].local and "verify hash echo" in errors["b"].reason

    def test_block_parity_out_of_turn_aborts(self):
        # a pass opens with ShuffleSeed; Alice's expect answers a BlockParity
        # in its place with an Abort
        bits = stream(7, "k").integers(0, 2, 64).astype(np.uint8)
        a_end, b_end = loopback_pair(timeout_s=5.0)
        b_end.send(BlockParity(pass_no=1, parities=np.zeros(8, dtype=np.uint8)))
        with pytest.raises(ProtocolError, match="got BlockParity"):
            reconcile(bits, a_end, PASSES, "alice", 0.0)
        expect_abort(b_end, "got BlockParity")

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


class TestPinnedTranscripts:
    """sha256 of Alice's whole correction transcript and corrected key on
    paths the session goldens do not reach; a faster corrector must replay
    them byte for byte."""

    CASES = {
        # two scheduled passes leave an error: hash mismatch, extra pass,
        # second hash round
        "extra-pass": (lambda: planted_keys(2, 2000, 0.05), 100, 2000, 2,
                       2, (3, 2),
                       "9cd972c1d9cc0aaf09c5acca2dcd71d44e49e5cdcb9b482859e419f5e52447c1"),
        "key-shorter-than-block": (short_key_pair, 1, 6, PASSES, 9, (4, 1),
                                   "34975ae078b0fda4143d1ab61710773c"
                                   "2032a2d32fc83bfb9effa1b8e7eaf9a1"),
        # pass 2's held half of odd blocks is still odd once the first
        # half and its backtracking have settled, so it is bisected too
        "held-half-drained": (lambda: planted_keys(1, 300, 0.05), 15, 300, PASSES,
                              1, (4, 1),
                              "c32cf7def1bce122587b24e10421d430f9ded686a4a8f1acdbc0af725dd9bd03"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_transcript_and_key_bytes(self, case):
        keys, est_num, est_den, agreed, seed, (passes, hash_rounds), expected = self.CASES[case]
        a, b = keys()
        ra, rb, a_end, _ = reconcile_pair(a, b, est_num, est_den, passes=agreed, seed=seed)
        assert ra.verified and rb.verified and np.array_equal(ra.corrected_key, b)
        assert (ra.passes_run, ra.hash_rounds) == (passes, hash_rounds)
        digest = hashlib.sha256(b"".join(a_end.frames))
        digest.update(np.packbits(ra.corrected_key).tobytes())
        assert digest.hexdigest() == expected


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

