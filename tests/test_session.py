import functools
import gc
import hashlib
import io
import itertools
import os
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from fsqkd.messages import (
    PROTOCOL_VERSION,
    ExtraPass,
    Hello,
    Kind,
    PaSeed,
    SampleRequest,
    Schedule,
    SiftIndices,
    decode,
)
from fsqkd.params import ProtocolParams
from fsqkd.rng import random_bits, stream
from fsqkd.session import (
    _GATHER_CHUNK,
    SessionConfig,
    SessionReport,
    _caller_cpu,
    _derive_alice_bits,
    run_alice,
    run_bob,
    run_simulation,
    session_digest,
    session_hex,
)
from fsqkd.transport import ProtocolError, SessionAborted, loopback_pair

from fixtures import bisection_sha256, decoded


@pytest.fixture(scope="module")
def small_run():
    params = ProtocolParams(mean_photon_number=0.5, rng_seed=31)
    cfg = SessionConfig(pulses=300_000, block_size=50_000,
                        sample_fraction=0.05)
    return params, cfg, run_simulation(params, cfg)


@pytest.fixture(scope="module")
def clean_run():
    """A noiseless link: sampling finds no error."""
    params = ProtocolParams(mean_photon_number=0.5, rng_seed=77,
                            background_prob_per_gate=0.0,
                            dark_count_rate_hz=0.0,
                            optical_error_prob=0.0)
    return run_simulation(params, SessionConfig(pulses=200_000, block_size=50_000))


@pytest.fixture(scope="module")
def no_yield_run():
    """A source too dim for any secret yield."""
    params = ProtocolParams(mean_photon_number=0.02, rng_seed=5)
    return run_simulation(params, SessionConfig(pulses=400_000, block_size=100_000))


@pytest.fixture(scope="module")
def traced_bytes_per_pulse():
    """Traced peak of one 4M-pulse session at nbar 0.5 (seed 2), per pulse."""
    pulses = 4_000_000
    params = ProtocolParams(mean_photon_number=0.5, rng_seed=2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_simulation(params, SessionConfig(pulses=pulses))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / pulses


class TestPackedBits:
    # the bits a byte-per-pulse derivation gives: the session's one
    # ``alice-bits`` stream unpacked, whatever the block size
    @pytest.mark.parametrize("pulses, block_size", [(100_000, 30_000), (1_001, 333), (5, 8)])
    def test_reads_like_the_unpacked_bits(self, pulses, block_size):
        cfg = SessionConfig(pulses=pulses, block_size=block_size)
        expected = random_bits(stream(9, "alice-bits"), pulses)
        bits = _derive_alice_bits(cfg, 9)
        assert len(bits) == pulses
        assert bits.data.nbytes == (pulses + 7) // 8
        got = bits[np.arange(pulses)]
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)
        ticks = np.sort(stream(9, "ticks").choice(pulses, min(pulses, 500), replace=False))
        gathered = bits[ticks]
        assert gathered.dtype == np.uint8
        assert np.array_equal(gathered, expected[ticks])
        assert len(bits[np.zeros(0, dtype=np.int64)]) == 0

    @pytest.mark.parametrize("count", [_GATHER_CHUNK - 1, _GATHER_CHUNK, _GATHER_CHUNK + 1,
                                       3 * _GATHER_CHUNK + 5])
    def test_gather_across_chunks(self, count):
        pulses = 100_000
        expected = random_bits(stream(9, "alice-bits"), pulses)
        bits = _derive_alice_bits(SessionConfig(pulses=pulses, block_size=30_000), 9)
        ticks = np.sort(stream(count, "ticks").choice(pulses, count, replace=False))
        assert np.array_equal(bits[ticks], expected[ticks])

    def test_traced_memory_per_pulse(self, traced_bytes_per_pulse):
        # Alice's raw bits take one bit per pulse; a byte per pulse, and the
        # copy that joined its blocks, put the peak above 4 bytes per pulse
        assert traced_bytes_per_pulse < 3.0

    def test_traced_memory_per_pulse_with_dead_arrays_freed(self, traced_bytes_per_pulse):
        # 2.13 bytes per pulse while the index codec and the raw-bit gather
        # built whole-list temporaries, each engine kept its raw bits and
        # Bob his detection log to the end, and privacy amplification
        # transformed the whole key at once; 1.72 with all of them bounded
        # or freed
        assert traced_bytes_per_pulse < 1.9

    def test_traced_memory_per_pulse_with_no_decoded_transcript(self, traced_bytes_per_pulse):
        # 1.72 bytes per pulse while each endpoint kept every decoded message,
        # and with it Bob's sift indices, to the end of the session; 1.32 to
        # 1.39 (thread interleaving moves it) with only the frames kept and
        # both engines dropping the indices once sifted
        assert traced_bytes_per_pulse < 1.5


class TestPipeline:
    def test_length_chain(self, small_run):
        _params, _cfg, sim = small_run
        r = sim.report
        assert r.secret_len <= r.corrected_len <= r.sifted_len <= r.pulses

    def test_parties_agree(self, small_run, clean_run, no_yield_run):
        # -1 marks the fields only one party fills: Bob's simulation truth
        # and Alice's flip count; every other field each party computes
        # from its own session, the estimate and the sample included
        one_party = {f.name for f in fields(SessionReport) if f.default == -1}
        for sim in (small_run[2], clean_run, no_yield_run):
            assert np.array_equal(sim.alice.secret_bits, sim.bob.secret_bits)
            assert sim.alice.frames == sim.bob.frames
            for name in {f.name for f in fields(SessionReport)} - one_party - {"role"}:
                assert getattr(sim.alice.report, name) == getattr(sim.bob.report, name), name

    def test_replay_reproduces_every_count(self, small_run):
        params, cfg, sim = small_run
        again = run_simulation(params, cfg)
        assert again.report.to_kv() == sim.report.to_kv()
        assert again.bob.frames == sim.bob.frames
        assert np.array_equal(again.bob.secret_bits, sim.bob.secret_bits)

    def test_truth_decomposition_totals(self, small_run):
        _params, _cfg, sim = small_run
        r = sim.report
        assert (r.sifted_signal + r.sifted_background + r.sifted_dark
                + r.sifted_mixed) == r.sifted_len
        assert (r.errors_signal + r.errors_background + r.errors_dark
                + r.errors_mixed) == r.true_errors
        assert r.true_ber == pytest.approx(r.true_errors / r.sifted_len)

    def test_verified_session(self, small_run):
        # the verify hash ran and both parties hold the same key
        _params, _cfg, sim = small_run
        assert sim.report.hash_rounds >= 1
        assert np.array_equal(sim.alice.secret_bits, sim.bob.secret_bits)

    def test_sifting_phase_reveals_no_bit_values(self, small_run):
        # up to and including the index exchange the transcript holds only
        # handshake and location messages, worth zero metered bits
        from fsqkd.messages import Kind, decode, leak_meter
        _params, _cfg, sim = small_run
        messages = [decode(frame) for frame in sim.bob.frames]
        sift_at = next(i for i, m in enumerate(messages)
                       if m.kind is Kind.SIFT_INDICES)
        prefix = messages[: sift_at + 1]
        assert {m.kind for m in prefix} == {Kind.HELLO, Kind.SIFT_INDICES}
        assert leak_meter(prefix) == 0


class TestCleanChannelPath:
    def test_zero_estimate_runs_screening_pass(self, clean_run):
        # noiseless link: sampling finds nothing, one cheap parity pass
        # screens the whole key, and the report's infinite efficiency
        # ratio survives serialization
        sim = clean_run
        r = sim.report
        assert r.est_errors == 0
        assert r.hash_rounds == 1
        assert r.recon_passes == 1
        assert r.secret_len > 0
        assert not np.isfinite(r.recon_efficiency)
        parsed = SessionReport.from_kv(r.to_kv())
        assert parsed.recon_efficiency == r.recon_efficiency
        assert np.array_equal(sim.alice.secret_bits, sim.bob.secret_bits)


class TestNoYieldPath:
    def test_dim_source_produces_empty_secret(self, no_yield_run):
        sim = no_yield_run
        assert sim.report.no_yield
        assert sim.report.secret_len == 0
        assert len(sim.alice.secret_bits) == 0
        # a hopeless operating point skips correction: nothing disclosed
        # beyond the estimation sample
        assert sim.report.ec_disclosed_bits == 0
        assert sim.report.recon_passes == 0


class TestSessionConfig:
    def test_sample_fraction_bounds(self):
        with pytest.raises(ValueError):
            SessionConfig(sample_fraction=0.6)
        with pytest.raises(ValueError):
            SessionConfig(sample_fraction=0.0)

    def test_minimum_passes(self):
        with pytest.raises(ValueError):
            SessionConfig(passes=1)

    def test_maximum_passes(self):
        # each agreed pass sizes both parties' pass tables before pass 1
        assert SessionConfig(passes=32).passes == 32
        with pytest.raises(ValueError, match=r"\[2, 32\]"):
            SessionConfig(passes=33)


class TestReportSerialization:
    def test_kv_round_trip(self, small_run):
        _params, _cfg, sim = small_run
        text = sim.report.to_kv()
        parsed = SessionReport.from_kv(text)
        assert parsed.to_kv() == text
        assert parsed.sifted_len == sim.report.sifted_len
        assert parsed.est_ber == sim.report.est_ber

    def test_kv_ignores_comments_and_blanks(self):
        report = SessionReport(session="ff" * 16, pulses=10, sifted_len=5)
        text = "# comment\n\n" + report.to_kv()
        assert SessionReport.from_kv(text).pulses == 10

    def test_session_id_is_stable(self):
        params = ProtocolParams(rng_seed=9)
        cfg = SessionConfig(pulses=1000, block_size=500)
        assert session_hex(params, cfg, 9) == session_hex(params, cfg, 9)
        assert session_hex(params, cfg, 9) != session_hex(params, cfg, 10)
        assert len(session_hex(params, cfg, 9)) == 32


class TestHostilePeer:
    """A receiver that breaks the protocol's rules gets an Abort from Alice."""

    PARAMS = ProtocolParams(rng_seed=4)
    CFG = SessionConfig(pulses=1000, block_size=500, timeout_s=5.0)

    @classmethod
    def _start_alice(cls, digest):
        """Start Alice and answer her Hello with ``digest``; returns Bob's
        end, Alice's end, her thread and the dict her exception lands in."""
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def alice():
            try:
                run_alice(a_end, cls.PARAMS, cls.CFG)
            except Exception as exc:
                errors["a"] = exc

        thread = threading.Thread(target=alice)
        thread.start()
        b_end.expect(Kind.HELLO)
        b_end.send(Hello(version=PROTOCOL_VERSION, params_digest=digest, seed=4))
        return b_end, a_end, thread, errors

    @classmethod
    def _alice_against_fake_bob(cls, ticks):
        """Start Alice, play Bob's Hello and SiftIndices."""
        started = cls._start_alice(session_digest(cls.PARAMS, cls.CFG))
        started[0].send(SiftIndices(indices=np.asarray(ticks, dtype=np.int64)))
        return started

    @staticmethod
    def _expect_abort(b_end, thread, reason_part):
        with pytest.raises(SessionAborted, match=reason_part) as info:
            b_end.expect()
        assert not info.value.local
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_hello_with_another_digest_aborts(self):
        # a peer configured differently would derive other raw bits and
        # price the key differently: Alice ends the session at its Hello
        digest = bytearray(session_digest(self.PARAMS, self.CFG))
        digest[5] ^= 0x10
        b_end, a_end, thread, errors = self._start_alice(bytes(digest))
        self._expect_abort(b_end, thread, "session configuration mismatch")
        assert isinstance(errors["a"], SessionAborted)
        # her Hello, the peer's and her Abort: nothing after the mismatch
        assert [m.kind for m in decoded(a_end)] == [Kind.HELLO, Kind.HELLO, Kind.ABORT]

    def _older_hello_aborts(self, version):
        a_end, b_end = loopback_pair(timeout_s=5.0)
        errors = {}

        def bob():
            try:
                run_bob(b_end, self.PARAMS, self.CFG)
            except SessionAborted as exc:
                errors["b"] = exc

        thread = threading.Thread(target=bob)
        thread.start()
        a_end.send(Hello(version=version, params_digest=session_digest(self.PARAMS, self.CFG)))
        self._expect_abort(a_end, thread,
                           f"protocol version mismatch: peer {version}, local 6")
        assert errors["b"].local
        assert PROTOCOL_VERSION == 6

    def test_version_4_hello_aborts(self):
        # version 4 announced each pass in its own frames; a peer still
        # speaking it ends at its Hello
        self._older_hello_aborts(4)

    def test_version_5_hello_aborts(self):
        # version 5 drew Alice's raw bits from one stream per pulse block,
        # so its raw bits differ; such a peer ends at its Hello
        self._older_hello_aborts(5)

    def test_extra_pass_after_a_matching_hash_aborts(self, monkeypatch):
        # the hash matched, so the plan has no extra pass: an ExtraPass in
        # the place of the PaSeed ends the session
        monkeypatch.setattr("fsqkd.session.PaSeed", lambda **kw: ExtraPass(
            seed=kw["seed"], parities=np.zeros(1, dtype=np.uint8)))
        params, cfg, _digests = GOLDEN["nbar0.5-seed417"]
        with pytest.raises(SessionAborted, match="expected PaSeed, got ExtraPass"):
            run_simulation(params, cfg)

    @pytest.mark.parametrize("payload", [
        PaSeed(seed=1, output_length=0, est_num=5, est_den=1),
        Schedule(est_num=3, est_den=2, seeds=(1,), parities=np.zeros(1, dtype=np.uint8)),
    ], ids=["PaSeed", "Schedule"])
    def test_estimate_above_one_aborts(self, payload):
        b_end, _a_end, thread, errors = self._alice_against_fake_bob(np.arange(0, 1000, 10))
        b_end.send(payload)
        self._expect_abort(b_end, thread, "exceeds one")
        assert isinstance(errors["a"], ProtocolError)

    def test_sample_of_the_whole_key_aborts(self):
        # 100 sifted bits: the agreed sample is 10 of them, not all 100
        b_end, a_end, thread, errors = self._alice_against_fake_bob(np.arange(0, 1000, 10))
        b_end.send(SampleRequest(positions=np.arange(100, dtype=np.int64)))
        self._expect_abort(b_end, thread, "agreed 10")
        assert isinstance(errors["a"], SessionAborted)
        assert Kind.SAMPLE_REVEAL not in {m.kind for m in decoded(a_end)}

    @pytest.mark.parametrize("ticks, sample, est_num, est_den", [
        # 100 sifted bits, a 10-bit sample and an estimate of 1/2
        (np.arange(0, 1000, 10), np.arange(10), 5, 10),
        # one sifted bit: the agreed one-bit sample leaves an empty key
        ([7], [0], 0, 1),
    ], ids=["hopeless-estimate", "empty-key"])
    def test_correction_without_possible_yield_aborts(self, ticks, sample, est_num, est_den):
        b_end, _a_end, thread, errors = self._alice_against_fake_bob(ticks)
        b_end.send(SampleRequest(positions=np.asarray(sample, dtype=np.int64)))
        b_end.expect(Kind.SAMPLE_REVEAL)
        b_end.send(Schedule(est_num=est_num, est_den=est_den, seeds=(1,),
                            parities=np.zeros(1, dtype=np.uint8)))
        self._expect_abort(b_end, thread, "no yield is possible")
        assert isinstance(errors["a"], SessionAborted)

    @pytest.mark.parametrize("sample, error, reason", [
        # 100 sifted bits, 10 of them revealed, an estimate over 1000
        (np.arange(10), SessionAborted, "estimate over 1000 bits, 10 sampled"),
        # the same estimate with no sample taken at all
        (None, ProtocolError, "expected SampleRequest, got Schedule"),
    ], ids=["unchecked-sample-size", "no-sample"])
    def test_estimate_not_over_the_revealed_sample_aborts(self, sample, error, reason):
        # both parties price privacy amplification from the estimate, so it
        # must be over exactly the bits Alice revealed
        b_end, _a_end, thread, errors = self._alice_against_fake_bob(np.arange(0, 1000, 10))
        if sample is not None:
            b_end.send(SampleRequest(positions=sample.astype(np.int64)))
            b_end.expect(Kind.SAMPLE_REVEAL)
        b_end.send(Schedule(est_num=0, est_den=1000, seeds=(1,),
                            parities=np.zeros(1, dtype=np.uint8)))
        self._expect_abort(b_end, thread, reason)
        assert isinstance(errors["a"], error)

    def test_sift_tick_out_of_range_aborts(self):
        # tick 1000 of a 1000-pulse session names no pulse Alice sent
        b_end, _a_end, thread, errors = self._alice_against_fake_bob([5, 1000])
        self._expect_abort(b_end, thread, "out of range")
        assert isinstance(errors["a"], SessionAborted)

    def test_more_ids_than_pulses_aborts(self):
        # 3000 strictly increasing ids cannot all name one of 1000 pulses;
        # the list takes the chunked array decoder before the range check
        start = time.monotonic()
        b_end, _a_end, thread, errors = self._alice_against_fake_bob(np.arange(3000))
        self._expect_abort(b_end, thread, "out of range of 1000 pulses")
        assert isinstance(errors["a"], SessionAborted)
        assert time.monotonic() - start < 5.0

    def test_pa_estimate_differing_from_correction_aborts(self, monkeypatch):
        # Bob echoes the estimate he corrected under in PaSeed; a different
        # one there is a plan Alice did not agree to
        monkeypatch.setattr("fsqkd.session.PaSeed", lambda **kw: PaSeed(
            **{**kw, "est_den": kw["est_den"] + 1}))
        params = ProtocolParams(mean_photon_number=0.5, rng_seed=417)
        cfg = SessionConfig(pulses=200_000, block_size=50_000, timeout_s=5.0,
                            sample_fraction=0.05)
        with pytest.raises(SessionAborted, match="differs from the correction estimate"):
            run_simulation(params, cfg)


class TestFaultInjection:
    """A frame that the codec or the transport sees damaged (duplicated,
    truncated or reordered) ends the session with a ProtocolError on the
    receiving side and an Abort to the sender, within the timeout.

    A field changed in transit and canonically re-encoded, such as
    ``PaSeed.seed``, decodes cleanly and goes undetected until the
    parties close on a transcript digest (ROADMAP item 7b)."""

    @staticmethod
    def _session_with_damage(sender, damage):
        """Run both engines over loopback; ``sender``'s frame number i goes
        out as the frames ``damage(i, frame)`` returns.  Returns each
        party's exception."""
        params = ProtocolParams(mean_photon_number=0.5, rng_seed=417)
        cfg = SessionConfig(pulses=200_000, block_size=50_000, timeout_s=5.0,
                            sample_fraction=0.05)
        a_end, b_end = loopback_pair(timeout_s=cfg.timeout_s)
        damaged_end = {"alice": a_end, "bob": b_end}[sender]
        send_frame, sent = damaged_end._send_frame, itertools.count()

        def send_damaged(frame):
            for out in damage(next(sent), frame):
                send_frame(out)

        damaged_end._send_frame = send_damaged
        errors = {}

        def party(name, engine, endpoint):
            try:
                engine(endpoint, params, cfg)
            except Exception as exc:
                errors[name] = exc

        threads = [threading.Thread(target=party, args=("alice", run_alice, a_end)),
                   threading.Thread(target=party, args=("bob", run_bob, b_end))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=2 * cfg.timeout_s)
        assert not any(thread.is_alive() for thread in threads)
        return errors

    def _expect_receiver_error(self, sender, damage, reason):
        errors = self._session_with_damage(sender, damage)
        receiver = "bob" if sender == "alice" else "alice"
        assert isinstance(errors[receiver], ProtocolError)
        assert reason in str(errors[receiver])
        assert isinstance(errors[sender], SessionAborted)
        assert not errors[sender].local and reason in errors[sender].reason

    # frame 4 is mid-session: Bob's first bisection reply, or Alice's third
    # bisection query
    @pytest.mark.parametrize("sender", ["alice", "bob"])
    @pytest.mark.parametrize("damage, reason", [
        (lambda i, frame: [frame, frame] if i == 4 else [frame], "sequence regression"),
        (lambda i, frame: [frame[:-3]] if i == 4 else [frame], "length prefix does not match"),
    ], ids=["duplicated", "truncated"])
    def test_damaged_frame_mid_session_aborts(self, sender, damage, reason):
        self._expect_receiver_error(sender, damage, reason)

    def test_reordered_frames_abort(self):
        # Bob's SiftIndices (frame 1) arrives after his SampleRequest; only
        # Bob ever sends two frames in a row (his Hello, SiftIndices and
        # SampleRequest), so only his can be swapped
        held = []

        def swap(i, frame):
            if i == 1:
                held.append(frame)
                return []
            return [frame, *held] if i == 2 else [frame]

        self._expect_receiver_error("bob", swap, "got SampleRequest")


GOLDEN_CASES = [
    pytest.param(ProtocolParams(mean_photon_number=0.5, rng_seed=417),
                 SessionConfig(pulses=200_000, block_size=50_000,
                               sample_fraction=0.05),
                 {"frames": "95317cd8f376b066c509f0a79b6300672c5f8a96c67526f626204b0295779ad7",
                  "report": "b3a41ff70ca279b536ee6f13e79143e51adeaa6efffa2804f8a55d0b43ce2070",
                  "key": "c1e960430b2bf51323d098da1d443d86329401a656bcacb2b8af9c7a34e0cf65",
                  "bisection": "b69aba4349c4524d45bd832ea391a5125d2cfc7e7764507d4ee668ab62b36bf5"},
                 id="nbar0.5-seed417"),
    pytest.param(ProtocolParams(), SessionConfig(),
                 {"frames": "cd37e0ea3c05393ae55872075a8770bb063771bef9b0abd324c5a95d95b7807c",
                  "report": "d5abff35897049de43ce12809cdc769ed0e1333ac21707e4f61ad0e642da21f5",
                  "key": "66c3ad8fd08b6bd933050222fe19c0bc7839b481c1aa1b0f499a734e7f0d356b",
                  "bisection": "ab2cea053eb4624e660c297ef0100a1c320ef24437930eb2757359c6634a2f63"},
                 id="defaults"),
    pytest.param(ProtocolParams(mean_photon_number=0.02, rng_seed=3),
                 SessionConfig(pulses=200_000),
                 {"frames": "1b5806adf68faaaf9f04c2d652add25506bcc530078826645f6b70205dd007aa",
                  "report": "aa0f5e9f329600c1dad461814f3ad7b5d7c54c83340f92c21749f5b5eedec881",
                  "key": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                  "bisection": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
                 id="dim-no-yield"),
    pytest.param(ProtocolParams(mean_photon_number=0.35, eta_system_mean=0.5,
                                eta_system_sigma=0.0, rng_seed=1),
                 SessionConfig(pulses=200_000),
                 {"frames": "b61bdf5648c9feab9495b5150943fbcc4c125289553b029684fa8b128ca232f8",
                  "report": "64dc8a21a8370251e1486c533dd88d79be1fdbce17607674983981a2a4627de8",
                  "key": "300a5e6f7e2e5af31abc30de743535327f8f33936c4f74f02767c70e384ca924",
                  "bisection": "510d1e12c8bfca4a1ae1a17632370013cc09ba3f1ff9e37cbc789f872840e0f9"},
                 id="efficient-link-with-key"),
]


GOLDEN = {case.id: case.values for case in GOLDEN_CASES}


@functools.lru_cache(maxsize=None)
def golden_run(params, cfg):
    return run_simulation(params, cfg)


def sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def session_digests(sim) -> dict:
    """sha256 of Bob's transcript frames, of the report and of his packed key."""
    return {"frames": sha256(*sim.bob.frames),
            "report": sha256(sim.report.to_kv().encode()),
            "key": key_sha256(sim)}


def key_sha256(sim):
    return sha256(np.packbits(sim.bob.secret_bits).tobytes())


def replays(sim, digests) -> bool:
    """The session's frames, report and key are the pinned ones."""
    return session_digests(sim) == {name: digests[name] for name in ("frames", "report", "key")}


class TestGoldenReplay:
    """Sessions replay to fixed bytes: transcript frames, report and key.

    Each is pinned apart: sha256 over every frame of Bob's transcript, over
    ``report.to_kv()`` and over his packed secret key, so a change shows
    which of the three it moved.  The last case yields 1903 secret bits and
    the defaults 1267, so privacy amplification is covered.  The digests
    were recorded with numpy 2.4.6, whose generators fix the draws, at
    ``PROTOCOL_VERSION`` 6: each random family (channel efficiencies,
    gate draws, Alice's raw bits) reads one stream for the whole session,
    which moved every digest.  A change
    that deliberately alters keys or frames updates these digests in that
    same change.  The key digests and the bisection exchange (each query's
    pass and ids and Bob's answers, pinned apart from any wire layout)
    move only with the keys or the Cascade decisions.
    """

    @pytest.mark.parametrize("params, cfg, digests", GOLDEN_CASES)
    def test_session_bytes(self, params, cfg, digests):
        sim = golden_run(params, cfg)
        assert sim.alice.frames == sim.bob.frames
        got = session_digests(sim)
        assert {name: got[name] for name in ("frames", "report")} == \
            {name: digests[name] for name in ("frames", "report")}

    @pytest.mark.parametrize("params, cfg, digests", GOLDEN_CASES)
    def test_secret_key_bytes(self, params, cfg, digests):
        """sha256 of the packed secret key alone.  A change to the wire
        format or the report leaves these digests as they are; only a
        change to the keys themselves may move them."""
        sim = golden_run(params, cfg)
        assert np.array_equal(sim.alice.secret_bits, sim.bob.secret_bits)
        assert key_sha256(sim) == digests["key"]

    @pytest.mark.parametrize("params, cfg, digests", GOLDEN_CASES)
    def test_bisection_exchange(self, params, cfg, digests):
        """Every query's pass and ids and Bob's answer bits, in order: the
        Cascade decisions, whatever frames carry them."""
        sim = golden_run(params, cfg)
        assert bisection_sha256(decode(frame) for frame in sim.bob.frames) == \
            digests["bisection"]

    def test_defaults_round_trips(self):
        # a change that adds a frame or a round trip to a default session
        # fails here before it shows in the benchmark
        params, cfg, _digests = GOLDEN["defaults"]
        messages = [decode(frame) for frame in golden_run(params, cfg).bob.frames]
        queries = [m for m in messages if m.kind is Kind.SYNDROME
                   and m.payload.is_query and len(m.payload.blocks)]
        assert (len(messages), len(queries)) == (138, 63)


def party_outcomes(params, cfg) -> dict:
    """Run both engines over loopback; return each party's frames, its
    report, and its packed key or the reason its session aborted (an
    aborted party has no report)."""
    ends = dict(zip(("alice", "bob"), loopback_pair(timeout_s=cfg.timeout_s)))
    reports, outcomes = {}, {}

    def party(name, engine):
        try:
            result = engine(ends[name], params, cfg)
            reports[name] = result.report.to_kv().encode()
            outcomes[name] = np.packbits(result.secret_bits).tobytes()
        except SessionAborted as exc:
            reports[name] = b""
            outcomes[name] = f"abort local={exc.local}: {exc.reason}".encode()

    threads = [threading.Thread(target=party, args=("alice", run_alice)),
               threading.Thread(target=party, args=("bob", run_bob))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=2 * cfg.timeout_s)
    return {"frames": [b"".join(ends[name].frames) for name in ends],
            "reports": [reports[name] for name in ends],
            "outcomes": [outcomes[name] for name in ends]}


class TestShortSessions:
    """300 default sessions of 50k pulses (seeds 1000-1299) replay to fixed
    bytes: sha256 over both parties' frames, over their reports, and over
    their keys or abort reasons, each pinned apart.

    17 of them end in the extra-pass abort ("corrected keys still differ
    after extra pass"), the short-session aborts a FOUND line of CHANGES.md
    names (22 at ``PROTOCOL_VERSION`` 5, whose draws differed); no golden
    session reaches that path.  ROADMAP item 1 changes
    the plan those sessions correct under and mends the aborts, and then
    re-records these digests on purpose.  A change to the wire alone moves
    the frame digest, and the report digest only through the reports'
    ``protocol_version`` line.
    """

    def test_both_parties_bytes(self):
        digests = {part: hashlib.sha256() for part in ("frames", "reports", "outcomes")}
        aborts = 0
        for seed in range(1000, 1300):
            parts = party_outcomes(ProtocolParams(rng_seed=seed), SessionConfig(pulses=50_000))
            aborts += parts["outcomes"][-1].startswith(b"abort")
            for part, values in parts.items():
                for value in values:
                    digests[part].update(value)
        assert aborts == 17
        assert {part: digest.hexdigest() for part, digest in digests.items()} == {
            "frames": "4a6bbd8495e992647901b5d88248429c424f9e11645c1b1a66eaf38023996318",
            "reports": "349b65cff359907be65a13cd034e1fe34820ca46a491e79f92fba5be7c85ca34",
            "outcomes": "1e0cc364d9f388e95e73816b267bd5cf3727dcf013cafb96eb89a1d48a6befcf",
        }


def recount_disclosure(endpoint) -> int:
    """Bits an endpoint's frames disclose, counted apart from ``leak_meter``."""
    total = 0
    for message in decoded(endpoint):
        if message.kind in (Kind.SCHEDULE, Kind.EXTRA_PASS):
            total += len(message.payload.parities)
        elif message.kind in (Kind.SYNDROME, Kind.SAMPLE_REVEAL):
            total += len(message.payload.bits)
    return total


def capture_endpoints(monkeypatch) -> list:
    """Make ``run_simulation``'s loopback pairs land in the returned list,
    Alice's end first."""
    ends = []

    def capturing(**kwargs):
        pair = loopback_pair(**kwargs)
        ends.extend(pair)
        return pair

    monkeypatch.setattr("fsqkd.session.loopback_pair", capturing)
    return ends


class TestDisclosureMeter:
    """Each endpoint counts what its frames disclose as they pass."""

    @pytest.mark.parametrize("case, keyed", [("nbar0.5-seed417", True),
                                             ("dim-no-yield", False)])
    def test_endpoint_count_matches_recount_and_report(self, monkeypatch, case, keyed):
        ends = capture_endpoints(monkeypatch)
        params, cfg, _digests = GOLDEN[case]
        sim = run_simulation(params, cfg)
        assert (sim.report.secret_len > 0) == keyed
        for end, result in zip(ends, (sim.alice, sim.bob)):
            report = result.report
            assert end.disclosed_bits == recount_disclosure(end) == report.disclosed_bits
            assert report.disclosed_bits == report.ec_disclosed_bits + report.sampled_bits
            assert (report.ec_disclosed_bits > 0) == keyed
            assert result.frames is end.frames


class TestDeadArrays:
    def test_sift_indices_freed_before_reconciliation(self, monkeypatch):
        # each endpoint kept every decoded message, so Alice's decoded
        # indices and Bob's ticks lived to the end of the session
        import fsqkd.session as session

        session_sift, session_bob_receive = session.sift, session.bob_receive
        session_reconcile = session.reconcile
        refs, alive = {}, {}

        def sift(raw_bits, indices):
            refs["alice"] = weakref.ref(indices)
            return session_sift(raw_bits, indices)

        def bob_receive(batch):
            ticks, bits = session_bob_receive(batch)
            refs["bob"] = weakref.ref(ticks)
            return ticks, bits

        def reconcile(key, endpoint, passes, role, *args, **kwargs):
            gc.collect()
            alive[role] = refs[role]() is not None
            return session_reconcile(key, endpoint, passes, role, *args, **kwargs)

        monkeypatch.setattr(session, "sift", sift)
        monkeypatch.setattr(session, "bob_receive", bob_receive)
        monkeypatch.setattr(session, "reconcile", reconcile)
        params, cfg, digests = GOLDEN["nbar0.5-seed417"]
        assert replays(run_simulation(params, cfg), digests)
        assert alive == {"alice": False, "bob": False}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no thread affinity on this platform")
class TestEnginePlacement:
    """run_simulation keeps both engine threads on the CPU its caller runs
    on; the placement never changes a session or the caller's own CPUs."""

    def test_both_engines_run_on_one_cpu(self, monkeypatch):
        seen = {}

        def recording(name, engine):
            def wrapper(*args):
                seen[name] = os.sched_getaffinity(0)
                return engine(*args)
            return wrapper

        monkeypatch.setattr("fsqkd.session.run_alice", recording("alice", run_alice))
        monkeypatch.setattr("fsqkd.session.run_bob", recording("bob", run_bob))
        params, cfg, digests = GOLDEN["nbar0.5-seed417"]
        assert replays(run_simulation(params, cfg), digests)
        assert len(seen["alice"]) == 1 and seen["alice"] == seen["bob"]
        assert seen["alice"] <= os.sched_getaffinity(0)

    def test_caller_affinity_unchanged(self, monkeypatch):
        before = os.sched_getaffinity(0)
        params, cfg, _digests = GOLDEN["nbar0.5-seed417"]
        assert run_simulation(params, cfg).report.secret_len > 0
        assert os.sched_getaffinity(0) == before
        # an aborting session: Bob's PaSeed names an estimate he did not use
        monkeypatch.setattr("fsqkd.session.PaSeed", lambda **kw: PaSeed(
            **{**kw, "est_den": kw["est_den"] + 1}))
        with pytest.raises(SessionAborted):
            run_simulation(params, cfg)
        assert os.sched_getaffinity(0) == before

    def test_failed_pin_leaves_the_session_as_it_is(self, monkeypatch):
        calls = []

        def refuse(pid, cpus):
            calls.append(cpus)
            raise OSError("pinning refused")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        params, cfg, digests = GOLDEN["defaults"]
        sim = run_simulation(params, cfg)
        assert len(calls) == 2
        assert replays(sim, digests)

    @pytest.mark.parametrize("stat, cpu", [
        (OSError("no such file"), None),
        (b"1 (py) R 0", None),
        # the command name may hold spaces and parentheses of its own
        (b"7 (a) b) S" + b" 0" * 35 + b" 1 0", 1),
    ], ids=["unreadable", "short", "name-with-spaces"])
    def test_cpu_read(self, monkeypatch, stat, cpu):
        def fake_open(*args):
            if isinstance(stat, Exception):
                raise stat
            return io.BytesIO(stat)

        monkeypatch.setattr("fsqkd.session.open", fake_open, raising=False)
        assert _caller_cpu() == cpu

    def test_concurrent_sessions(self):
        # two callers at once put four engine threads on two CPUs or fewer;
        # a short switch interval makes the threads trade the GIL often
        cases = [GOLDEN["nbar0.5-seed417"], GOLDEN["efficient-link-with-key"]]
        results = {}

        def caller(i, params, cfg):
            results[i] = run_simulation(params, cfg)

        threads = [threading.Thread(target=caller, args=(i, params, cfg))
                   for i, (params, cfg, _digests) in enumerate(cases)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i, (_params, _cfg, digests) in enumerate(cases):
            assert replays(results[i], digests)
