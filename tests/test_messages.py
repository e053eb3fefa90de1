import tracemalloc

import numpy as np
import pytest

from fsqkd.bitpack import delta_encode
from fsqkd.messages import (
    Abort,
    BlockParity,
    Done,
    Hello,
    Kind,
    Message,
    PaSeed,
    PayloadTooLarge,
    SampleRequest,
    SampleReveal,
    ShuffleSeed,
    SiftIndices,
    Syndrome,
    VerifyHash,
    decode,
    encode,
    leak_meter,
    message_for,
)


def _roundtrip(message):
    again = decode(encode(message))
    assert again == message
    return again


class TestRoundTrip:
    def test_abort_empty_reason(self):
        _roundtrip(Message(1, 0, Kind.ABORT, Abort(reason="")))

    def test_every_kind_roundtrips(self):
        samples = [
            Hello(version=1, params_digest=bytes(range(16)), seed=2**63 - 1),
            SiftIndices(indices=np.array([3, 7, 9], dtype=np.int64)),
            SampleRequest(positions=np.array([0, 5], dtype=np.int64)),
            SampleReveal(bits=np.array([1, 0, 1, 1, 0], dtype=np.uint8)),
            ShuffleSeed(pass_no=2, seed=12345, block_size=24, est_num=3, est_den=100),
            BlockParity(pass_no=1, parities=np.array([0, 1, 1], dtype=np.uint8)),
            Syndrome(pass_no=1, blocks=np.array([2, 9], dtype=np.int64),
                     bits=np.array([1, 0, 1, 0, 1, 1, 0, 0, 1, 1], dtype=np.uint8)),
            VerifyHash(seed=99, digest=bytes(16), nbits=128),
            PaSeed(seed=77, output_length=4096),
            Abort(reason="because"),
            Done(),
        ]
        for i, payload in enumerate(samples):
            _roundtrip(message_for(session_id=0xDEADBEEF, seq=i, payload=payload))

    def test_randomized_messages(self):
        # a seeded fuzz sweep over every kind
        rng = np.random.default_rng(99)
        for trial in range(10_000):
            kind = trial % 7
            if kind == 0:
                n = int(rng.integers(0, 50))
                idx = np.unique(rng.integers(0, 10_000, n)).astype(np.int64)
                payload = SiftIndices(indices=idx)
            elif kind == 1:
                payload = SampleReveal(bits=rng.integers(0, 2, int(rng.integers(0, 64))).astype(np.uint8))
            elif kind == 2:
                payload = ShuffleSeed(pass_no=int(rng.integers(1, 9)),
                                      seed=int(rng.integers(0, 2**63)),
                                      block_size=int(rng.integers(8, 4097)),
                                      est_num=int(rng.integers(0, 500)),
                                      est_den=int(rng.integers(1, 10_001)))
            elif kind == 3:
                payload = BlockParity(pass_no=int(rng.integers(1, 9)),
                                      parities=rng.integers(0, 2, int(rng.integers(1, 200))).astype(np.uint8))
            elif kind == 4:
                blocks = np.unique(rng.integers(0, 400, int(rng.integers(0, 12)))).astype(np.int64)
                payload = Syndrome(pass_no=int(rng.integers(1, 9)), blocks=blocks,
                                   bits=rng.integers(0, 2, int(rng.integers(0, 40))).astype(np.uint8))
            elif kind == 5:
                payload = PaSeed(seed=int(rng.integers(0, 2**63)),
                                 output_length=int(rng.integers(0, 100_000)))
            else:
                payload = Abort(reason="x" * int(rng.integers(0, 30)))
            _roundtrip(message_for(int(rng.integers(0, 2**63)), trial, payload))

    def test_frame_layout(self):
        frame = encode(Message(0xAB, 3, Kind.DONE, Done()))
        body_len = int.from_bytes(frame[:4], "big")
        assert len(frame) == 4 + body_len
        assert frame[4:].decode("ascii") == "sid=00000000000000ab seq=3 kind=Done payload="

    def test_oversized_payload_rejected(self):
        bits = np.zeros(2**24 * 8 + 64, dtype=np.uint8)
        with pytest.raises(PayloadTooLarge):
            encode(message_for(1, 0, SampleReveal(bits=bits)))

    def test_unknown_token_rejected(self):
        from fsqkd.messages import MessageFormatError, decode_body
        with pytest.raises(MessageFormatError):
            decode_body(b"sid=0000000000000001 seq=0 kind=Done payload= mac=00")

    def test_truncated_fixed_width_payloads_rejected(self):
        from fsqkd.messages import MessageFormatError
        intact = encode(message_for(1, 0, Hello(version=1, params_digest=bytes(16), seed=7)))
        body = decode(intact)
        assert body.payload.seed == 7
        for cls, data in [(Hello, b"\x01" + bytes(10)),
                          (ShuffleSeed, b"\x01" + bytes(3)),
                          (VerifyHash, b"\x80\x01" + bytes(4)),
                          (PaSeed, bytes(5))]:
            with pytest.raises(MessageFormatError):
                cls.unpack(data)

    def test_index_count_beyond_payload_rejected_before_allocation(self):
        # the varint declares 2**33 indices in a 5-byte payload
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                SiftIndices.unpack(bytes([0x80, 0x80, 0x80, 0x80, 0x20]))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDeltaCoding:
    def test_delta_form(self):
        assert delta_encode(np.array([3, 7, 9])).tolist() == [3, 4, 2]

    def test_empty(self):
        assert delta_encode(np.array([], dtype=np.int64)).tolist() == []


class TestLeakMeter:
    def test_three_parities_cost_three_bits(self):
        transcript = [
            message_for(1, i, BlockParity(pass_no=1, parities=np.array([1], dtype=np.uint8)))
            for i in range(3)
        ]
        assert leak_meter(transcript) == 3

    def test_syndrome_costs_its_length(self):
        msg = message_for(1, 0, Syndrome(pass_no=1, blocks=np.array([0], dtype=np.int64),
                                         bits=np.array([1, 0, 1, 1], dtype=np.uint8)))
        assert leak_meter([msg]) == 4

    def test_sifting_transcript_is_free(self):
        transcript = [
            message_for(1, 0, Hello(version=1, params_digest=bytes(16), seed=5)),
            message_for(1, 1, SiftIndices(indices=np.arange(0, 5000, 7, dtype=np.int64))),
            message_for(1, 2, ShuffleSeed(pass_no=1, seed=1, block_size=16)),
            message_for(1, 3, PaSeed(seed=9, output_length=100)),
            message_for(1, 4, VerifyHash(seed=2, digest=bytes(16), nbits=128)),
            message_for(1, 5, Done()),
        ]
        assert leak_meter(transcript) == 0

    def test_syndrome_query_is_free(self):
        query = message_for(1, 0, Syndrome(pass_no=1, blocks=np.array([4], dtype=np.int64),
                                           bits=np.zeros(0, dtype=np.uint8)))
        assert leak_meter([query]) == 0
