import base64
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsqkd.bitpack import decode_index_list, delta_encode, encode_index_list
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


def _leb128(value: int) -> bytes:
    """Scalar unsigned LEB128, the reference for the vectorized codec."""
    out = bytearray()
    while True:
        group, value = value & 0x7F, value >> 7
        out.append(group | (0x80 if value else 0))
        if not value:
            return bytes(out)


def _index_list_reference(indices: list[int]) -> bytes:
    gaps = [b - a for a, b in zip([0] + indices, indices)]
    return _leb128(len(indices)) + b"".join(_leb128(g) for g in gaps)


_indices = st.sets(st.one_of(st.integers(0, 300), st.integers(0, 2**63 - 1)),
                   max_size=300).map(sorted)
_kinds = st.sampled_from([kind.value for kind in Kind])


class TestIndexCodecProperties:
    @given(_indices, st.binary(max_size=8))
    def test_decode_inverts_encode(self, indices, trailer):
        encoded = encode_index_list(np.array(indices, dtype=np.int64))
        decoded, offset = decode_index_list(encoded + trailer, 0)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == indices
        assert offset == len(encoded)

    @given(_indices)
    def test_bytes_match_scalar_reference(self, indices):
        assert encode_index_list(np.array(indices, dtype=np.int64)) == \
            _index_list_reference(indices)


class TestIndexCodecRejects:
    """Malformed index lists, short (per-varint loop) and long (array code)."""

    @pytest.mark.parametrize("n", [3, 100])
    @pytest.mark.parametrize("last, message", [
        (b"\x80", "truncated varint"),
        (b"\x80" * 11 + b"\x00", "varint too long"),
        (b"\xff" * 9 + b"\x01", "beyond 2\\*\\*63"),
        (b"\x00", "not strictly increasing"),
    ], ids=["truncated", "too-long", "beyond-int64", "repeated"])
    def test_rejected(self, n, last, message):
        data = _leb128(n) + b"\x01" * (n - 1) + last
        with pytest.raises(ValueError, match=message):
            decode_index_list(data, 0)

    @pytest.mark.parametrize("n", [3, 100])
    def test_sum_beyond_int64_rejected(self, n):
        data = _leb128(n) + b"\x01" * (n - 2) + _leb128(2**62) * 2
        with pytest.raises(ValueError, match="beyond"):
            decode_index_list(data, 0)

    @pytest.mark.parametrize("indices", [
        [5, 5], [-1, 3], [4, 2],
        list(range(100)) + [99], [-1] + list(range(100)), list(range(100)) + [50],
    ], ids=["repeat", "negative", "decreasing",
            "long-repeat", "long-negative", "long-decreasing"])
    def test_encode_rejects_non_increasing(self, indices):
        with pytest.raises(ValueError):
            encode_index_list(np.array(indices, dtype=np.int64))


class TestDecodeRejectsOnlyWithValueError:
    """Bytes from a peer either decode or raise ``ValueError``.

    ``MessageFormatError`` is a ``ValueError``; anything else (an
    ``OverflowError``, an ``IndexError``) would escape the endpoint's
    abort handling.
    """

    @staticmethod
    def _decode(frame: bytes) -> None:
        try:
            decode(frame)
        except ValueError:
            pass

    @given(st.binary(max_size=200))
    def test_arbitrary_frames(self, frame):
        self._decode(frame)

    @settings(max_examples=500)
    @given(_kinds, st.binary(max_size=120))
    # one index of 2**63: too large for an int64
    @example("SiftIndices", b"\x01" + b"\xff" * 9 + b"\x01")
    def test_arbitrary_payloads(self, kind, payload):
        body = (f"sid={0:016x} seq=0 kind={kind} payload=".encode("ascii")
                + base64.b64encode(payload))
        self._decode(len(body).to_bytes(4, "big") + body)

    @given(_kinds, st.binary(max_size=120))
    def test_arbitrary_bodies(self, kind, tail):
        body = f"sid={0:016x} seq=0 kind={kind} payload=".encode("ascii") + tail
        self._decode(len(body).to_bytes(4, "big") + body)

    @given(st.lists(st.integers(0, 2**80), max_size=20), st.integers(0, 25))
    def test_index_lists_of_wide_varints(self, gaps, count):
        payload = _leb128(count) + b"".join(_leb128(g) for g in gaps)
        body = (f"sid={0:016x} seq=0 kind=SiftIndices payload=".encode("ascii")
                + base64.b64encode(payload))
        self._decode(len(body).to_bytes(4, "big") + body)
