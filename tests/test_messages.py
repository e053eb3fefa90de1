import base64
import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsqkd.bitpack import (
    decode_bit_list,
    decode_index_list,
    decode_varint,
    encode_bit_list,
    encode_index_list,
    encode_varint,
)
from fsqkd.messages import (
    Abort,
    BlockParity,
    Done,
    Hello,
    Kind,
    Message,
    MessageFormatError,
    PaSeed,
    PayloadTooLarge,
    SampleRequest,
    SampleReveal,
    ShuffleSeed,
    SiftIndices,
    Syndrome,
    VerifyHash,
    decode,
    decode_body,
    encode,
    leak_meter,
    message_for,
)
from fsqkd.transport import ProtocolError, loopback_pair


# one valid payload of every kind, in ``Kind`` order
SAMPLES = [
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


def _roundtrip(message):
    again = decode(encode(message))
    assert again == message
    return again


class TestRoundTrip:
    def test_abort_empty_reason(self):
        _roundtrip(Message(1, 0, Kind.ABORT, Abort(reason="")))

    def test_every_kind_roundtrips(self):
        for i, payload in enumerate(SAMPLES):
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
                est_den = int(rng.integers(1, 10_001))
                payload = ShuffleSeed(pass_no=int(rng.integers(1, 9)),
                                      seed=int(rng.integers(0, 2**63)),
                                      block_size=int(rng.integers(8, 4097)),
                                      est_num=int(rng.integers(0, min(500, est_den + 1))),
                                      est_den=est_den)
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

    @pytest.mark.parametrize("payload", [
        ShuffleSeed(pass_no=1, seed=1, block_size=8, est_num=3, est_den=2),
        PaSeed(seed=1, output_length=0, est_num=1, est_den=0),
    ], ids=["ShuffleSeed", "PaSeed"])
    def test_error_estimate_above_one_rejected(self, payload):
        # a rate above one has no binary entropy; 0/0 (an empty sample) is legal
        from fsqkd.messages import MessageFormatError
        with pytest.raises(MessageFormatError, match="exceeds one"):
            decode(encode(message_for(1, 0, payload)))
        legal = dataclasses.replace(payload, est_num=0, est_den=0)
        _roundtrip(message_for(1, 0, legal))

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


PROTOCOL_MD = (Path(__file__).resolve().parents[1] / "PROTOCOL.md").read_text()


def _doc_hex(text: str) -> bytes:
    return bytes.fromhex(text.replace(" ", "").replace("\n", ""))


class TestCanonicalHeader:
    """A header has one spelling: tokens in the order sid, seq, kind,
    payload; ``sid`` as 16 lowercase hex digits; ``seq`` as a decimal of at
    most 20 digits without sign, underscores or leading zeros."""

    @pytest.mark.parametrize("header", [
        "sid=0x1 seq=+1_0",
        "sid=00000000000000AB seq=0",
        "sid=00000000000000ab seq=01",
        "sid=00000000000000ab seq=-1",
        "sid=00000000000000ab seq=1_0",
        "sid=00000000000000ab seq= 1",
        "sid=00000000000000ab seq=" + "1" * 21,
        "sid=0000000000000ab seq=0",
        "sid=000000000000000ab seq=0",
        "seq=0 sid=00000000000000ab",
    ], ids=["hex-prefix-signed-underscore", "uppercase-sid", "leading-zero-seq",
            "negative-seq", "underscore-seq", "double-space", "21-digit-seq",
            "15-digit-sid", "17-digit-sid", "reordered"])
    def test_rejected(self, header):
        body = f"{header} kind=Done payload=".encode("ascii")
        with pytest.raises(MessageFormatError, match="malformed header"):
            decode_body(body)
        # an endpoint answers it with an Abort
        a_end, b_end = loopback_pair()
        b_end._inbox.put(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ProtocolError, match="malformed header"):
            b_end.recv()
        assert a_end.recv().kind is Kind.ABORT

    @pytest.mark.parametrize("seq", [0, 10, 10**20 - 1])
    def test_canonical_seq_accepted(self, seq):
        frame = encode(message_for(0xAB, seq, Done()))
        assert frame[4:] == f"sid=00000000000000ab seq={seq} kind=Done payload=".encode()
        assert decode(frame).seq == seq

    @pytest.mark.parametrize("seq", [-1, 10**20])
    def test_unencodable_seq_rejected(self, seq):
        with pytest.raises(MessageFormatError, match="20 digits"):
            message_for(0, seq, Done())


class TestCanonicalPayload:
    """A payload has one spelling too: canonical base64 of a body whose
    bit lists pad with zeros and whose varints carry no zero last group."""

    HEADER = b"sid=0000000000000000 seq=0 kind=SampleReveal payload="

    def test_canonical_one_bit_reveal_decodes(self):
        # one bit ``1``: count 00 00 00 01, then 80 (padding 0000000)
        message = decode_body(self.HEADER + b"AAAAAYA=")
        assert message.payload == SampleReveal(bits=np.array([1], dtype=np.uint8))

    @pytest.mark.parametrize("payload, reason", [
        (b"AAAAAYB=", "not canonical base64"),  # unused low bits of the last group
        (b"AAAA====", "not canonical base64"),  # padding after a full group
        (b"AAAAAYE=", "padding bits"),          # padding 0000001
    ], ids=["base64-trailing-bits", "base64-extra-padding", "bit-list-padding"])
    def test_noncanonical_payload_rejected(self, payload, reason):
        with pytest.raises(MessageFormatError, match=reason):
            decode_body(self.HEADER + payload)

    def test_overlong_varint_rejected(self):
        # pass number 1 spelled in two bytes, then an empty parity list
        payload = base64.b64encode(b"\x81\x00" + bytes(4))
        with pytest.raises(MessageFormatError, match="overlong varint"):
            decode_body(b"sid=0000000000000000 seq=0 kind=BlockParity payload=" + payload)
        for n in (3, 100):  # short and long index lists
            with pytest.raises(ValueError, match="overlong varint"):
                decode_index_list(bytes([n]) + b"\x01" * (n - 1) + b"\x81\x00", 0)

    def test_endpoint_aborts_on_noncanonical_payload(self):
        body = self.HEADER + b"AAAAAYE="
        a_end, b_end = loopback_pair()
        b_end._inbox.put(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ProtocolError, match="padding bits"):
            b_end.recv()
        assert a_end.recv().kind is Kind.ABORT


class TestProtocolDocument:
    """The examples in ``PROTOCOL.md`` are the bytes the code emits."""

    def test_primitive_examples(self):
        value, varint_hex = re.search(r"Example: `(\d+) -> ([0-9a-f ]+)`", PROTOCOL_MD).groups()
        out = bytearray()
        encode_varint(int(value), out)
        assert bytes(out) == _doc_hex(varint_hex)
        assert decode_varint(_doc_hex(varint_hex), 0) == (int(value), len(out))

        listed, index_hex = re.search(r"Example: `\[([\d, ]+)\] -> ([0-9a-f ]+)`",
                                      PROTOCOL_MD).groups()
        indices = [int(v) for v in listed.split(",")]
        assert encode_index_list(np.array(indices, dtype=np.int64)) == _doc_hex(index_hex)
        decoded, _ = decode_index_list(_doc_hex(index_hex), 0)
        assert decoded.tolist() == indices

        bits, bit_hex = re.search(r"Example: bits `([01]+) -> ([0-9a-f ]+)`", PROTOCOL_MD).groups()
        bit_array = np.array([int(b) for b in bits], dtype=np.uint8)
        assert encode_bit_list(bit_array) == _doc_hex(bit_hex)
        decoded, _ = decode_bit_list(_doc_hex(bit_hex), 0)
        assert decoded.tolist() == bit_array.tolist()

    def test_worked_example_frames(self):
        section = PROTOCOL_MD.split("## Worked examples", 1)[1].split("\n## ", 1)[0]
        frames = [_doc_hex(block) for block in re.findall(r"```\n(.*?)```", section, re.S)]
        sid = 0x1F2E3D4C5B6A7988
        expected = [
            Message(sid, 0, Kind.ABORT, Abort(reason="")),
            Message(sid, 4, Kind.SIFT_INDICES,
                    SiftIndices(indices=np.array([3, 7, 9], dtype=np.int64))),
            Message(sid, 9, Kind.SYNDROME,
                    Syndrome(pass_no=1, blocks=np.array([2, 5, 9], dtype=np.int64),
                             bits=np.array([1, 0, 1], dtype=np.uint8))),
        ]
        assert len(frames) == len(expected)
        for frame, message in zip(frames, expected):
            assert encode(message) == frame
            assert decode(frame) == message


class TestDeltaCoding:
    def test_delta_form(self):
        # the count, then the first index and the gaps: [3, 7, 9] -> 3, 3, 4, 2
        indices = np.array([3, 7, 9])
        assert list(encode_index_list(indices)) == [3, *np.diff(indices, prepend=0)]

    def test_empty(self):
        assert encode_index_list(np.array([], dtype=np.int64)) == b"\x00"


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


_varints = st.integers(0, 2**64)
_u64s = st.integers(0, 2**64 - 1)
_index_arrays = _indices.map(lambda v: np.array(v, dtype=np.int64))
_bit_arrays = st.lists(st.integers(0, 1), max_size=100).map(
    lambda v: np.array(v, dtype=np.uint8))


@st.composite
def _shuffle_seeds(draw):
    est_den = draw(_varints)
    return ShuffleSeed(pass_no=draw(_varints), seed=draw(_u64s), block_size=draw(_varints),
                       est_num=draw(st.integers(0, est_den)), est_den=est_den)


@st.composite
def _pa_seeds(draw):
    est_den = draw(_varints)
    return PaSeed(seed=draw(_u64s), output_length=draw(_varints),
                  est_num=draw(st.integers(0, est_den)), est_den=est_den)


@st.composite
def _verify_hashes(draw):
    nbits = draw(st.integers(0, 300))
    digest = draw(st.binary(min_size=(nbits + 7) // 8, max_size=(nbits + 7) // 8))
    return VerifyHash(seed=draw(_u64s), digest=digest, nbits=nbits)


PAYLOADS = {
    Kind.HELLO: st.builds(Hello, version=_varints,
                          params_digest=st.binary(min_size=16, max_size=16), seed=_u64s),
    Kind.SIFT_INDICES: st.builds(SiftIndices, indices=_index_arrays),
    Kind.SAMPLE_REQUEST: st.builds(SampleRequest, positions=_index_arrays),
    Kind.SAMPLE_REVEAL: st.builds(SampleReveal, bits=_bit_arrays),
    Kind.SHUFFLE_SEED: _shuffle_seeds(),
    Kind.BLOCK_PARITY: st.builds(BlockParity, pass_no=_varints, parities=_bit_arrays),
    Kind.SYNDROME: st.builds(Syndrome, pass_no=_varints, blocks=_index_arrays,
                             bits=_bit_arrays),
    Kind.VERIFY_HASH: _verify_hashes(),
    Kind.PA_SEED: _pa_seeds(),
    Kind.ABORT: st.builds(Abort, reason=st.text(max_size=40)),
    Kind.DONE: st.just(Done()),
}


class TestEveryKind:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda kind: kind.value)
    @settings(max_examples=50)
    @given(data=st.data(), session_id=_u64s, seq=st.integers(0, 2**64))
    def test_decode_inverts_encode(self, kind, data, session_id, seq):
        message = message_for(session_id, seq, data.draw(PAYLOADS[kind]))
        assert message.kind is kind
        assert decode(encode(message)) == message

    # an Abort's reason runs to the end of its payload, so it has no
    # bytes after its last field
    @pytest.mark.parametrize("payload", [p for p in SAMPLES if not isinstance(p, Abort)],
                             ids=lambda p: type(p).__name__)
    def test_byte_after_last_field_rejected(self, payload):
        data = payload.pack() + b"\x00"
        with pytest.raises(MessageFormatError, match="after the last field"):
            type(payload).unpack(data)
        kind = message_for(0, 0, payload).kind
        body = (f"sid={0:016x} seq=0 kind={kind.value} payload=".encode("ascii")
                + base64.b64encode(data))
        a_end, b_end = loopback_pair()
        b_end._inbox.put(len(body).to_bytes(4, "big") + body)
        with pytest.raises(ProtocolError, match="after the last field"):
            b_end.recv()
        assert a_end.recv().kind is Kind.ABORT

    @pytest.mark.parametrize("payload, message", [
        (Hello(version=3, params_digest=bytes(15)), "16 bytes"),
        (VerifyHash(seed=1, digest=bytes(16), nbits=129), "inconsistent with nbits"),
        (VerifyHash(seed=1, digest=bytes(16), nbits=120), "inconsistent with nbits"),
    ], ids=["Hello-15-byte-digest", "VerifyHash-digest-short", "VerifyHash-digest-long"])
    def test_pack_rejects_digest_of_wrong_length(self, payload, message):
        with pytest.raises(MessageFormatError, match=message):
            payload.pack()


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
