import dataclasses
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsqkd.bitpack import (
    _CHUNK,
    _SCALAR_MAX,
    decode_bit_list,
    decode_index_list,
    decode_varint,
    encode_bit_list,
    encode_index_list,
    encode_varint,
)
from fsqkd.messages import (
    Abort,
    Done,
    ExtraPass,
    Hello,
    MAX_PAYLOAD_BYTES,
    Kind,
    Message,
    MessageFormatError,
    PaSeed,
    PayloadTooLarge,
    SampleRequest,
    SampleReveal,
    Schedule,
    SiftIndices,
    Syndrome,
    VerifyHash,
    decode,
    encode,
    leak_meter,
    message_for,
)
from fsqkd.rng import stream
from fsqkd.transport import ProtocolError, loopback_pair


# one valid payload of every kind, in ``Kind`` order
SAMPLES = [
    Hello(version=1, params_digest=bytes(range(16)), seed=2**63 - 1),
    SiftIndices(indices=np.array([3, 7, 9], dtype=np.int64)),
    SampleRequest(positions=np.array([0, 5], dtype=np.int64)),
    SampleReveal(bits=np.array([1, 0, 1, 1, 0], dtype=np.uint8)),
    Schedule(est_num=3, est_den=100, seeds=(12345, 2**64 - 1),
             parities=np.array([0, 1, 1, 1, 0], dtype=np.uint8)),
    ExtraPass(seed=7, parities=np.array([0, 1, 1], dtype=np.uint8)),
    Syndrome(pass_no=1, blocks=np.array([2, 9], dtype=np.int64),
             bits=np.array([1, 0, 1, 0, 1, 1, 0, 0, 1, 1], dtype=np.uint8)),
    VerifyHash(seed=99, digest=bytes(16), nbits=128),
    PaSeed(seed=77, output_length=4096),
    Abort(reason="because"),
    Done(),
]


def _frame(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def _raw(kind: Kind, payload: bytes, seq: bytes = b"\x00") -> bytes:
    """A frame of ``kind``, its seq spelled ``seq``, around ``payload``."""
    return _frame(bytes([list(Kind).index(kind) + 1]) + seq + payload)


def _assert_rejected(frame: bytes, reason: str) -> None:
    """``decode`` refuses ``frame``, and an endpoint that receives it
    raises and answers with an Abort."""
    with pytest.raises(MessageFormatError, match=reason):
        decode(frame)
    a_end, b_end = loopback_pair()
    b_end._inbox.put(frame)
    with pytest.raises(ProtocolError, match=reason):
        b_end.recv()
    assert a_end.recv().kind is Kind.ABORT


def _roundtrip(message):
    again = decode(encode(message))
    assert again == message
    return again


class TestRoundTrip:
    def test_abort_empty_reason(self):
        _roundtrip(Message(0, Kind.ABORT, Abort(reason="")))

    def test_every_kind_roundtrips(self):
        for i, payload in enumerate(SAMPLES):
            _roundtrip(message_for(seq=i, payload=payload))

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
                payload = Schedule(est_num=int(rng.integers(0, min(500, est_den + 1))),
                                   est_den=est_den,
                                   seeds=tuple(int(v) for v in rng.integers(
                                       0, 2**63, int(rng.integers(1, 9)))),
                                   parities=rng.integers(0, 2, int(rng.integers(1, 200))).astype(np.uint8))
            elif kind == 3:
                payload = ExtraPass(seed=int(rng.integers(0, 2**63)),
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
            _roundtrip(message_for(trial, payload))

    def test_frame_layout(self):
        # body length 2; kind 11 (Done); seq 3; an empty payload
        assert encode(Message(3, Kind.DONE, Done())) == bytes.fromhex("00000002 0b 03")

    def test_oversized_payload_rejected(self):
        bits = np.zeros(2**24 * 8 + 64, dtype=np.uint8)
        with pytest.raises(PayloadTooLarge):
            encode(message_for(0, SampleReveal(bits=bits)))
        # a one-byte seq leaves room under the body limit for a payload
        # nine bytes longer than any ``encode`` writes
        with pytest.raises(MessageFormatError, match="exceeds"):
            decode(_raw(Kind.ABORT, bytes(MAX_PAYLOAD_BYTES + 1)))

    def test_truncated_fixed_width_payloads_rejected(self):
        intact = encode(message_for(0, Hello(version=1, params_digest=bytes(16), seed=7)))
        body = decode(intact)
        assert body.payload.seed == 7
        for cls, data in [(Hello, b"\x01" + bytes(10)),
                          (Schedule, b"\x00\x00\x02" + bytes(15)),
                          (ExtraPass, bytes(7)),
                          (VerifyHash, b"\x80\x01" + bytes(4)),
                          (PaSeed, bytes(5))]:
            with pytest.raises(MessageFormatError):
                cls.unpack(data)

    @pytest.mark.parametrize("payload", [
        Schedule(est_num=3, est_den=2, seeds=(1,), parities=np.zeros(1, dtype=np.uint8)),
        PaSeed(seed=1, output_length=0, est_num=1, est_den=0),
    ], ids=["Schedule", "PaSeed"])
    def test_error_estimate_above_one_rejected(self, payload):
        # a rate above one has no binary entropy; 0/0 (an empty sample) is legal
        with pytest.raises(MessageFormatError, match="exceeds one"):
            decode(encode(message_for(0, payload)))
        legal = dataclasses.replace(payload, est_num=0, est_den=0)
        _roundtrip(message_for(0, legal))

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

    def test_decode_peak_is_its_output(self):
        # a 0.95 MiB SiftIndices body of 1M one-byte ids: the decoder's
        # peak is its 8-byte-per-id output plus scratch of fixed size
        # (54 MiB when the whole list was decoded at once)
        count = 1_000_000
        raw = SiftIndices(indices=np.arange(count)).pack(bytearray())
        assert len(raw) == count + 3
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            decoded = SiftIndices.unpack(raw)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.array_equal(decoded.indices, np.arange(count))
        assert peak <= 8 * count + 2 * 2**20

    def test_encode_peak_is_its_output(self):
        # 1M one-byte ids: the encoder's peak is its output once, in the
        # bytearray it appends to with that array's growth slack, plus
        # scratch of fixed size per chunk (2.07 MB when it returned a bytes
        # copy of the bytearray it filled)
        count = 1_000_000
        indices = np.arange(count)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            encoded = encode_index_list(indices, bytearray())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(encoded) == count + 3
        assert peak <= 1.125 * len(encoded) + 0.75 * 2**20

    def test_frame_encode_peak(self):
        # A SiftIndices frame of 1M one-byte ids: length, kind, seq and
        # payload in one bytearray the index codec appends to, with that
        # array's growth slack, and the frame's bytes copied out of it.
        # 3.05 MB while the payload went out as base64, which binascii
        # writes into a buffer of two bytes per payload byte before
        # trimming it.
        count = 1_000_000
        message = message_for(1, SiftIndices(indices=np.arange(count)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            frame = encode(message)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # prefix, kind, seq, then the count in three bytes and the ids
        assert len(frame) == 4 + 1 + 1 + 3 + count
        assert peak <= 2.25 * count


PROTOCOL_MD = (Path(__file__).resolve().parents[1] / "PROTOCOL.md").read_text()


def _doc_hex(text: str) -> bytes:
    return bytes.fromhex(text.replace(" ", "").replace("\n", ""))


# The text headers of version 6, which a version 7 decoder refuses at
# their first byte, "s": no kind code.  The ids name how each strayed
# from version 6's own canonical spelling.
_VERSION_6_HEADERS = {
    "hex-prefix-signed-underscore": "sid=0x1 seq=+1_0",
    "uppercase-sid": "sid=00000000000000AB seq=0",
    "leading-zero-seq": "sid=00000000000000ab seq=01",
    "negative-seq": "sid=00000000000000ab seq=-1",
    "underscore-seq": "sid=00000000000000ab seq=1_0",
    "double-space": "sid=00000000000000ab seq= 1",
    "21-digit-seq": "sid=00000000000000ab seq=" + "1" * 21,
    "15-digit-sid": "sid=0000000000000ab seq=0",
    "17-digit-sid": "sid=000000000000000ab seq=0",
    "reordered": "seq=0 sid=00000000000000ab",
    "version-6": "sid=0000000000000000 seq=0",
}

# a Done frame, byte by byte, and how each reject below strays from it
_DONE = bytes([11])
_HEADER_REJECTS = {
    **{name: (_frame(f"{header} kind=Done payload=".encode("ascii")), "unknown kind code 115")
       for name, header in _VERSION_6_HEADERS.items()},
    "kind-0": (_frame(b"\x00\x00"), "unknown kind code 0"),
    "kind-12": (_frame(b"\x0c\x00"), "unknown kind code 12"),
    "overlong-seq": (_frame(_DONE + b"\x80\x00"), "overlong varint"),
    "seq-2**64": (_frame(_DONE + b"\x80" * 9 + b"\x02"), "not below 2\\*\\*64"),
    "no-kind-byte": (_frame(b""), "shorter than its kind byte"),
    "no-seq": (_frame(_DONE), "truncated varint"),
    "trailing-byte": (_frame(_DONE + b"\x00\x00"), "after the last field"),
}


class TestCanonicalHeader:
    """A header, the kind byte and then the seq as a varint, has one
    spelling: a kind code from 1 to 11, and a seq below 2**64 in its
    fewest bytes.  Nothing follows the payload's last field."""

    @pytest.mark.parametrize("frame, reason", _HEADER_REJECTS.values(), ids=_HEADER_REJECTS)
    def test_rejected(self, frame, reason):
        _assert_rejected(frame, reason)

    @pytest.mark.parametrize("seq", [0, 10, 2**64 - 1])
    def test_canonical_seq_accepted(self, seq):
        frame = encode(message_for(seq, Done()))
        spelled = bytearray()
        encode_varint(seq, spelled)
        assert frame[4:] == _DONE + spelled
        assert decode(frame).seq == seq

    @pytest.mark.parametrize("seq", [-1, 10**20, 2**64])
    def test_unencodable_seq_rejected(self, seq):
        with pytest.raises(MessageFormatError, match="below 2\\*\\*64"):
            message_for(seq, Done())


# one valid frame of every kind, and one with a two-byte seq
FRAMES = [encode(message_for(seq, payload)) for seq, payload in enumerate(SAMPLES)]
FRAMES.append(encode(message_for(300, SAMPLES[6])))


@st.composite
def _mutations(draw):
    """A valid frame with one body byte replaced, inserted or deleted; the
    length prefix follows, so only the body changed."""
    frame = bytearray(draw(st.sampled_from(FRAMES)))
    at = draw(st.integers(4, len(frame) - 1))
    edit = draw(st.sampled_from(["replace", "insert", "delete"]))
    if edit == "delete":
        del frame[at]
    else:
        byte = draw(st.integers(0, 255))
        if edit == "insert":
            frame.insert(at, byte)
        else:
            frame[at] = byte
    frame[:4] = (len(frame) - 4).to_bytes(4, "big")
    return bytes(frame)


class TestCanonicalPayload:
    """A payload has one spelling too: bit lists pad with zeros and varints
    carry no zero last group, so every frame ``decode`` accepts is the one
    ``encode`` gives for its message."""

    def test_canonical_one_bit_reveal_decodes(self):
        # one bit ``1``: count 00 00 00 01, then 80 (padding 0000000)
        message = decode(_raw(Kind.SAMPLE_REVEAL, b"\x00\x00\x00\x01\x80"))
        assert message.payload == SampleReveal(bits=np.array([1], dtype=np.uint8))

    @pytest.mark.parametrize("payload, reason", [
        (b"\x00\x00\x00\x01\x81", "padding bits"),  # padding 0000001
    ], ids=["bit-list-padding"])
    def test_noncanonical_payload_rejected(self, payload, reason):
        with pytest.raises(MessageFormatError, match=reason):
            decode(_raw(Kind.SAMPLE_REVEAL, payload))

    def test_overlong_varint_rejected(self):
        # pass number 1 spelled in two bytes, then an empty id list and an
        # empty bit list
        with pytest.raises(MessageFormatError, match="overlong varint"):
            decode(_raw(Kind.SYNDROME, b"\x81\x00" + bytes(5)))
        for n in (3, 100):  # short and long index lists
            with pytest.raises(ValueError, match="overlong varint"):
                decode_index_list(bytes([n]) + b"\x01" * (n - 1) + b"\x81\x00", 0)

    @settings(max_examples=2000)
    @given(st.one_of(_mutations(),
                     st.builds(lambda code, rest: _frame(bytes([code]) + rest),
                               st.integers(0, 12), st.binary(max_size=40)),
                     st.binary(max_size=40)))
    @example(_raw(Kind.SAMPLE_REVEAL, b"\x00\x00\x00\x01\x80"))
    @example(_raw(Kind.DONE, b"", seq=b"\xff" * 9 + b"\x01"))
    def test_canonical_check_matches_a_full_reencode(self, frame):
        # the checks decoding makes accept exactly the frames that encoding
        # the decoded message again gives back
        try:
            message = decode(frame)
        except MessageFormatError:
            return
        assert encode(message) == frame

    def test_endpoint_aborts_on_noncanonical_payload(self):
        _assert_rejected(_raw(Kind.SAMPLE_REVEAL, b"\x00\x00\x00\x01\x81"), "padding bits")


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
        assert encode_index_list(np.array(indices, dtype=np.int64), bytearray()) == _doc_hex(index_hex)
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
        expected = [
            Message(0, Kind.ABORT, Abort(reason="")),
            Message(4, Kind.SIFT_INDICES,
                    SiftIndices(indices=np.array([3, 7, 9], dtype=np.int64))),
            Message(8, Kind.SYNDROME,
                    Syndrome(pass_no=1, blocks=np.array([2, 5, 9], dtype=np.int64),
                             bits=np.zeros(0, dtype=np.uint8))),
            Message(9, Kind.SYNDROME,
                    Syndrome(pass_no=1, blocks=np.zeros(0, dtype=np.int64),
                             bits=np.array([1, 0, 1], dtype=np.uint8))),
            Message(300, Kind.SCHEDULE,
                    Schedule(est_num=3, est_den=100, seeds=(1, 2),
                             parities=np.array([1, 0, 1, 1, 0], dtype=np.uint8))),
        ]
        assert len(frames) == len(expected)
        for frame, message in zip(frames, expected):
            assert encode(message) == frame
            assert decode(frame) == message


class TestDeltaCoding:
    def test_delta_form(self):
        # the count, then the first index and the gaps: [3, 7, 9] -> 3, 3, 4, 2
        indices = np.array([3, 7, 9])
        assert list(encode_index_list(indices, bytearray())) == [3, *np.diff(indices, prepend=0)]

    def test_empty(self):
        assert encode_index_list(np.array([], dtype=np.int64), bytearray()) == b"\x00"


class TestLeakMeter:
    def test_three_parities_cost_three_bits(self):
        # the Schedule's parities of both its passes, then the extra pass's
        transcript = [
            message_for(0, Schedule(est_num=1, est_den=9, seeds=(4, 5),
                                       parities=np.array([1, 0], dtype=np.uint8))),
            message_for(1, ExtraPass(seed=6, parities=np.array([1], dtype=np.uint8))),
        ]
        assert leak_meter(transcript) == 3

    def test_syndrome_costs_its_length(self):
        msg = message_for(0, Syndrome(pass_no=1, blocks=np.array([0], dtype=np.int64),
                                         bits=np.array([1, 0, 1, 1], dtype=np.uint8)))
        assert leak_meter([msg]) == 4

    def test_sifting_transcript_is_free(self):
        transcript = [
            message_for(0, Hello(version=1, params_digest=bytes(16), seed=5)),
            message_for(1, SiftIndices(indices=np.arange(0, 5000, 7, dtype=np.int64))),
            message_for(2, Schedule(est_num=0, est_den=0, seeds=(1, 2),
                                       parities=np.zeros(0, dtype=np.uint8))),
            message_for(3, PaSeed(seed=9, output_length=100)),
            message_for(4, VerifyHash(seed=2, digest=bytes(16), nbits=128)),
            message_for(5, Done()),
        ]
        assert leak_meter(transcript) == 0

    def test_syndrome_query_is_free(self):
        query = message_for(0, Syndrome(pass_no=1, blocks=np.array([4], dtype=np.int64),
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
_kinds = st.sampled_from(list(Kind))


class TestIndexCodecProperties:
    @given(_indices, st.binary(max_size=8))
    def test_decode_inverts_encode(self, indices, trailer):
        encoded = encode_index_list(np.array(indices, dtype=np.int64), bytearray())
        decoded, offset = decode_index_list(encoded + trailer, 0)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == indices
        assert offset == len(encoded)

    @given(_indices)
    def test_bytes_match_scalar_reference(self, indices):
        assert encode_index_list(np.array(indices, dtype=np.int64), bytearray()) == \
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
        # the int64 difference of the last two wraps to +6
        list(range(100)) + [2**63 - 1, -2**63 + 5],
    ], ids=["repeat", "negative", "decreasing",
            "long-repeat", "long-negative", "long-decreasing", "long-wrapped-negative"])
    def test_encode_rejects_non_increasing(self, indices):
        with pytest.raises(ValueError):
            encode_index_list(np.array(indices, dtype=np.int64), bytearray())


@st.composite
def _delta_lists(draw, sizes=st.integers(0, 600)):
    """Deltas of a strictly increasing index list below 2**63: the first
    may be 0, every later one is at least 1, and each is at most 2**63 - 1."""
    size, width = draw(sizes), draw(st.integers(0, 63))
    drawn = draw(st.lists(st.integers(1, 2**width), min_size=size, max_size=size))
    deltas, total = [], -1
    for i, delta in enumerate(drawn):
        # leave room below 2**63 for the deltas still to come
        delta = min(delta, 2**63 - 1 - total - (size - 1 - i))
        deltas.append(delta)
        total += delta
    if deltas:
        deltas[0] -= 1
    return deltas


def _varint_reference(value: int) -> bytes:
    out = bytearray()
    encode_varint(value, out)
    return bytes(out)


class TestIndexCodecAcrossThreshold:
    """Lists of every length around ``_SCALAR_MAX``, where the codec switches
    between its per-byte loop and its array code, against one
    ``encode_varint`` call per delta."""

    AROUND = st.sampled_from([_SCALAR_MAX - 1, _SCALAR_MAX, _SCALAR_MAX + 1])

    @given(_delta_lists(st.one_of(AROUND, st.integers(0, 600))))
    @example([])
    @example([0] + [1] * (_SCALAR_MAX - 1))
    @example([2**63 - 1])
    def test_bytes_match_reference_and_decode_inverts(self, deltas):
        indices = np.cumsum(np.array(deltas, dtype=np.uint64)).astype(np.int64)
        encoded = encode_index_list(indices, bytearray())
        assert encoded == _varint_reference(len(deltas)) + b"".join(
            _varint_reference(d) for d in deltas)
        decoded, offset = decode_index_list(encoded + b"\x05", 0)
        assert decoded.dtype == np.int64
        assert decoded.tolist() == indices.tolist() and offset == len(encoded)

    @staticmethod
    def _spell(deltas, at, spelling):
        return _varint_reference(len(deltas)) + b"".join(
            spelling if i == at else _varint_reference(d) for i, d in enumerate(deltas))

    @given(_delta_lists(AROUND), st.data())
    def test_truncated(self, deltas, data):
        encoded = self._spell(deltas, -1, b"")
        cut = data.draw(st.integers(len(_varint_reference(len(deltas))), len(encoded) - 1))
        with pytest.raises(ValueError):
            decode_index_list(encoded[:cut], 0)

    @given(_delta_lists(AROUND), st.data())
    def test_overlong(self, deltas, data):
        at = data.draw(st.integers(0, len(deltas) - 1))
        plain = _varint_reference(deltas[at])
        spelling = plain[:-1] + bytes([plain[-1] | 0x80, 0])
        with pytest.raises(ValueError, match="overlong varint|varint too long"):
            decode_index_list(self._spell(deltas, at, spelling), 0)

    @given(_delta_lists(AROUND), st.data())
    def test_zero_delta(self, deltas, data):
        at = data.draw(st.integers(1, len(deltas) - 1))
        with pytest.raises(ValueError, match="not strictly increasing"):
            decode_index_list(self._spell(deltas, at, b"\x00"), 0)

    @given(_delta_lists(AROUND), st.data())
    def test_beyond_int64(self, deltas, data):
        at = data.draw(st.integers(0, len(deltas) - 1))
        # the running index reaches 2**63 here, or the delta alone does
        reach = 2**63 - sum(deltas[:at])
        delta = data.draw(st.integers(reach, 2**64 - 1))
        with pytest.raises(ValueError, match="beyond 2\\*\\*63"):
            decode_index_list(self._spell(deltas, at, _varint_reference(delta)), 0)


class TestIndexCodecChunks:
    """Lists around the array code's chunk size, ``_CHUNK`` ids per encode
    chunk and ``_CHUNK`` payload bytes per decode chunk.  With one-byte
    gaps, id ``k * _CHUNK`` is the first varint of decode chunk k."""

    @staticmethod
    def _deltas(n, gaps):
        rng = stream(n, "chunk-deltas")
        if gaps == "one-byte":
            deltas = rng.integers(1, 128, n)
        elif gaps == "mixed":
            # widths of 1 to 7 bytes, so varints straddle the chunk edges
            deltas = rng.integers(1, 2 ** rng.integers(1, 49, n), dtype=np.int64)
        else:
            return TestIndexCodecChunks._wide_deltas(rng, n)
        deltas[0] = 0
        return deltas

    @staticmethod
    def _wide_deltas(rng, n):
        """One-byte gaps, but 8- and 9-byte ones around every chunk edge.

        The sum must stay below 2**63, so the wide varints sit where the
        chunks meet: the ids within four of a multiple of ``_CHUNK`` (encode
        chunks), and the bytes from 40 below to 24 above a multiple of
        ``_CHUNK`` (decode chunks: each ends at most eight bytes short of its
        window, so edge k lies at most 8k bytes below ``k * _CHUNK``).  Their
        last columns and continuation bits then fall on both sides of the
        edges.
        """
        deltas = rng.integers(1, 128, n)
        at = 0
        for i in range(n):
            if (at + 40) % _CHUNK < 64 or (i + 4) % _CHUNK < 8:
                nine = rng.random() < 0.5
                deltas[i] = rng.integers(2**56, 2**57) if nine else rng.integers(2**49, 2**56)
                at += 9 if nine else 8
            else:
                at += 1
        deltas[0] = 0
        # the last delta takes the list to the largest index there is
        deltas[-1] = 2**63 - 1 - int(deltas[:-1].sum())
        return deltas

    @pytest.mark.parametrize("gaps", ["one-byte", "mixed", "wide"])
    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
    def test_bytes_match_reference_and_decode_inverts(self, n, gaps):
        deltas = self._deltas(n, gaps)
        indices = np.cumsum(deltas)
        encoded = encode_index_list(indices, bytearray())
        assert encoded == _varint_reference(n) + b"".join(
            _varint_reference(d) for d in deltas.tolist())
        decoded, offset = decode_index_list(encoded + b"\x05", 0)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, indices) and offset == len(encoded)

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("spelling, message", [
        (b"\x80", "truncated varint"),
        (b"\x81\x00", "overlong varint"),
        (b"\x80" * 11 + b"\x01", "varint too long"),
        (b"\xff" * 9 + b"\x01", "beyond 2\\*\\*63"),
        (b"\x00", "not strictly increasing"),
    ], ids=["truncated", "overlong", "too-long", "beyond-int64", "zero-delta"])
    def test_reject_at_first_varint_of_a_later_chunk(self, chunk, spelling, message):
        at = chunk * _CHUNK
        tail = b"" if message == "truncated varint" else b"\x01" * 7
        data = _varint_reference(at + 1 + len(tail)) + b"\x01" * at + spelling + tail
        with pytest.raises(ValueError, match=message):
            decode_index_list(data, 0)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_sum_beyond_int64_through_the_carried_sum(self, chunk):
        # the delta alone is below 2**63; only with the sum carried from
        # the earlier chunks does the index reach it
        at = chunk * _CHUNK
        data = (_varint_reference(at + 2) + b"\x01" * at
                + _varint_reference(2**63 - at) + b"\x01")
        with pytest.raises(ValueError, match="beyond 2\\*\\*63"):
            decode_index_list(data, 0)
        # one less is the largest index there is
        data = _varint_reference(at + 1) + b"\x01" * at + _varint_reference(2**63 - 1 - at)
        assert decode_index_list(data, 0)[0][-1] == 2**63 - 1


_varints = st.integers(0, 2**64)
_u64s = st.integers(0, 2**64 - 1)
_index_arrays = _indices.map(lambda v: np.array(v, dtype=np.int64))
_bit_arrays = st.lists(st.integers(0, 1), max_size=100).map(
    lambda v: np.array(v, dtype=np.uint8))


@st.composite
def _schedules(draw):
    est_den = draw(_varints)
    return Schedule(est_num=draw(st.integers(0, est_den)), est_den=est_den,
                    seeds=tuple(draw(st.lists(_u64s, max_size=40))), parities=draw(_bit_arrays))


@st.composite
def _pa_seeds(draw):
    est_den = draw(_varints)
    return PaSeed(seed=draw(_u64s), output_length=draw(_varints),
                  est_num=draw(st.integers(0, est_den)), est_den=est_den)


PAYLOADS = {
    Kind.HELLO: st.builds(Hello, version=_varints,
                          params_digest=st.binary(min_size=16, max_size=16), seed=_u64s),
    Kind.SIFT_INDICES: st.builds(SiftIndices, indices=_index_arrays),
    Kind.SAMPLE_REQUEST: st.builds(SampleRequest, positions=_index_arrays),
    Kind.SAMPLE_REVEAL: st.builds(SampleReveal, bits=_bit_arrays),
    Kind.SCHEDULE: _schedules(),
    Kind.EXTRA_PASS: st.builds(ExtraPass, seed=_u64s, parities=_bit_arrays),
    Kind.SYNDROME: st.builds(Syndrome, pass_no=_varints, blocks=_index_arrays,
                             bits=_bit_arrays),
    # the digest is 16 bytes whatever nbits says; Alice rejects any nbits
    # but 128 after decoding
    Kind.VERIFY_HASH: st.builds(VerifyHash, seed=_u64s,
                                digest=st.binary(min_size=16, max_size=16), nbits=_varints),
    Kind.PA_SEED: _pa_seeds(),
    Kind.ABORT: st.builds(Abort, reason=st.text(max_size=40)),
    Kind.DONE: st.just(Done()),
}


class TestEveryKind:
    @pytest.mark.parametrize("kind", list(Kind), ids=lambda kind: kind.value)
    @settings(max_examples=50)
    @given(data=st.data(), seq=_u64s)
    def test_decode_inverts_encode(self, kind, data, seq):
        message = message_for(seq, data.draw(PAYLOADS[kind]))
        assert message.kind is kind
        assert decode(encode(message)) == message

    # an Abort's reason runs to the end of its payload, so it has no
    # bytes after its last field
    @pytest.mark.parametrize("payload", [p for p in SAMPLES if not isinstance(p, Abort)],
                             ids=lambda p: type(p).__name__)
    def test_byte_after_last_field_rejected(self, payload):
        data = payload.pack(bytearray()) + b"\x00"
        with pytest.raises(MessageFormatError, match="after the last field"):
            type(payload).unpack(data)
        _assert_rejected(_raw(message_for(0, payload).kind, data), "after the last field")

    @pytest.mark.parametrize("payload, message", [
        (Hello(version=3, params_digest=bytes(15)), "16 bytes"),
        (VerifyHash(seed=1, digest=bytes(15), nbits=128), "16 bytes"),
        (VerifyHash(seed=1, digest=bytes(17), nbits=128), "16 bytes"),
    ], ids=["Hello-15-byte-digest", "VerifyHash-digest-short", "VerifyHash-digest-long"])
    def test_pack_rejects_digest_of_wrong_length(self, payload, message):
        with pytest.raises(MessageFormatError, match=message):
            payload.pack(bytearray())

    def test_verify_hash_of_a_long_digest_is_malformed(self):
        # a 2^20-bit request with its 2^17 digest bytes: the 16-byte digest
        # field leaves the rest over, so the frame fails to decode before
        # anyone hashes
        raw = bytearray()
        encode_varint(2**20, raw)
        raw += (1).to_bytes(8, "big") + bytes(2**17)
        _assert_rejected(_raw(Kind.VERIFY_HASH, raw), "after the last field")


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
    @example(Kind.SIFT_INDICES, b"\x01" + b"\xff" * 9 + b"\x01")
    def test_arbitrary_payloads(self, kind, payload):
        self._decode(_raw(kind, payload))

    @given(st.integers(0, 255), st.binary(max_size=120))
    def test_arbitrary_bodies(self, code, tail):
        self._decode(_frame(bytes([code]) + tail))

    @given(st.lists(st.integers(0, 2**80), max_size=20), st.integers(0, 25))
    def test_index_lists_of_wide_varints(self, gaps, count):
        payload = _leb128(count) + b"".join(_leb128(g) for g in gaps)
        self._decode(_raw(Kind.SIFT_INDICES, payload))
