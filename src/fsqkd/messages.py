"""Typed public-channel messages and their byte-exact wire encoding.

Frame: 4-byte big-endian body length, then the body.  The body is one
ASCII line of a flat key=value record::

    sid=<hex16> seq=<dec> kind=<NAME> payload=<base64>

where the base64 payload wraps a kind-specific packed binary body (see
``PROTOCOL.md`` for the normative layouts and worked hex examples).  Each
payload class lists its body's fields in wire order (``WIRE``), and one
``pack``/``unpack`` pair encodes every kind; bytes after the last field
make a body malformed.  Every field decodes on its own: index lists
travel delta+varint encoded, bit lists as packed bits behind a 32-bit bit
count, and digests (Hello's parameter digest, VerifyHash's 128-bit hash)
as 16 raw bytes.  ``encode`` then ``decode`` is the identity for every
valid message.

A frame is decoded where it lies: the header is matched inside the frame
and the payload's base64 read through a view of it, and the base64 is
held to its one spelling from its length and its last group rather than
by encoding the payload again.  Encoding packs every field into one
buffer and frees it once its base64 is taken.

``leak_meter`` implements the session's disclosure accounting: each kind
names the one field it meters (``METERED``), so block parities cost one
bit each, bisection replies one bit per answered id, sample reveals their
bit count.  Indices, seeds and structure parameters are
key-value-independent and cost nothing; the verification hash is counted
separately in the session report.
"""

from __future__ import annotations

import binascii
import enum
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bitpack import (
    decode_bit_list,
    decode_index_list,
    decode_varint,
    encode_bit_list,
    encode_index_list,
    encode_varint,
)

PROTOCOL_VERSION = 6
MAX_PAYLOAD_BYTES = 2**24


class MessageFormatError(ValueError):
    """Raised when bytes do not form a valid frame or payload."""


class PayloadTooLarge(MessageFormatError):
    pass


class Kind(enum.Enum):
    HELLO = "Hello"
    SIFT_INDICES = "SiftIndices"
    SAMPLE_REQUEST = "SampleRequest"
    SAMPLE_REVEAL = "SampleReveal"
    SCHEDULE = "Schedule"
    EXTRA_PASS = "ExtraPass"
    SYNDROME = "Syndrome"
    VERIFY_HASH = "VerifyHash"
    PA_SEED = "PaSeed"
    ABORT = "Abort"
    DONE = "Done"


# the longest body ``encode`` emits: its header tokens, with a sequence
# number of at most 20 digits, and the base64 of a largest payload
MAX_BODY_BYTES = (len("sid= seq= kind= payload=") + 16 + 20
                  + max(len(kind.value) for kind in Kind)
                  + 4 * ((MAX_PAYLOAD_BYTES + 2) // 3))


def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    if offset + count > len(data):
        raise MessageFormatError("truncated payload body")
    return data[offset : offset + count], offset + count


class _Encoding(NamedTuple):
    """One field's wire form, both ways.

    ``put(out, value)`` appends the value's bytes to ``out``;
    ``get(data, offset)`` returns ``(value, next_offset)``.
    """

    put: Callable[[bytearray, object], None]
    get: Callable[[bytes, int], tuple[object, int]]


def _get_u64(data: bytes, offset: int) -> tuple[int, int]:
    raw, offset = _take(data, offset, 8)
    return int.from_bytes(raw, "big"), offset


def _put_digest16(out: bytearray, value: bytes) -> None:
    if len(value) != 16:
        raise MessageFormatError("digest must be 16 bytes")
    out += value


def _put_u64_list(out: bytearray, values) -> None:
    encode_varint(len(values), out)
    for value in values:
        out += int(value).to_bytes(8, "big")


def _get_u64_list(data: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    count, offset = decode_varint(data, offset)
    # bound the untrusted count by the bytes left before reading any
    end = offset + 8 * count
    if end > len(data):
        raise MessageFormatError("truncated payload body")
    return tuple(int.from_bytes(data[at : at + 8], "big")
                 for at in range(offset, end, 8)), end


# The codec functions are looked up when a field is packed, not bound here,
# so a wrapper installed on this module's names (the benchmark's tracer
# wraps the index codec) sees every call.
VARINT = _Encoding(lambda out, value: encode_varint(value, out),
                   lambda data, offset: decode_varint(data, offset))
U64 = _Encoding(lambda out, value: out.extend(int(value).to_bytes(8, "big")), _get_u64)
U64_LIST = _Encoding(_put_u64_list, _get_u64_list)
DIGEST16 = _Encoding(_put_digest16, lambda data, offset: _take(data, offset, 16))
INDEX_LIST = _Encoding(lambda out, value: encode_index_list(value, out),
                       lambda data, offset: decode_index_list(data, offset))
BIT_LIST = _Encoding(lambda out, value: out.extend(encode_bit_list(value)),
                     lambda data, offset: decode_bit_list(data, offset))
UTF8_REST = _Encoding(lambda out, value: out.extend(value.encode("utf-8")),
                      lambda data, offset: (data[offset:].decode("utf-8"), len(data)))


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _Payload:
    """A payload body: the fields listed in ``WIRE``, in that order.

    ``WIRE`` pairs each field name with its encoding (the table in
    ``PROTOCOL.md``); bytes after the last field make the body malformed.
    ``METERED`` names the bit-list field whose length the payload
    discloses, if any.  Equality compares numpy array fields by content.
    """

    WIRE: tuple[tuple[str, _Encoding], ...] = ()
    METERED: str | None = None

    def pack(self) -> bytearray:
        out = bytearray()
        for name, encoding in self.WIRE:
            encoding.put(out, getattr(self, name))
        return out

    @classmethod
    def unpack(cls, data: bytes):
        fields, offset = {}, 0
        for name, encoding in cls.WIRE:
            fields[name], offset = encoding.get(data, offset)
        if offset != len(data):
            raise MessageFormatError(
                f"{len(data) - offset} bytes after the last field of {cls.__name__}")
        # the sampled error rate of Schedule and PaSeed is at most one;
        # 0/0 is legal: it stands for an empty sample
        if "est_den" in fields and fields["est_num"] > fields["est_den"]:
            raise MessageFormatError(
                f"error estimate {fields['est_num']}/{fields['est_den']} exceeds one")
        return cls(**fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        theirs = vars(other)
        return all(_values_equal(value, theirs[name]) for name, value in vars(self).items())

    __hash__ = None


@dataclass(frozen=True, eq=False)
class Hello(_Payload):
    version: int
    params_digest: bytes
    seed: int = 0

    WIRE = (("version", VARINT), ("params_digest", DIGEST16), ("seed", U64))


@dataclass(frozen=True, eq=False)
class SiftIndices(_Payload):
    indices: np.ndarray

    WIRE = (("indices", INDEX_LIST),)


@dataclass(frozen=True, eq=False)
class SampleRequest(_Payload):
    positions: np.ndarray

    WIRE = (("positions", INDEX_LIST),)


@dataclass(frozen=True, eq=False)
class SampleReveal(_Payload):
    bits: np.ndarray

    WIRE = (("bits", BIT_LIST),)
    METERED = "bits"


@dataclass(frozen=True, eq=False)
class Schedule(_Payload):
    """Every scheduled pass of the correction plan, announced at once.

    The error estimate the plan was sized from rides along once, as an
    exact rational, so both parties derive identical block sizes and
    yield arithmetic; the block sizes themselves follow from the plan.
    ``seeds`` holds each pass's permutation seed, and ``parities`` Bob's
    parity of every block, pass after pass, each in block order.
    """

    est_num: int
    est_den: int
    seeds: tuple[int, ...]
    parities: np.ndarray

    WIRE = (("est_num", VARINT), ("est_den", VARINT), ("seeds", U64_LIST),
            ("parities", BIT_LIST))
    METERED = "parities"


@dataclass(frozen=True, eq=False)
class ExtraPass(_Payload):
    """The plan's extra pass, sent after a hash mismatch: its permutation
    seed and Bob's parity of each of its blocks."""

    seed: int
    parities: np.ndarray

    WIRE = (("seed", U64), ("parities", BIT_LIST))
    METERED = "parities"


@dataclass(frozen=True, eq=False)
class Syndrome(_Payload):
    """Cascade bisection query or reply, sent while pass ``pass_no`` runs.

    A query lists ids and no bits: each id ``(p - 1) * n + i`` asks for
    the parity of the first ``i`` bits of the n-bit key in pass p's
    shuffled order.  The reply lists no ids and one parity bit per id of
    the query, in id order.  A query listing no ids ends correction.
    """

    pass_no: int
    blocks: np.ndarray
    bits: np.ndarray

    WIRE = (("pass_no", VARINT), ("blocks", INDEX_LIST), ("bits", BIT_LIST))
    METERED = "bits"

    @property
    def is_query(self) -> bool:
        return len(self.bits) == 0


@dataclass(frozen=True, eq=False)
class VerifyHash(_Payload):
    seed: int
    digest: bytes
    nbits: int

    WIRE = (("nbits", VARINT), ("seed", U64), ("digest", DIGEST16))


@dataclass(frozen=True, eq=False)
class PaSeed(_Payload):
    """Privacy-amplification plan: shared seed, agreed output length, and
    the error estimate it was derived from, echoed for cross-checking: it
    must equal the estimate ``Schedule`` announced for correction."""

    seed: int
    output_length: int
    est_num: int = 0
    est_den: int = 1

    WIRE = (("seed", U64), ("output_length", VARINT),
            ("est_num", VARINT), ("est_den", VARINT))


@dataclass(frozen=True, eq=False)
class Abort(_Payload):
    reason: str = ""

    WIRE = (("reason", UTF8_REST),)


@dataclass(frozen=True, eq=False)
class Done(_Payload):
    pass


# each kind's value is the name of its payload class
_PAYLOAD_TYPES = {Kind(cls.__name__): cls for cls in _Payload.__subclasses__()}
_KIND_FOR_TYPE = {cls: kind for kind, cls in _PAYLOAD_TYPES.items()}
# a header's kind token: its kind and payload class, in one lookup
_KINDS = {kind.value.encode("ascii"): (kind, cls) for kind, cls in _PAYLOAD_TYPES.items()}
_SID_MASK = 0xFFFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class Message:
    session_id: int
    seq: int
    kind: Kind
    payload: object

    def __post_init__(self) -> None:
        expected = _PAYLOAD_TYPES[self.kind]
        if not isinstance(self.payload, expected):
            raise MessageFormatError(
                f"payload for {self.kind.value} must be {expected.__name__}"
            )
        if not 0 <= self.seq < 10**20:
            raise MessageFormatError(f"seq {self.seq} is not a decimal of at most 20 digits")


def message_for(session_id: int, seq: int, payload) -> Message:
    return Message(session_id, seq, _KIND_FOR_TYPE[type(payload)], payload)


def encode(message: Message) -> bytes:
    raw = message.payload.pack()
    if len(raw) > MAX_PAYLOAD_BYTES:
        raise PayloadTooLarge(f"payload of {len(raw)} bytes exceeds {MAX_PAYLOAD_BYTES}")
    text = binascii.b2a_base64(raw, newline=False)
    # the packed payload is dead once its base64 is taken
    del raw
    header = b"sid=%016x seq=%d kind=%s payload=" % (
        message.session_id & _SID_MASK, message.seq, message.kind.value.encode("ascii"))
    return b"".join(((len(header) + len(text)).to_bytes(4, "big"), header, text))


def decode(frame: bytes) -> Message:
    if len(frame) < 4:
        raise MessageFormatError("frame shorter than its length prefix")
    body_len = int.from_bytes(frame[:4], "big")
    if body_len > MAX_BODY_BYTES:
        raise MessageFormatError(f"frame body of {body_len} bytes exceeds {MAX_BODY_BYTES}")
    if len(frame) != 4 + body_len:
        raise MessageFormatError("frame length prefix does not match body")
    return _decode_at(frame, 4)


def decode_body(body: bytes) -> Message:
    return _decode_at(body, 0)


# The header in its one canonical spelling: tokens in this order, ``sid``
# as 16 lowercase hex digits and ``seq`` as a decimal of at most 20 digits
# without sign, underscores or leading zeros.  The payload is the rest of
# the body, so base64 validation rejects any further token.
_HEADER = re.compile(
    rb"sid=([0-9a-f]{16}) seq=(0|[1-9][0-9]{0,19}) kind=([A-Za-z]+) payload=")


def canonical_base64(text) -> bytes:
    """The bytes that ``text`` spells in standard base64, provided it is
    their one spelling: exactly what ``b64encode`` of them gives.

    Strict decoding admits only the alphabet, with padding at the end
    alone.  What it still lets through is padding beyond what the byte
    count needs, which the length rules out, and set bits in the unused
    low bits of a last group that pads, which encoding the last one or two
    bytes again rules out: every earlier group spells its three bytes in
    one way only.
    """
    raw = binascii.a2b_base64(text, strict_mode=True)
    tail = len(raw) % 3
    if len(text) != 4 * ((len(raw) + 2) // 3) or (
            tail and binascii.b2a_base64(raw[-tail:], newline=False) != bytes(text[-4:])):
        raise ValueError("payload is not canonical base64")
    return raw


def _decode_at(data: bytes, start: int) -> Message:
    """Decode the body that starts at ``data[start]`` and runs to the end."""
    header = _HEADER.match(data, start)
    if header is None:
        raise MessageFormatError(
            "malformed header: expected 'sid=<16 lowercase hex> "
            "seq=<decimal, at most 20 digits, no leading zeros> kind=<name> payload='")
    entry = _KINDS.get(header[3])
    if entry is None:
        raise MessageFormatError(f"invalid body: unknown kind {header[3].decode('ascii')!r}")
    kind, payload_type = entry
    try:
        payload = payload_type.unpack(canonical_base64(memoryview(data)[header.end():]))
    except ValueError as exc:
        raise MessageFormatError(f"invalid body: {exc}") from exc
    return Message(int(header[1], 16), int(header[2]), kind, payload)


def leak_meter(messages) -> int:
    """Count disclosed key-correlated bits over a message transcript."""
    total = 0
    for message in messages:
        metered = message.payload.METERED
        if metered is not None:
            total += len(getattr(message.payload, metered))
    return total
