"""Typed public-channel messages and their byte-exact wire encoding.

Frame: 4-byte big-endian body length, then the body.  The body is one
ASCII line of a flat key=value record::

    sid=<hex16> seq=<dec> kind=<NAME> payload=<base64>

where the base64 payload wraps a kind-specific packed binary body (see
``PROTOCOL.md`` for the normative layouts and worked hex examples).  Each
payload class lists its body's fields in wire order (``WIRE``), and one
``pack``/``unpack`` pair encodes every kind; bytes after the last field
make a body malformed.  Index lists travel delta+varint encoded; bit
lists as packed bits behind a 32-bit bit count.  ``encode`` then
``decode`` is the identity for every valid message.

``leak_meter`` implements the session's disclosure accounting: block
parities cost one bit each, bisection replies one bit per answered id,
sample reveals their bit count.  Indices, seeds and structure parameters
are key-value-independent and cost nothing; the verification hash is
counted separately in the session report.
"""

from __future__ import annotations

import base64
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

PROTOCOL_VERSION = 4
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
    SHUFFLE_SEED = "ShuffleSeed"
    BLOCK_PARITY = "BlockParity"
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

    ``put(out, value, fields)`` appends the value's bytes to ``out``;
    ``get(data, offset, fields)`` returns ``(value, next_offset)``.
    ``fields`` maps the payload's field names to their values (on decode,
    those decoded so far), for lengths that another field fixes.
    """

    put: Callable[[bytearray, object, dict], None]
    get: Callable[[bytes, int, dict], tuple[object, int]]


def _get_u64(data: bytes, offset: int, fields: dict) -> tuple[int, int]:
    raw, offset = _take(data, offset, 8)
    return int.from_bytes(raw, "big"), offset


def _raw_bytes(length_of, mismatch: str) -> _Encoding:
    """Bytes whose count ``length_of(fields)`` both sides know in advance."""

    def put(out: bytearray, value: bytes, fields: dict) -> None:
        if len(value) != length_of(fields):
            raise MessageFormatError(mismatch)
        out += value

    return _Encoding(put, lambda data, offset, fields: _take(data, offset, length_of(fields)))


# The codec functions are looked up when a field is packed, not bound here,
# so a wrapper installed on this module's names (the benchmark's tracer
# wraps the index codec) sees every call.
VARINT = _Encoding(lambda out, value, fields: encode_varint(value, out),
                   lambda data, offset, fields: decode_varint(data, offset))
U64 = _Encoding(lambda out, value, fields: out.extend(int(value).to_bytes(8, "big")),
                _get_u64)
DIGEST16 = _raw_bytes(lambda fields: 16, "params digest must be 16 bytes")
INDEX_LIST = _Encoding(lambda out, value, fields: out.extend(encode_index_list(value)),
                       lambda data, offset, fields: decode_index_list(data, offset))
BIT_LIST = _Encoding(lambda out, value, fields: out.extend(encode_bit_list(value)),
                     lambda data, offset, fields: decode_bit_list(data, offset))
UTF8_REST = _Encoding(lambda out, value, fields: out.extend(value.encode("utf-8")),
                      lambda data, offset, fields: (data[offset:].decode("utf-8"), len(data)))
HASH_DIGEST = _raw_bytes(lambda fields: (fields["nbits"] + 7) // 8,
                         "digest length inconsistent with nbits")


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _Payload:
    """A payload body: the fields listed in ``WIRE``, in that order.

    ``WIRE`` pairs each field name with its encoding (the table in
    ``PROTOCOL.md``); bytes after the last field make the body malformed.
    Equality compares numpy array fields by content.
    """

    WIRE: tuple[tuple[str, _Encoding], ...] = ()

    def pack(self) -> bytes:
        fields = vars(self)
        out = bytearray()
        for name, encoding in self.WIRE:
            encoding.put(out, fields[name], fields)
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes):
        fields, offset = {}, 0
        for name, encoding in cls.WIRE:
            fields[name], offset = encoding.get(data, offset, fields)
        if offset != len(data):
            raise MessageFormatError(
                f"{len(data) - offset} bytes after the last field of {cls.__name__}")
        # the sampled error rate of ShuffleSeed and PaSeed is at most one;
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


@dataclass(frozen=True, eq=False)
class ShuffleSeed(_Payload):
    """Pass structure announcement: permutation seed, block size, estimate.

    The error estimate rides along as an exact rational so both parties
    derive identical block schedules and yield arithmetic.
    """

    pass_no: int
    seed: int
    block_size: int
    est_num: int = 0
    est_den: int = 1

    WIRE = (("pass_no", VARINT), ("seed", U64), ("block_size", VARINT),
            ("est_num", VARINT), ("est_den", VARINT))


@dataclass(frozen=True, eq=False)
class BlockParity(_Payload):
    pass_no: int
    parities: np.ndarray

    WIRE = (("pass_no", VARINT), ("parities", BIT_LIST))


@dataclass(frozen=True, eq=False)
class Syndrome(_Payload):
    """Cascade bisection query or reply, sent while pass ``pass_no`` runs.

    An empty bit list is a query: each listed id ``(p - 1) * n + i`` asks
    for the parity of the first ``i`` bits of the n-bit key in pass p's
    shuffled order.  The reply lists the same ids and one parity bit per
    id, in id order.  A query listing no ids ends the pass.
    """

    pass_no: int
    blocks: np.ndarray
    bits: np.ndarray

    WIRE = (("pass_no", VARINT), ("blocks", INDEX_LIST), ("bits", BIT_LIST))

    @property
    def is_query(self) -> bool:
        return len(self.bits) == 0


@dataclass(frozen=True, eq=False)
class VerifyHash(_Payload):
    seed: int
    digest: bytes
    nbits: int

    WIRE = (("nbits", VARINT), ("seed", U64), ("digest", HASH_DIGEST))


@dataclass(frozen=True, eq=False)
class PaSeed(_Payload):
    """Privacy-amplification plan: shared seed, agreed output length, and
    the error estimate it was derived from (echoed for cross-checking)."""

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
    body = "sid={:016x} seq={} kind={} payload={}".format(
        message.session_id & 0xFFFFFFFFFFFFFFFF,
        message.seq,
        message.kind.value,
        base64.b64encode(raw).decode("ascii"),
    ).encode("ascii")
    return len(body).to_bytes(4, "big") + body


def decode(frame: bytes) -> Message:
    if len(frame) < 4:
        raise MessageFormatError("frame shorter than its length prefix")
    body_len = int.from_bytes(frame[:4], "big")
    if body_len > MAX_BODY_BYTES:
        raise MessageFormatError(f"frame body of {body_len} bytes exceeds {MAX_BODY_BYTES}")
    if len(frame) != 4 + body_len:
        raise MessageFormatError("frame length prefix does not match body")
    return decode_body(frame[4:])


# The header in its one canonical spelling: tokens in this order, ``sid``
# as 16 lowercase hex digits and ``seq`` as a decimal of at most 20 digits
# without sign, underscores or leading zeros.  The payload is the rest of
# the body, so base64 validation rejects any further token.
_HEADER = re.compile(
    rb"sid=([0-9a-f]{16}) seq=(0|[1-9][0-9]{0,19}) kind=([A-Za-z]+) payload=")


def decode_body(body: bytes) -> Message:
    header = _HEADER.match(body)
    if header is None:
        raise MessageFormatError(
            "malformed header: expected 'sid=<16 lowercase hex> "
            "seq=<decimal, at most 20 digits, no leading zeros> kind=<name> payload='")
    text = body[header.end():]
    try:
        kind = Kind(header[3].decode("ascii"))
        raw = base64.b64decode(text, validate=True)
        # b64decode ignores the unused bits of a last group and accepts
        # extra padding; only the encoder's own spelling is a valid payload
        if base64.b64encode(raw) != text:
            raise ValueError("payload is not canonical base64")
        payload = _PAYLOAD_TYPES[kind].unpack(raw)
    except ValueError as exc:
        raise MessageFormatError(f"invalid body: {exc}") from exc
    return Message(session_id=int(header[1], 16), seq=int(header[2]), kind=kind,
                   payload=payload)


def leak_meter(messages) -> int:
    """Count disclosed key-correlated bits over a message transcript."""
    total = 0
    for message in messages:
        if message.kind is Kind.BLOCK_PARITY:
            total += len(message.payload.parities)
        elif message.kind is Kind.SYNDROME:
            total += len(message.payload.bits)
        elif message.kind is Kind.SAMPLE_REVEAL:
            total += len(message.payload.bits)
    return total
