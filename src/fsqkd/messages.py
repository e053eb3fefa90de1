"""Typed public-channel messages and their byte-exact wire encoding.

Frame: 4-byte big-endian body length, then the body.  The body is one
ASCII line of a flat key=value record::

    sid=<hex16> seq=<dec> kind=<NAME> payload=<base64>

where the base64 payload wraps a kind-specific packed binary body (see
``PROTOCOL.md`` for the normative layouts and worked hex examples).  Index
lists travel delta+varint encoded; bit lists as packed bits behind a
32-bit bit count.  ``encode`` then ``decode`` is the identity for every
valid message.

``leak_meter`` implements the session's disclosure accounting: block
parities cost one bit each, bisection replies one bit per answered id,
sample reveals their bit count.  Indices, seeds and structure parameters
are key-value-independent and cost nothing; the verification hash is
counted separately in the session report.
"""

from __future__ import annotations

import base64
import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .bitpack import (
    decode_bit_list,
    decode_index_list,
    decode_varint,
    encode_bit_list,
    encode_index_list,
    encode_varint,
)

PROTOCOL_VERSION = 3
MAX_PAYLOAD_BYTES = 2**24


class MessageFormatError(ValueError):
    """Raised when bytes do not form a valid frame or payload."""


class PayloadTooLarge(MessageFormatError):
    pass


def _values_equal(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class _FieldwiseEq:
    """Dataclass equality that treats numpy array fields by content."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            _values_equal(getattr(self, f.name), getattr(other, f.name))
            for f in dataclasses.fields(self)
        )

    __hash__ = None


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


@dataclass(frozen=True)
class Hello:
    version: int
    params_digest: bytes
    seed: int = 0

    def pack(self) -> bytes:
        out = bytearray()
        encode_varint(self.version, out)
        if len(self.params_digest) != 16:
            raise MessageFormatError("params digest must be 16 bytes")
        out += self.params_digest
        out += int(self.seed).to_bytes(8, "big")
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "Hello":
        version, off = decode_varint(data, 0)
        digest, off = _take(data, off, 16)
        raw_seed, off = _take(data, off, 8)
        return cls(version=version, params_digest=digest,
                   seed=int.from_bytes(raw_seed, "big"))


@dataclass(frozen=True, eq=False)
class SiftIndices(_FieldwiseEq):
    indices: np.ndarray

    def pack(self) -> bytes:
        return encode_index_list(self.indices)

    @classmethod
    def unpack(cls, data: bytes) -> "SiftIndices":
        indices, _ = decode_index_list(data, 0)
        return cls(indices=indices)


@dataclass(frozen=True, eq=False)
class SampleRequest(_FieldwiseEq):
    positions: np.ndarray

    def pack(self) -> bytes:
        return encode_index_list(self.positions)

    @classmethod
    def unpack(cls, data: bytes) -> "SampleRequest":
        positions, _ = decode_index_list(data, 0)
        return cls(positions=positions)


@dataclass(frozen=True, eq=False)
class SampleReveal(_FieldwiseEq):
    bits: np.ndarray

    def pack(self) -> bytes:
        return encode_bit_list(self.bits)

    @classmethod
    def unpack(cls, data: bytes) -> "SampleReveal":
        bits, _ = decode_bit_list(data, 0)
        return cls(bits=bits)


@dataclass(frozen=True)
class ShuffleSeed:
    """Pass structure announcement: permutation seed, block size, estimate.

    The error estimate rides along as an exact rational so both parties
    derive identical block schedules and yield arithmetic.
    """

    pass_no: int
    seed: int
    block_size: int
    est_num: int = 0
    est_den: int = 1

    def pack(self) -> bytes:
        out = bytearray()
        encode_varint(self.pass_no, out)
        out += int(self.seed).to_bytes(8, "big")
        encode_varint(self.block_size, out)
        encode_varint(self.est_num, out)
        encode_varint(self.est_den, out)
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "ShuffleSeed":
        pass_no, off = decode_varint(data, 0)
        raw_seed, off = _take(data, off, 8)
        block_size, off = decode_varint(data, off)
        est_num, off = decode_varint(data, off)
        est_den, off = decode_varint(data, off)
        return cls(pass_no, int.from_bytes(raw_seed, "big"), block_size,
                   est_num, est_den)


@dataclass(frozen=True, eq=False)
class BlockParity(_FieldwiseEq):
    pass_no: int
    parities: np.ndarray

    def pack(self) -> bytes:
        out = bytearray()
        encode_varint(self.pass_no, out)
        out += encode_bit_list(self.parities)
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "BlockParity":
        pass_no, off = decode_varint(data, 0)
        parities, _ = decode_bit_list(data, off)
        return cls(pass_no, parities)


@dataclass(frozen=True, eq=False)
class Syndrome(_FieldwiseEq):
    """Cascade bisection query or reply, sent while pass ``pass_no`` runs.

    An empty bit list is a query: each listed id ``(p - 1) * n + i`` asks
    for the parity of the first ``i`` bits of the n-bit key in pass p's
    shuffled order.  The reply lists the same ids and one parity bit per
    id, in id order.  A query listing no ids ends the pass.
    """

    pass_no: int
    blocks: np.ndarray
    bits: np.ndarray

    def pack(self) -> bytes:
        out = bytearray()
        encode_varint(self.pass_no, out)
        out += encode_index_list(self.blocks)
        out += encode_bit_list(self.bits)
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "Syndrome":
        pass_no, off = decode_varint(data, 0)
        blocks, off = decode_index_list(data, off)
        bits, _ = decode_bit_list(data, off)
        return cls(pass_no, blocks, bits)

    @property
    def is_query(self) -> bool:
        return len(self.bits) == 0


@dataclass(frozen=True)
class VerifyHash:
    seed: int
    digest: bytes
    nbits: int

    def pack(self) -> bytes:
        out = bytearray()
        encode_varint(self.nbits, out)
        out += int(self.seed).to_bytes(8, "big")
        if len(self.digest) != (self.nbits + 7) // 8:
            raise MessageFormatError("digest length inconsistent with nbits")
        out += self.digest
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "VerifyHash":
        nbits, off = decode_varint(data, 0)
        raw_seed, off = _take(data, off, 8)
        digest, off = _take(data, off, (nbits + 7) // 8)
        return cls(seed=int.from_bytes(raw_seed, "big"), digest=digest,
                   nbits=nbits)


@dataclass(frozen=True)
class PaSeed:
    """Privacy-amplification plan: shared seed, agreed output length, and
    the error estimate it was derived from (echoed for cross-checking)."""

    seed: int
    output_length: int
    est_num: int = 0
    est_den: int = 1

    def pack(self) -> bytes:
        out = bytearray()
        out += int(self.seed).to_bytes(8, "big")
        encode_varint(self.output_length, out)
        encode_varint(self.est_num, out)
        encode_varint(self.est_den, out)
        return bytes(out)

    @classmethod
    def unpack(cls, data: bytes) -> "PaSeed":
        raw_seed, off = _take(data, 0, 8)
        output_length, off = decode_varint(data, off)
        est_num, off = decode_varint(data, off)
        est_den, off = decode_varint(data, off)
        return cls(seed=int.from_bytes(raw_seed, "big"),
                   output_length=output_length,
                   est_num=est_num, est_den=est_den)


@dataclass(frozen=True)
class Abort:
    reason: str = ""

    def pack(self) -> bytes:
        return self.reason.encode("utf-8")

    @classmethod
    def unpack(cls, data: bytes) -> "Abort":
        return cls(reason=data.decode("utf-8"))


@dataclass(frozen=True)
class Done:
    def pack(self) -> bytes:
        return b""

    @classmethod
    def unpack(cls, data: bytes) -> "Done":
        return cls()


_PAYLOAD_TYPES = {
    Kind.HELLO: Hello,
    Kind.SIFT_INDICES: SiftIndices,
    Kind.SAMPLE_REQUEST: SampleRequest,
    Kind.SAMPLE_REVEAL: SampleReveal,
    Kind.SHUFFLE_SEED: ShuffleSeed,
    Kind.BLOCK_PARITY: BlockParity,
    Kind.SYNDROME: Syndrome,
    Kind.VERIFY_HASH: VerifyHash,
    Kind.PA_SEED: PaSeed,
    Kind.ABORT: Abort,
    Kind.DONE: Done,
}
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


def decode_body(body: bytes) -> Message:
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MessageFormatError("body is not ASCII") from exc
    fields = {}
    for token in text.split(" "):
        if "=" not in token:
            raise MessageFormatError(f"malformed token {token!r}")
        key, value = token.split("=", 1)
        if key not in ("sid", "seq", "kind", "payload") or key in fields:
            raise MessageFormatError(f"unexpected token {key!r}")
        fields[key] = value
    try:
        session_id = int(fields["sid"], 16)
        seq = int(fields["seq"])
        kind = Kind(fields["kind"])
        raw = base64.b64decode(fields["payload"], validate=True)
    except (KeyError, ValueError) as exc:
        raise MessageFormatError(f"invalid body: {exc}") from exc
    payload = _PAYLOAD_TYPES[kind].unpack(raw)
    return Message(session_id=session_id, seq=seq, kind=kind, payload=payload)


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
