"""Bit packing and compact integer serialization.

Wire conventions used throughout the public-channel payloads:

* bits pack MSB-first within each byte (``np.packbits`` order);
* a *bit list* is a 4-byte big-endian bit count followed by packed bits;
* varints are unsigned LEB128: 7 payload bits per byte, low group first,
  high bit set on continuation bytes;
* an *index list* is ``varint(count)`` followed by the first index as a
  varint and then the successive gaps as varints (delta coding - the gaps
  of a strictly increasing sequence are small, so million-tick detection
  sets stay compact).
"""

from __future__ import annotations

import numpy as np


def pack_bits(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes()


def unpack_bits(data: bytes, nbits: int) -> np.ndarray:
    if nbits == 0:
        return np.zeros(0, dtype=np.uint8)
    arr = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(arr, count=nbits).astype(np.uint8)


def parity(bits: np.ndarray) -> int:
    return int(np.bitwise_xor.reduce(np.asarray(bits, dtype=np.uint8))) & 1 if len(bits) else 0


def encode_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one varint, returning ``(value, next_offset)``."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def encode_index_list(indices: np.ndarray) -> bytes:
    """Delta+varint encoding of a strictly increasing index sequence."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) and (indices[0] < 0 or np.any(np.diff(indices) <= 0)):
        raise ValueError("indices must be non-negative and strictly increasing")
    out = bytearray()
    encode_varint(len(indices), out)
    prev = 0
    for i, value in enumerate(indices.tolist()):
        encode_varint(value if i == 0 else value - prev, out)
        prev = value
    return bytes(out)


def decode_index_list(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    count, offset = decode_varint(data, offset)
    # every index takes at least one byte: bound the untrusted count first
    if count > len(data) - offset:
        raise ValueError(f"index count {count} exceeds the {len(data) - offset} bytes left")
    values = np.empty(count, dtype=np.int64)
    prev = 0
    for i in range(count):
        delta, offset = decode_varint(data, offset)
        prev = delta if i == 0 else prev + delta
        values[i] = prev
    if count > 1 and np.any(np.diff(values) <= 0):
        raise ValueError("decoded indices are not strictly increasing")
    return values, offset


def delta_encode(indices: np.ndarray) -> np.ndarray:
    """The delta form itself ([3, 7, 9] -> [3, 4, 2]); exposed for tests."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return indices.copy()
    return np.concatenate([indices[:1], np.diff(indices)])


def encode_bit_list(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    return len(bits).to_bytes(4, "big") + pack_bits(bits)


def decode_bit_list(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    if offset + 4 > len(data):
        raise ValueError("truncated bit list header")
    nbits = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    nbytes = (nbits + 7) // 8
    if offset + nbytes > len(data):
        raise ValueError("truncated bit list body")
    bits = unpack_bits(data[offset : offset + nbytes], nbits)
    return bits, offset + nbytes
