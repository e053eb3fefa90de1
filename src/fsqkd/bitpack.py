"""Bit packing and compact integer serialization.

Wire conventions used throughout the public-channel payloads:

* bits pack MSB-first within each byte (``np.packbits`` order);
* a *bit list* is a 4-byte big-endian bit count followed by packed bits,
  the unused low bits of its last byte zero;
* varints are unsigned LEB128: 7 payload bits per byte, low group first,
  high bit set on continuation bytes, no zero last group after the first;
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
            # a zero last group after the first spells a shorter varint
            if shift and not byte:
                raise ValueError("overlong varint")
            return value, offset
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


# Lists up to this long take the per-varint loop, longer ones the array
# code: the loop costs about 0.3 us per index, the array code about 20 us
# per call plus 0.03 us per index (2-vCPU VM, numpy 2.4.6), and half of a
# session's lists (bisection queries and replies) hold five ids or fewer.
_SCALAR_MAX = 64
# decode_varint reads up to eleven bytes before it gives up; an index below
# 2**63 needs at most nine
_MAX_VARINT_BYTES = 11
_GROUP_LIMITS = np.array([1 << (7 * j) for j in range(1, 10)], dtype=np.uint64)
_SHIFTS = np.arange(0, 64, 7, dtype=np.uint64)
_NOT_INCREASING = "indices must be non-negative and strictly increasing"


def encode_index_list(indices: np.ndarray) -> bytes:
    """Delta+varint encoding of a strictly increasing index sequence."""
    indices = np.asarray(indices, dtype=np.int64)
    out = bytearray()
    encode_varint(len(indices), out)
    if len(indices) <= _SCALAR_MAX:
        prev = least = 0
        for value in indices.tolist():
            if value < least:
                raise ValueError(_NOT_INCREASING)
            encode_varint(value - prev, out)
            prev, least = value, value + 1
        return bytes(out)
    deltas = np.diff(indices, prepend=0)
    if deltas[0] < 0 or np.any(deltas[1:] <= 0):
        raise ValueError(_NOT_INCREASING)
    # one row of 7-bit groups per delta, cut to its varint length
    deltas = deltas.astype(np.uint64)
    continued = np.searchsorted(_GROUP_LIMITS, deltas, side="right")
    width = int(continued.max()) + 1
    groups = (deltas[:, None] >> _SHIFTS[:width]) & np.uint64(0x7F)
    column = np.arange(width)
    groups[column < continued[:, None]] |= np.uint64(0x80)
    return bytes(out) + groups[column <= continued[:, None]].astype(np.uint8).tobytes()


def decode_index_list(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    count, offset = decode_varint(data, offset)
    # every index takes at least one byte: bound the untrusted count first
    if count > len(data) - offset:
        raise ValueError(f"index count {count} exceeds the {len(data) - offset} bytes left")
    if count <= _SCALAR_MAX:
        values, value = [], 0
        for i in range(count):
            delta, offset = decode_varint(data, offset)
            if i and not delta:
                raise ValueError("decoded indices are not strictly increasing")
            value += delta
            values.append(value)
        if value >= 2**63:
            raise ValueError("index beyond 2**63")
        return np.array(values, dtype=np.int64), offset
    window = np.frombuffer(data, dtype=np.uint8, offset=offset,
                           count=min(len(data) - offset, count * _MAX_VARINT_BYTES))
    ends = np.flatnonzero(window < 0x80)[:count]
    lengths = np.diff(ends, prepend=-1)
    if np.any(lengths > _MAX_VARINT_BYTES):
        raise ValueError("varint too long")
    if len(ends) < count:
        tail = len(window) - (int(ends[-1]) + 1 if len(ends) else 0)
        raise ValueError("varint too long" if tail >= _MAX_VARINT_BYTES else "truncated varint")
    if np.any((window[ends] == 0) & (lengths > 1)):
        raise ValueError("overlong varint")
    size = int(ends[-1]) + 1
    starts = ends + 1 - lengths
    column = np.arange(size) - np.repeat(starts, lengths)
    groups = window[:size] & np.uint8(0x7F)
    if np.any(groups[column >= 9]):
        raise ValueError("index beyond 2**63")
    deltas = np.add.reduceat(groups.astype(np.uint64) << _SHIFTS[np.minimum(column, 9)], starts)
    if np.any(deltas[1:] == 0):
        raise ValueError("decoded indices are not strictly increasing")
    # every delta is below 2**63, so a running sum that wraps turns negative first
    values = np.cumsum(deltas).view(np.int64)
    if np.any(values < 0):
        raise ValueError("index beyond 2**63")
    return values, offset + size


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
    # the last byte's unused low bits are zero, as packbits leaves them
    if nbits % 8 and data[offset + nbytes - 1] & (0xFF >> nbits % 8):
        raise ValueError("non-zero padding bits in bit list")
    bits = unpack_bits(data[offset : offset + nbytes], nbits)
    return bits, offset + nbytes
