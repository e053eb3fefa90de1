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

Short index lists take a per-byte loop; long ones an array path that works
through fixed-size chunks, ``_CHUNK`` ids at a time when encoding and
``_CHUNK`` payload bytes at a time when decoding, carrying the running
index from one chunk to the next.  Its scratch is bounded by the chunk, so
decoding peaks at its output, 8 bytes per id, plus under a megabyte,
however long the list; each check applies to every chunk.
"""

from __future__ import annotations

import numpy as np


def pack_bits(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes()


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


# Lists up to this long take the per-byte loop, longer ones the array
# code.  The loop costs about 0.15 us per index to encode and 0.25 us to
# decode; the array code 20-30 us per call plus about 0.05 us per index
# (2-vCPU VM, numpy 2.4.6).  For bisection ids, whose gaps mostly take
# two bytes, the two cross near 128 ids when decoding and later when
# encoding; half of a session's lists are bisection queries and replies
# of five ids or fewer.
_SCALAR_MAX = 128
# Longer lists take the array code, this many ids per chunk when encoding
# and this many payload bytes per chunk when decoding
_CHUNK = 1 << 14
# decode_varint reads up to eleven bytes before it gives up; an index below
# 2**63 needs at most nine
_MAX_VARINT_BYTES = 11
_GROUP_LIMITS = np.array([1 << (7 * j) for j in range(1, 10)], dtype=np.uint64)
_SHIFTS = np.arange(0, 64, 7, dtype=np.uint64)
_COLUMNS = np.arange(_MAX_VARINT_BYTES)
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
            delta = value - prev
            while delta > 0x7F:
                out.append(delta & 0x7F | 0x80)
                delta >>= 7
            out.append(delta)
            prev, least = value, value + 1
        return bytes(out)
    prev = least = 0
    for start in range(0, len(indices), _CHUNK):
        chunk = indices[start : start + _CHUNK]
        deltas = np.empty(len(chunk), dtype=np.int64)
        deltas[0] = chunk[0] - prev
        np.subtract(chunk[1:], chunk[:-1], out=deltas[1:])
        # differences of non-negative int64 values cannot wrap
        if (chunk[0] < least or np.count_nonzero(chunk < 0)
                or np.count_nonzero(deltas[1:] <= 0)):
            raise ValueError(_NOT_INCREASING)
        prev = int(chunk[-1])
        least = prev + 1
        # one row of 7-bit groups per delta, cut to its varint length
        deltas = deltas.view(np.uint64)
        continued = np.searchsorted(_GROUP_LIMITS, deltas, side="right")
        width = int(continued[continued.argmax()]) + 1
        groups = (deltas[:, None] >> _SHIFTS[:width]).astype(np.uint8)
        groups &= 0x7F
        keep = _COLUMNS[:width] <= continued[:, None]
        # a group is continued exactly when the next one is kept
        groups[:, :-1] |= keep[:, 1:].view(np.uint8) << 7
        out += memoryview(groups[keep])
    return bytes(out)


def decode_index_list(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    count, offset = decode_varint(data, offset)
    # every index takes at least one byte: bound the untrusted count first
    if count > len(data) - offset:
        raise ValueError(f"index count {count} exceeds the {len(data) - offset} bytes left")
    if count <= _SCALAR_MAX:
        # decode_varint inlined: the same checks in the same order
        values, value, size = [], 0, len(data)
        for i in range(count):
            delta = shift = 0
            while True:
                if offset >= size:
                    raise ValueError("truncated varint")
                byte = data[offset]
                offset += 1
                delta |= (byte & 0x7F) << shift
                if byte < 0x80:
                    break
                shift += 7
                if shift > 70:
                    raise ValueError("varint too long")
            # a zero last group after the first spells a shorter varint
            if shift and not byte:
                raise ValueError("overlong varint")
            if i and not delta:
                raise ValueError("decoded indices are not strictly increasing")
            value += delta
            values.append(value)
        if value >= 2**63:
            raise ValueError("index beyond 2**63")
        return np.array(values, dtype=np.int64), offset
    values = np.empty(count, dtype=np.int64)
    # each chunk decodes the varints that end within its bytes; one cut
    # off at its end starts the next chunk, and every remaining id has at
    # least one of the bytes left, so no chunk starts past the data
    done = 0
    while done < count:
        window = np.frombuffer(data, dtype=np.uint8, offset=offset,
                               count=min(len(data) - offset, _CHUNK))
        ends = (window < 0x80).nonzero()[0][:count - done]
        if not len(ends):
            raise ValueError("varint too long" if len(window) >= _MAX_VARINT_BYTES
                             else "truncated varint")
        size = int(ends[-1]) + 1
        lengths = np.empty(len(ends), dtype=np.int64)
        lengths[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=lengths[1:])
        if lengths[lengths.argmax()] > _MAX_VARINT_BYTES:
            raise ValueError("varint too long")
        if np.count_nonzero((window[ends] == 0) & (lengths > 1)):
            raise ValueError("overlong varint")
        starts = ends + 1 - lengths
        column = np.arange(size) - starts.repeat(lengths)
        groups = window[:size] & np.uint8(0x7F)
        if np.count_nonzero(groups[column >= 9]):
            raise ValueError("index beyond 2**63")
        deltas = np.add.reduceat(groups.astype(np.uint64) << _SHIFTS[np.minimum(column, 9)],
                                 starts)
        # only the list's first delta may be zero
        if np.count_nonzero(deltas[not done:]) < len(deltas) - (not done):
            raise ValueError("decoded indices are not strictly increasing")
        # the running sum carries over: the last index so far is below
        # 2**63, as is every delta, so a sum that wraps turns negative first
        if done:
            deltas[0] += values.view(np.uint64)[done - 1]
        chunk = values[done : done + len(deltas)]
        np.add.accumulate(deltas, out=chunk.view(np.uint64))
        if np.count_nonzero(chunk < 0):
            raise ValueError("index beyond 2**63")
        done += len(deltas)
        offset += size
    return values, offset


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
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset),
                         count=nbits)
    return bits, offset + nbytes
