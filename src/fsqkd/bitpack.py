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
index from one chunk to the next.  Within a chunk it works one varint byte
column at a time, and column j holds only the rows long enough to have a
byte j.  Encoding finds those rows by successive filters, each keeping the
rows of the last whose delta reaches 2**(7j), until the chunk's largest
delta; one cumulative sum of the lengths gives each varint's offset, and
each column is scattered into its rows' bytes.  Decoding finds every
terminator byte (below 0x80) at once, which gives each varint's end and
length, then builds the deltas from the last group down, gathering column
j for the rows that long, and sums them into indices.  The scratch is
bounded by the chunk, however long the list: decoding peaks at its output,
8 bytes per id, plus under a megabyte, and encoding at its output, the
bytearray it appends to, plus under a megabyte.
Each check applies to every chunk.
"""

from __future__ import annotations

import numpy as np


def pack_bits(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8)
    return np.packbits(bits).tobytes()


def encode_varint(value: int, out: bytearray) -> None:
    # most varints on the wire (seqs, pass numbers, short counts) take one byte
    if 0 <= value < 0x80:
        out.append(value)
        return
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
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
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
# code.  On bisection ids, whose gaps mostly take two bytes, the loop
# costs about 0.07 us per index to encode and 0.14 us to decode; the array
# code about 14 us per call to encode and 12 us to decode, plus 0.01 us
# per index either way (2-vCPU VM, numpy 2.4.6).  The two cross near 90
# ids when decoding and near 220 when encoding.  A 32M-pulse session at
# nbar 0.5 codes 392 lists, 114 of five ids or fewer; 22 hold 91-128 ids
# and 18 hold 129-220, so a threshold at either crossover, or one for each
# direction, would save about 0.1 ms of it.
_SCALAR_MAX = 128
# Longer lists take the array code, this many ids per chunk when encoding
# and this many payload bytes per chunk when decoding
_CHUNK = 1 << 14
# decode_varint reads up to eleven bytes before it gives up; an index below
# 2**63 needs at most nine
_MAX_VARINT_BYTES = 11
_NOT_INCREASING = "indices must be non-negative and strictly increasing"
# An empty list decodes to one of these, shared and read-only, and the
# corrector sends them: a bisection reply lists no ids, and a query no bits
NO_INDICES = np.zeros(0, dtype=np.int64)
NO_INDICES.flags.writeable = False
NO_BITS = np.zeros(0, dtype=np.uint8)
NO_BITS.flags.writeable = False
_NO_BITS_ENCODED = bytes(4)


def encode_index_list(indices: np.ndarray, out: bytearray) -> bytearray:
    """Delta+varint encoding of a strictly increasing index sequence,
    appended to ``out`` and returned."""
    if not len(indices):
        out.append(0)
        return out
    indices = np.asarray(indices, dtype=np.int64)
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
        return out
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
        # column j holds group j of every delta that reaches 2**(7j): its
        # rows are filtered from those of column j - 1, and the filters stop
        # after the chunk's longest varint
        lengths = np.ones(len(deltas), dtype=np.intp)
        tails, continued, rows = [deltas], [], None
        while True:
            more = (tails[-1] > 0x7F).nonzero()[0]
            continued.append(more)
            if not len(more):
                break
            rows = more if rows is None else rows[more]
            lengths[rows] += 1
            tails.append(tails[-1][more] >> 7)
        ends = np.cumsum(lengths)
        encoded = np.empty(int(ends[-1]), dtype=np.uint8)
        at = ends - lengths
        for tail, more in zip(tails, continued):
            column = tail.astype(np.uint8)
            column &= 0x7F
            column[more] |= 0x80
            encoded[at] = column
            at = at[more] + 1
        out += memoryview(encoded)
    return out


def decode_index_list(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    count, offset = decode_varint(data, offset)
    if not count:
        return NO_INDICES, offset
    # every index takes at least one byte: bound the untrusted count first
    if count > len(data) - offset:
        raise ValueError(f"index count {count} exceeds the {len(data) - offset} bytes left")
    if count <= _SCALAR_MAX:
        # decode_varint inlined: the same checks in the same order.  No
        # varint runs past _MAX_VARINT_BYTES without failing "too long",
        # so the list lies within that many bytes per index.  Each id
        # takes one last byte and ``more`` continuation bytes in all
        values, value, low, shift, more = [], 0, 0, 0, 0
        for byte in data[offset : offset + _MAX_VARINT_BYTES * count]:
            if byte > 0x7F:
                low |= (byte & 0x7F) << shift
                shift += 7
                more += 1
                if shift > 70:
                    raise ValueError("varint too long")
                continue
            if shift:
                # a zero last group after the first spells a shorter varint
                if not byte:
                    raise ValueError("overlong varint")
                byte = low | byte << shift
                low = shift = 0
            elif not byte and values:
                raise ValueError("decoded indices are not strictly increasing")
            value += byte
            values.append(value)
            if len(values) == count:
                break
        else:
            raise ValueError("truncated varint")
        if value >= 2**63:
            raise ValueError("index beyond 2**63")
        return np.array(values, dtype=np.int64), offset + count + more
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
        lengths = np.empty(len(ends), dtype=np.intp)
        lengths[0] = ends[0] + 1
        np.subtract(ends[1:], ends[:-1], out=lengths[1:])
        width = int(lengths.max())
        if width > _MAX_VARINT_BYTES:
            raise ValueError("varint too long")
        last = window[ends]
        rows = (lengths > 1).nonzero()[0]
        if np.count_nonzero(last[rows] == 0):
            raise ValueError("overlong varint")
        # without a zero last group, a varint of ten or more bytes has a
        # non-zero group at bit 63 or above
        if width > 9:
            raise ValueError("index beyond 2**63")
        # Horner's rule from each varint's last group down: step j takes in
        # the group j bytes before the last, for the rows that long
        deltas = last.astype(np.uint64)
        for j in range(1, width):
            groups = window[ends[rows] - j] & np.uint8(0x7F)
            deltas[rows] = deltas[rows] << np.uint64(7) | groups
            rows = rows[lengths[rows] > j + 1]
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
    if not len(bits):
        return _NO_BITS_ENCODED
    bits = np.asarray(bits, dtype=np.uint8)
    return len(bits).to_bytes(4, "big") + pack_bits(bits)


def decode_bit_list(data: bytes, offset: int) -> tuple[np.ndarray, int]:
    if offset + 4 > len(data):
        raise ValueError("truncated bit list header")
    nbits = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    if not nbits:
        return NO_BITS, offset
    nbytes = (nbits + 7) // 8
    if offset + nbytes > len(data):
        raise ValueError("truncated bit list body")
    # the last byte's unused low bits are zero, as packbits leaves them
    if nbits % 8 and data[offset + nbytes - 1] & (0xFF >> nbits % 8):
        raise ValueError("non-zero padding bits in bit list")
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=nbytes, offset=offset),
                         count=nbits)
    return bits, offset + nbytes
