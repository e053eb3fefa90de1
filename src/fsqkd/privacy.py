"""Privacy amplification: Toeplitz hashing sized by the attack model.

The secret key is the product of a random binary Toeplitz matrix with the
corrected key over GF(2), a universal hash family (Krawczyk 1994).  An
m x n Toeplitz matrix is fixed by its n + m - 1 diagonal bits, drawn from
a labeled stream of a shared 64-bit seed, so only the seed crosses the
public channel.  The product is computed as FFT convolutions, one per
pair of an output chunk and a key chunk.  Each transform is sized to its
output chunk, at least 4m points for m output bits (no fewer than
``MIN_SPAN_BITS``), so a short output over a long key costs small
transforms, never one the size of the key; ``MAX_INPUT_BITS`` = 2^21
points stays the ceiling under which float64 products are exact.  The
compression fraction ``(1 - nbar) - 2*sqrt(2)*eps`` prices beamsplitting
of multi-photon pulses (first term) and intercept-resend at the observed
error rate (second term); the reconciliation disclosure and any sampled
or hashed bits are subtracted on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reconciliation import shannon_leak_per_bit
from .rng import stream, toeplitz_diagonal

SECRET_FILE_MAGIC = b"FSQKDSEC"
# Largest transform of one FFT convolution in ``compress``, four times the
# corrected key of a 32M-pulse session at nbar 0.5: a key chunk and an
# output chunk fill at most this many points, the output chunk at most
# half of them.  The tests check exactness at this size, and above it,
# against a bitwise reference.
MAX_INPUT_BITS = 1 << 21
# Smallest transform ``compress`` sizes to an output chunk.  Floors from
# 2^13 to 2^17 points cost the same for a 486k-bit key (about 25 ms on a
# 2-vCPU VM, numpy 2.4.6); 2^18 doubles it.
MIN_SPAN_BITS = 1 << 16


def _span(m: int) -> int:
    """Transform size for an output chunk of m bits: the smallest power of
    two of at least 4m points, within [MIN_SPAN_BITS, MAX_INPUT_BITS]."""
    return min(MAX_INPUT_BITS, max(MIN_SPAN_BITS, 1 << (4 * m - 1).bit_length()))


def pa_fraction(nbar: float, eps: float) -> float:
    """Retained fraction of the corrected key before disclosure costs.

    May be negative for large nbar or error rate; callers clamp.
    """
    return (1.0 - nbar) - 2.0 * math.sqrt(2.0) * eps


def secret_yield_per_sifted_bit(nbar: float, eps: float, recon_efficiency: float = 1.0) -> float:
    """Net secret fraction of the sifted key, clamped at zero.

    ``recon_efficiency`` multiplies the Shannon-limit correction cost:
    1.0 for ideal codes, ~1.16 for interactive parity schemes, or the
    measured value of an actual run.
    """
    value = pa_fraction(nbar, eps) - recon_efficiency * shannon_leak_per_bit(eps)
    return max(0.0, value)


@dataclass(frozen=True)
class PaPlan:
    input_length: int
    output_length: int
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.output_length <= self.input_length:
            raise ValueError("output_length must lie in [0, input_length]")


def plan_output_length(input_length: int, nbar: float, eps_used: float,
                       recon_efficiency: float, extra_leak_bits: int) -> int:
    """Secret-key length after correction costs and extra disclosures."""
    if input_length < 0 or extra_leak_bits < 0:
        raise ValueError("lengths must be non-negative")
    fraction = secret_yield_per_sifted_bit(nbar, eps_used, recon_efficiency)
    length = math.floor(input_length * fraction - extra_leak_bits)
    return max(0, min(input_length, length))


def toeplitz_seed_bits(seed: int, input_length: int, output_length: int) -> np.ndarray:
    """The n + m - 1 diagonal bits of the plan's Toeplitz matrix."""
    return toeplitz_diagonal(stream(seed, "pa-toeplitz"), input_length + output_length - 1)


def _transform_size(length: int) -> int:
    """The smallest 2^a 3^b 5^c of at least ``length`` points.

    pocketfft transforms such sizes about as fast per point as powers of
    two: an 11,339-bit convolution (a default session's key and secret)
    takes 11,520 points in place of 16,384, about 40% less time.
    """
    best = 1 << (length - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-length // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def _toeplitz_product(diagonal: np.ndarray, key: np.ndarray, m: int) -> np.ndarray:
    """Entries n - 1 .. n + m - 2 of the convolution of a diagonal with a
    key of n bits, mod 2: the m x n Toeplitz product.

    Those entries never wrap in a cyclic convolution of length n + m - 1
    or more, and each is an integer of at most n, which float64 FFTs
    reproduce exactly while the transform stays within ``MAX_INPUT_BITS``
    points.
    """
    n = len(key)
    size = _transform_size(n + m - 1)
    spectrum = np.fft.rfft(diagonal, size)
    spectrum *= np.fft.rfft(key, size)
    product = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + m]
    return (np.rint(product).astype(np.int64) & 1).astype(np.uint8)


def compress(key: np.ndarray, plan: PaPlan) -> np.ndarray:
    """Apply the planned Toeplitz compression to a corrected key.

    Output bit i is ``sum_j t[i - j + n - 1] * key[j]`` mod 2, where t are
    the seed bits.  Outputs are cut into chunks of at most half of
    ``MAX_INPUT_BITS`` bits, and for an output chunk of m bits the key
    into chunks of ``_span(m) - m + 1`` bits, so each transform is sized
    to its output chunk and none exceeds ``MAX_INPUT_BITS`` points.  Each
    pair of an output chunk and a key chunk is an exact Toeplitz product
    of its own, over the slice of t it reads, and the output chunk is the
    XOR of those products (overlap-add over the key chunks, mod 2).
    """
    n, m = plan.input_length, plan.output_length
    if n != len(key):
        raise ValueError(f"plan expects {n} bits, key has {len(key)}")
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    diagonal = toeplitz_seed_bits(plan.seed, n, m)
    out = np.zeros(m, dtype=np.uint8)
    for i0 in range(0, m, MAX_INPUT_BITS // 2):
        i1 = min(i0 + MAX_INPUT_BITS // 2, m)
        key_chunk = _span(i1 - i0) - (i1 - i0) + 1
        for j0 in range(0, n, key_chunk):
            j1 = min(j0 + key_chunk, n)
            # entry (i, j) of the chunk reads t[i - j + n - 1]
            out[i0:i1] ^= _toeplitz_product(diagonal[i0 - j1 + n : i1 - j0 + n - 1],
                                            key[j0:j1], i1 - i0)
    return out


def write_secret_key(path, bits: np.ndarray, session_hex: str) -> None:
    """Secret-key file: magic, 4-byte bit count, packed bits, hex id line."""
    if len(session_hex) != 32:
        raise ValueError("session id must be 32 hex characters")
    int(session_hex, 16)
    packed = np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()
    with open(path, "wb") as fh:
        fh.write(SECRET_FILE_MAGIC)
        fh.write(len(bits).to_bytes(4, "big"))
        fh.write(packed)
        fh.write(session_hex.encode("ascii") + b"\n")


def read_secret_key(path) -> tuple[np.ndarray, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != SECRET_FILE_MAGIC:
        raise ValueError("bad magic")
    nbits = int.from_bytes(data[8:12], "big")
    nbytes = (nbits + 7) // 8
    body = data[12 : 12 + nbytes]
    bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8), count=nbits).astype(np.uint8) \
        if nbits else np.zeros(0, dtype=np.uint8)
    tail = data[12 + nbytes :]
    if len(tail) != 33 or tail[-1:] != b"\n":
        raise ValueError("bad session id line")
    session_hex = tail[:32].decode("ascii")
    int(session_hex, 16)
    return bits, session_hex
