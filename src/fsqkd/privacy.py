"""Privacy amplification: Toeplitz hashing sized by the attack model.

The secret key is the product of a random binary Toeplitz matrix with the
corrected key over GF(2), a universal hash family (Krawczyk 1994).  An
m x n Toeplitz matrix is fixed by its n + m - 1 diagonal bits, drawn from
a labeled stream of a shared 64-bit seed, so only the seed crosses the
public channel; the product is one FFT convolution.  The compression
fraction ``(1 - nbar) - 2*sqrt(2)*eps`` prices beamsplitting of
multi-photon pulses (first term) and intercept-resend at the observed
error rate (second term); the reconciliation disclosure and any sampled
or hashed bits are subtracted on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reconciliation import shannon_leak_per_bit
from .rng import stream

SECRET_FILE_MAGIC = b"FSQKDSEC"
# Largest key ``compress`` accepts, four times the corrected key of a
# 32M-pulse session at nbar 0.5.  Its transforms take about 200 MB; the
# tests check exactness at this size against a bitwise reference.
MAX_INPUT_BITS = 1 << 21


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
    count = input_length + output_length - 1
    return (stream(seed, "pa-toeplitz").random(count) < 0.5).astype(np.uint8)


def compress(key: np.ndarray, plan: PaPlan) -> np.ndarray:
    """Apply the planned Toeplitz compression to a corrected key.

    Output bit i is ``sum_j t[i - j + n - 1] * key[j]`` mod 2, where t are
    the seed bits: entries n - 1 .. n + m - 2 of the convolution of t with
    the key.  Those entries never wrap in a cyclic convolution of length
    n + m - 1 or more, and each is an integer of at most n, which float64
    FFTs reproduce exactly up to ``MAX_INPUT_BITS``.
    """
    n, m = plan.input_length, plan.output_length
    if n != len(key):
        raise ValueError(f"plan expects {n} bits, key has {len(key)}")
    if n > MAX_INPUT_BITS:
        raise ValueError(f"key of {n} bits exceeds the {MAX_INPUT_BITS}-bit limit")
    if m == 0:
        return np.zeros(0, dtype=np.uint8)
    size = 1 << (n + m - 2).bit_length()
    spectrum = np.fft.rfft(toeplitz_seed_bits(plan.seed, n, m), size)
    spectrum *= np.fft.rfft(key, size)
    product = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + m]
    return (np.rint(product).astype(np.int64) & 1).astype(np.uint8)


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
