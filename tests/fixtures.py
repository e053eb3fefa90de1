"""Shared test fixtures: the 250-bit daylight-run key sample, the decoded
transcript of an endpoint, and a digest of its bisection exchange.

Five 50-bit rows per party; the receiver's copy differs from the
transmitter's in exactly eight positions (3.2% of 250).
"""

import hashlib

import numpy as np

from fsqkd.messages import Kind, decode

ALICE_250 = (
    "00011011110111010111010000101011111101111101110000"
    "01111110111100011011000010111101110010000101001010"
    "00011110111110000100011111001111011011011101101111"
    "10010010100100100100111100000001101001111100101111"
    "11111111111111111000011111011101101110101100011101"
)

BOB_250 = (
    "10011011110011010110011000101011111101111101110000"
    "01111110101100011011000000111101110010000101001010"
    "00011110110110000100011111001111011011011101101111"
    "10010010100100100100111100000001101001111100101011"
    "11111111111111111000011111011101101110101100011101"
)


def bits_from_string(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def decoded(endpoint) -> list:
    """The messages of every frame an endpoint sent or accepted, in its order."""
    return [decode(frame) for frame in endpoint.frames]


def bisection_sha256(messages) -> str:
    """sha256 over every bisection query's pass, ids and Bob's answer bits,
    in order, as text: the same for any wire layout that carries them."""
    digest, query = hashlib.sha256(), None
    for message in messages:
        if message.kind is not Kind.SYNDROME:
            continue
        payload = message.payload
        if payload.is_query:
            query = payload
        else:
            ids = ",".join(map(str, query.blocks.tolist()))
            bits = "".join(map(str, payload.bits.tolist()))
            digest.update(f"{query.pass_no} {ids} {bits}\n".encode())
    return digest.hexdigest()
