"""Error-rate estimation and interactive error correction.

The corrector works in shuffled passes.  Each pass splits both keys into
blocks sized from the running error estimate; the reference side (Bob)
discloses one parity bit per block, and for every block whose parities
disagree he discloses the block's Hamming syndrome on request.  Alice
flips the bit singled out by the syndrome difference.  Because Alice
caches every syndrome Bob has disclosed, any later flip that lands in an
already-disclosed block lets her re-decode that block locally for free,
so corrections propagate backwards through earlier passes without extra
traffic.  Blocks whose syndrome difference does not decode to an in-range
position (error patterns of weight >= 3) are left for the next shuffle.

A seeded random-parity hash closes the exchange; on mismatch one extra
pass runs before the session aborts.  Disclosure is metered exactly:
parities plus syndrome bits plus any sampled bits, never padding, queries
or indices.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bitpack import pack_bits
from .core import KeyBuffer, Stage
from .hamming import (
    bits_to_syndrome,
    block_syndrome,
    decode_flip_position,
    syndrome_order,
    syndrome_to_bits,
)
from .messages import (
    BlockParity,
    Kind,
    SampleRequest,
    SampleReveal,
    ShuffleSeed,
    Syndrome,
    VerifyHash,
    leak_meter,
)
from .rng import draw_seed, stream
from .transport import Endpoint, SessionAborted

BLOCK_SIZE_MIN = 8
BLOCK_SIZE_MAX = 4096
BLOCK_SIZE_FACTOR = 0.73


@dataclass(frozen=True)
class ReconConfig:
    """Estimation and correction schedule parameters."""

    sample_fraction: float = 0.1
    passes: int = 4
    hash_bits: int = 128

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_fraction < 0.5:
            raise ValueError("sample_fraction must lie in (0, 0.5)")
        if self.passes < 2:
            raise ValueError("passes must be at least 2")
        if self.hash_bits < 8:
            raise ValueError("hash_bits must be at least 8")


@dataclass
class ReconOutcome:
    corrected_key: KeyBuffer
    estimated_ber: float
    disclosed_bits: int
    efficiency: float
    verified: bool
    passes_run: int
    flips: int
    hash_rounds: int
    est_num: int = 0
    est_den: int = 1


def shannon_leak_per_bit(eps: float) -> float:
    """Minimum error-correction disclosure per key bit (binary entropy)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("error rate must lie in [0, 1]")
    if eps in (0.0, 1.0):
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


def block_schedule(est: float, n: int, passes: int,
                   sample_size: int | None = None) -> list[int]:
    """Block sizes per pass: ~0.73/est to start, doubling as errors thin.

    When the estimate came from a finite sample, size against its upper
    two-sigma edge: an undersized estimate overloads blocks and stalls the
    decoder, while oversampling only costs a few extra parities.
    """
    if n < 1:
        raise ValueError("empty key")
    if est <= 0.0:
        # sampling found nothing; one cheap screening pass
        return [min(BLOCK_SIZE_MAX, n)]
    if sample_size:
        est = est + 2.0 * math.sqrt(est * (1.0 - est) / sample_size)
    k1 = int(round(BLOCK_SIZE_FACTOR / est))
    k1 = max(BLOCK_SIZE_MIN, min(BLOCK_SIZE_MAX, k1))
    return [min(k1 << (p - 1), BLOCK_SIZE_MAX, max(n, BLOCK_SIZE_MIN)) for p in range(1, passes + 1)]


def _permutation(seed: int, pass_no: int, n: int) -> np.ndarray:
    return stream(seed, f"recon-perm-{pass_no}").permutation(n).astype(np.int64)


class _PassStructure:
    """One pass's shuffle, block boundaries, and parity bookkeeping."""

    def __init__(self, pass_no: int, seed: int, block_size: int, key_len: int):
        self.pass_no = pass_no
        self.block_size = block_size
        self.perm = _permutation(seed, pass_no, key_len)
        self.inv = np.empty(key_len, dtype=np.int64)
        self.inv[self.perm] = np.arange(key_len, dtype=np.int64)
        self.starts = np.arange(0, key_len, block_size, dtype=np.int64)
        self.n_blocks = len(self.starts)
        self.lens = np.diff(np.append(self.starts, key_len)).astype(np.int64)

    def block_of(self, position: int) -> int:
        return int(position // self.block_size)

    def block_positions(self, block: int) -> np.ndarray:
        start = self.starts[block]
        return self.perm[start : start + self.lens[block]]

    def parities(self, key_bits: np.ndarray) -> np.ndarray:
        permuted = key_bits[self.perm].astype(np.int64)
        return (np.add.reduceat(permuted, self.starts) & 1).astype(np.uint8)

    def syndrome(self, key_bits: np.ndarray, block: int) -> int:
        return block_syndrome(key_bits[self.block_positions(block)])

    def syndrome_bits(self, key_bits: np.ndarray, block: int) -> np.ndarray:
        order = syndrome_order(int(self.lens[block]))
        return syndrome_to_bits(self.syndrome(key_bits, block), order)


def _verify_hash_bits(key_bits: np.ndarray, seed: int, nbits: int) -> bytes:
    """Random-parity (universal family) hash of a key, as packed bytes."""
    rng = stream(seed, "verify-hash")
    rows = rng.random((nbits, len(key_bits))) < 0.5
    digest = (rows @ key_bits.astype(np.int64)) & 1
    return pack_bits(digest.astype(np.uint8))


class _AliceCorrector:
    """Alice's view: applies corrections toward Bob's reference key."""

    # see module docstring: flips cascade via cached syndromes, so the only
    # guard needed is against pathological ping-pong on adversarial keys
    MAX_ACTIONS_PER_BIT = 16

    def __init__(self, bits: np.ndarray, endpoint: Endpoint):
        self.bits = bits
        self.endpoint = endpoint
        self.passes: dict[int, _PassStructure] = {}
        self.diff_parity: dict[int, np.ndarray] = {}
        self.synd_cache: dict[int, dict[int, int]] = {}
        self.stuck: dict[int, set[int]] = {}
        self.acted: dict[int, dict[int, int]] = {}
        self.queue: deque[tuple[int, int]] = deque()
        self.flips = 0
        self.actions = 0

    def begin_pass(self, announce: ShuffleSeed, bob_parities: np.ndarray) -> None:
        ps = _PassStructure(announce.pass_no, announce.seed, announce.block_size, len(self.bits))
        if len(bob_parities) != ps.n_blocks:
            raise SessionAborted("block parity count mismatch", local=True)
        self.passes[ps.pass_no] = ps
        self.diff_parity[ps.pass_no] = ps.parities(self.bits) ^ bob_parities
        self.synd_cache[ps.pass_no] = {}
        self.stuck[ps.pass_no] = set()
        self.acted[ps.pass_no] = {}
        for block in np.nonzero(self.diff_parity[ps.pass_no])[0]:
            self.queue.append((ps.pass_no, int(block)))

    def _flip(self, global_index: int) -> None:
        self.bits[global_index] ^= 1
        self.flips += 1
        for pass_no, ps in self.passes.items():
            block = ps.block_of(int(ps.inv[global_index]))
            self.diff_parity[pass_no][block] ^= 1
            self.stuck[pass_no].discard(block)
            if self.diff_parity[pass_no][block]:
                self.queue.append((pass_no, block))

    def _try_decode(self, pass_no: int, block: int) -> None:
        ps = self.passes[pass_no]
        diff = ps.syndrome(self.bits, block) ^ self.synd_cache[pass_no][block]
        # acting twice on an identical local state would repeat the exact
        # flip and ping-pong with whichever block undid it; park the block
        # until something toggles it instead
        if self.acted[pass_no].get(block) == diff:
            self.stuck[pass_no].add(block)
            return
        position = decode_flip_position(diff, int(ps.lens[block]))
        if position is None:
            self.stuck[pass_no].add(block)
            return
        self.acted[pass_no][block] = diff
        self._flip(int(ps.perm[ps.starts[block] + position]))

    def drain(self, current_pass: int) -> None:
        """Resolve every actionable block, querying missing syndromes in batches."""
        action_cap = self.MAX_ACTIONS_PER_BIT * max(1, len(self.bits))
        while True:
            wanted: dict[int, set[int]] = {}
            while self.queue:
                pass_no, block = self.queue.popleft()
                if not self.diff_parity[pass_no][block]:
                    continue
                if block in self.stuck[pass_no]:
                    continue
                if self.actions > action_cap:
                    continue
                if block in self.synd_cache[pass_no]:
                    self.actions += 1
                    self._try_decode(pass_no, block)
                else:
                    wanted.setdefault(pass_no, set()).add(block)
            if not wanted:
                break
            for pass_no in sorted(wanted):
                blocks = np.array(sorted(wanted[pass_no]), dtype=np.int64)
                self.endpoint.send(Syndrome(pass_no=pass_no, blocks=blocks,
                                            bits=np.zeros(0, dtype=np.uint8)))
                reply = self.endpoint.expect(Kind.SYNDROME).payload
                self._cache_reply(reply)
                for block in blocks:
                    self.queue.append((pass_no, int(block)))
        self.endpoint.send(Syndrome(pass_no=current_pass,
                                    blocks=np.zeros(0, dtype=np.int64),
                                    bits=np.zeros(0, dtype=np.uint8)))

    def _cache_reply(self, reply: Syndrome) -> None:
        ps = self.passes.get(reply.pass_no)
        if ps is None:
            raise SessionAborted(f"syndromes for unknown pass {reply.pass_no}", local=True)
        offset = 0
        for block in reply.blocks:
            order = syndrome_order(int(ps.lens[int(block)]))
            chunk = reply.bits[offset : offset + order]
            if len(chunk) != order:
                raise SessionAborted("syndrome reply too short", local=True)
            self.synd_cache[reply.pass_no][int(block)] = bits_to_syndrome(chunk)
            offset += order
        if offset != len(reply.bits):
            raise SessionAborted("syndrome reply has trailing bits", local=True)


def _outcome(key: KeyBuffer, bits: np.ndarray, transcript, est_num: int, est_den: int,
             verified: bool, passes_run: int, flips: int, hash_rounds: int) -> ReconOutcome:
    """Meter one side's correction transcript and package the corrected key."""
    est = est_num / est_den if est_den else 0.0
    disclosed = leak_meter(transcript)
    f_est = shannon_leak_per_bit(est)
    efficiency = (disclosed / (f_est * len(bits))) if f_est > 0 else (
        0.0 if disclosed == 0 else math.inf)
    corrected = KeyBuffer(stage=Stage.CORRECTED, bits=bits,
                          leaked_bits=key.leaked_bits + disclosed)
    return ReconOutcome(corrected_key=corrected, estimated_ber=est,
                        disclosed_bits=disclosed, efficiency=efficiency,
                        verified=verified, passes_run=passes_run,
                        flips=flips, hash_rounds=hash_rounds,
                        est_num=est_num, est_den=est_den)


def _reconcile_alice(key: KeyBuffer, endpoint: Endpoint, config: ReconConfig,
                     first_message=None) -> ReconOutcome:
    bits = key.bits.copy()
    corr = _AliceCorrector(bits, endpoint)
    transcript_start = len(endpoint.messages)
    est_num, est_den = 0, 1
    passes_run = 0
    hash_rounds = 0
    verified = False
    while True:
        if first_message is not None:
            message, first_message = first_message, None
        else:
            message = endpoint.expect(Kind.SHUFFLE_SEED, Kind.VERIFY_HASH, Kind.BLOCK_PARITY)
        if message.kind is Kind.SHUFFLE_SEED:
            announce = message.payload
            if announce.pass_no == 1 and announce.est_den:
                est_num, est_den = announce.est_num, announce.est_den
            parity_msg = endpoint.expect(Kind.BLOCK_PARITY).payload
            if parity_msg.pass_no != announce.pass_no:
                raise SessionAborted("parity pass number mismatch", local=True)
            corr.begin_pass(announce, parity_msg.parities)
            corr.drain(announce.pass_no)
            passes_run += 1
        elif message.kind is Kind.VERIFY_HASH:
            theirs = message.payload
            hash_rounds += 1
            mine = _verify_hash_bits(bits, theirs.seed, theirs.nbits)
            endpoint.send(VerifyHash(seed=theirs.seed, digest=mine, nbits=theirs.nbits))
            if mine == theirs.digest:
                verified = True
                break
            # Bob decides: one extra pass arrives next, or an abort.
        else:
            raise SessionAborted("unexpected BlockParity", local=True)
    return _outcome(key, bits, endpoint.messages[transcript_start:], est_num, est_den,
                    verified, passes_run, corr.flips, hash_rounds)


def _serve_pass(endpoint: Endpoint, structures: dict[int, _PassStructure],
                bits: np.ndarray, pass_no: int, seed: int, block_size: int,
                est_num: int, est_den: int) -> None:
    """Bob's side of one pass: announce, disclose parities, answer queries."""
    endpoint.send(ShuffleSeed(pass_no=pass_no, seed=seed, block_size=block_size,
                              est_num=est_num, est_den=est_den))
    ps = _PassStructure(pass_no, seed, block_size, len(bits))
    structures[pass_no] = ps
    endpoint.send(BlockParity(pass_no=pass_no, parities=ps.parities(bits)))
    while True:
        query = endpoint.expect(Kind.SYNDROME).payload
        if query.is_query and len(query.blocks) == 0:
            return
        if not query.is_query:
            raise SessionAborted("expected syndrome query", local=True)
        target = structures.get(query.pass_no)
        if target is None:
            raise SessionAborted(f"query for unknown pass {query.pass_no}", local=True)
        chunks = [target.syndrome_bits(bits, int(b)) for b in query.blocks]
        payload = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
        endpoint.send(Syndrome(pass_no=query.pass_no, blocks=query.blocks, bits=payload))


def _reconcile_bob(key: KeyBuffer, endpoint: Endpoint, config: ReconConfig,
                   est_num: int, est_den: int, rng: np.random.Generator) -> ReconOutcome:
    bits = key.bits.copy()
    transcript_start = len(endpoint.messages)
    est = est_num / est_den if est_den else 0.0
    schedule = block_schedule(est, len(bits), config.passes, sample_size=est_den)
    structures: dict[int, _PassStructure] = {}
    passes_run = 0
    hash_rounds = 0
    verified = False
    for pass_no, block_size in enumerate(schedule, start=1):
        _serve_pass(endpoint, structures, bits, pass_no, draw_seed(rng), block_size,
                    est_num, est_den)
        passes_run += 1
    extra_available = True
    while True:
        hash_seed = draw_seed(rng)
        mine = _verify_hash_bits(bits, hash_seed, config.hash_bits)
        endpoint.send(VerifyHash(seed=hash_seed, digest=mine, nbits=config.hash_bits))
        hash_rounds += 1
        theirs = endpoint.expect(Kind.VERIFY_HASH).payload
        if theirs.digest == mine:
            verified = True
            break
        if not extra_available:
            reason = "corrected keys still differ after extra pass"
            endpoint.abort(reason)
            raise SessionAborted(reason, local=True)
        extra_available = False
        pass_no = passes_run + 1
        # restart near the bottom of the ladder: whatever survived the
        # doubling schedule was hiding in overloaded blocks
        extra_k = schedule[min(1, len(schedule) - 1)]
        _serve_pass(endpoint, structures, bits, pass_no, draw_seed(rng),
                    extra_k, est_num, est_den)
        passes_run += 1
    return _outcome(key, bits, endpoint.messages[transcript_start:], est_num, est_den,
                    verified, passes_run, 0, hash_rounds)


def reconcile(key: KeyBuffer, endpoint: Endpoint, config: ReconConfig, role: str,
              est_num: int, est_den: int,
              rng: np.random.Generator | None = None,
              first_message=None) -> ReconOutcome:
    """Run one side of the correction exchange; ``role`` is alice or bob.

    Alice ends up with Bob's key (he is the reference); the estimate is
    announced by Bob with the first pass.  ``first_message`` lets a caller
    hand Alice a message it already pulled off the channel.
    """
    if len(key) == 0:
        raise ValueError("cannot reconcile an empty key")
    if role == "alice":
        return _reconcile_alice(key, endpoint, config, first_message=first_message)
    if role == "bob":
        if rng is None:
            raise ValueError("bob needs an rng for shuffle and hash seeds")
        return _reconcile_bob(key, endpoint, config, est_num, est_den, rng)
    raise ValueError("role must be 'alice' or 'bob'")


def estimate_ber_bob(key: KeyBuffer, endpoint: Endpoint, config: ReconConfig,
                     rng: np.random.Generator) -> tuple[int, int, KeyBuffer]:
    """Bob's half of estimation: sample, compare, trim.

    Returns ``(disagreements, sample_size, trimmed_key)``.
    """
    n = len(key)
    if n == 0:
        raise ValueError("cannot sample an empty key")
    sample_size = max(1, int(round(config.sample_fraction * n)))
    positions = np.sort(rng.choice(n, size=sample_size, replace=False)).astype(np.int64)
    endpoint.send(SampleRequest(positions=positions))
    reveal = endpoint.expect(Kind.SAMPLE_REVEAL).payload
    if len(reveal.bits) != sample_size:
        raise SessionAborted("sample reveal size mismatch", local=True)
    disagreements = int(np.count_nonzero(reveal.bits != key.bits[positions]))
    return disagreements, sample_size, _trim(key, positions)


def estimate_ber_alice(key: KeyBuffer, endpoint: Endpoint,
                       first_message=None) -> KeyBuffer:
    """Alice's half: reveal the requested bits, trim the same positions."""
    if first_message is None:
        first_message = endpoint.expect(Kind.SAMPLE_REQUEST)
    request = first_message.payload
    positions = request.positions
    if len(positions) == 0:
        raise SessionAborted("empty sample request", local=True)
    if len(key) == 0 or positions[-1] >= len(key):
        raise SessionAborted("sample position out of range", local=True)
    endpoint.send(SampleReveal(bits=key.bits[positions]))
    return _trim(key, positions)


def _trim(key: KeyBuffer, positions: np.ndarray) -> KeyBuffer:
    keep = np.ones(len(key), dtype=bool)
    keep[positions] = False
    return KeyBuffer(
        stage=key.stage,
        bits=key.bits[keep],
        indices=key.indices[keep] if key.indices is not None else None,
        leaked_bits=key.leaked_bits + len(positions),
    )

