"""Error-rate estimation and interactive error correction (Cascade).

The corrector works in shuffled passes (Brassard & Salvail 1993).  Each
pass splits both keys into blocks sized from the error estimate, and the
reference side (Bob) discloses one parity bit per block.  Alice bisects
every block whose parity differs from his: she learns Bob's parity of the
first half of the range still in question, compares it with her own, keeps
the half that disagrees, and flips the single bit left at the end.  A flip
toggles the parity difference of the block holding that bit in every other
pass built so far; blocks that turn odd are bisected in turn
(backtracking), so each correction propagates through earlier passes.
Every bisection level is one query covering all open ranges of all
passes, so round trips grow with passes, levels and backtracking rounds,
never with the error count.

Each party keeps all built passes in one flat table, so a round trip
costs a fixed handful of array operations however many passes are open.
Alice lays pass p's shuffled positions 0..n at p * (n + 1) + i, the last
slot of each pass standing for its end; Bob lays his prefix parities at
p * n + i, which is the id a bisection query carries on the wire.

A seeded Toeplitz hash of the corrected key closes the exchange: the
universal family privacy amplification also uses, drawn as n + 127 bits
for a digest of ``HASH_BITS`` = 128 bits, a protocol constant, so a
wrong key passes a round with probability 2^-128.  On mismatch one extra
pass runs before the session aborts.  What both parties agreed (the
estimate, the key length and ``passes``) fixes every pass and hash of
that exchange (``correction_plan``); both follow it in one loop
(``_follow_plan``), and Alice aborts any announcement off it.  Keys are uint8 arrays of 0/1 bits.
Disclosure is what the endpoint's ``disclosed_bits`` grows by over the
exchange (``leak_meter``, counted as frames pass): block parities plus
one bit per bisection answer, never queries, seeds or indices.
``Endpoint.expect`` answers any message out of turn with ``Abort``.
``block_syndrome`` is off the session path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitpack import pack_bits
from .messages import (
    BlockParity,
    Kind,
    SampleRequest,
    SampleReveal,
    ShuffleSeed,
    Syndrome,
    VerifyHash,
)
from .rng import draw_seed, stream, toeplitz_diagonal
from .transport import Endpoint

BLOCK_SIZE_MIN = 8
BLOCK_SIZE_MAX = 4096
BLOCK_SIZE_FACTOR = 0.73
HASH_BITS = 128


@dataclass
class ReconOutcome:
    corrected_key: np.ndarray
    estimated_ber: float
    disclosed_bits: int
    efficiency: float
    verified: bool
    passes_run: int
    flips: int
    hash_rounds: int


def shannon_leak_per_bit(eps: float) -> float:
    """Minimum error-correction disclosure per key bit (binary entropy)."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("error rate must lie in [0, 1]")
    if eps in (0.0, 1.0):
        return 0.0
    return -eps * math.log2(eps) - (1.0 - eps) * math.log2(1.0 - eps)


def block_schedule(est: float, n: int, passes: int) -> list[int]:
    """Block sizes per pass: ~0.73/est to start, doubling as errors thin.

    The estimate is used as measured.  Bisection finds an error in any odd
    block however many it holds, so an overloaded block costs only the
    errors it hides in pairs, which later passes pick up; widening the
    estimate to avoid that costs more parities than it saves.
    """
    if n < 1:
        raise ValueError("empty key")
    if est <= 0.0:
        # sampling found nothing; one cheap screening pass
        return [min(BLOCK_SIZE_MAX, n)]
    k1 = int(round(BLOCK_SIZE_FACTOR / est))
    k1 = max(BLOCK_SIZE_MIN, min(BLOCK_SIZE_MAX, k1))
    return [min(k1 << (p - 1), BLOCK_SIZE_MAX, max(n, BLOCK_SIZE_MIN)) for p in range(1, passes + 1)]


def correction_plan(est: float, n: int, passes: int) -> list[int]:
    """Block size of every pass Bob may run: the schedule, then the extra pass.

    The extra pass runs only when the hash after the schedule differs.  It
    restarts near the bottom of the ladder: whatever survived the doubling
    schedule was hiding in overloaded blocks.
    """
    schedule = block_schedule(est, n, passes)
    return schedule + [schedule[min(1, len(schedule) - 1)]]


# No session calls this since Cascade replaced Hamming correction; it stays
# because the benchmark's tracer wraps this name on this module.
def block_syndrome(bits: np.ndarray) -> int:
    """XOR of the 1-based positions of a block's set bits."""
    return int(np.bitwise_xor.reduce(np.flatnonzero(bits) + 1))


def _permutation(seed: int, pass_no: int, n: int) -> np.ndarray:
    return stream(seed, f"recon-perm-{pass_no}").permutation(n)


def _block_bounds(n: int, block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each block of a pass, in shuffled positions."""
    starts = np.arange(0, n, block_size, dtype=np.int64)
    return starts, np.minimum(starts + block_size, n)


def _shuffled_prefix(key_bits: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Entry i is the parity of the first i key bits in the order ``perm``."""
    out = np.zeros(len(perm) + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(key_bits[perm], out=out[1:])
    return out


def _verify_hash_bits(key_bits: np.ndarray, seed: int, nbits: int) -> bytes:
    """Toeplitz (universal family) hash of a key, as packed bytes.

    The nbits x n binary Toeplitz matrix is fixed by its n + nbits - 1
    diagonal bits, ``random(n + nbits - 1) < 0.5`` from the labeled stream
    ``verify-hash`` of the seed (``rng.toeplitz_diagonal``); entry (i, j)
    is diagonal bit ``i - j + n - 1``, the convention of
    ``privacy.compress``.  With the diagonal reversed, row i is the
    contiguous slice starting at ``nbits - 1 - i``, so digest bit i is the
    parity of that slice ANDed with the key: exact integer counts at any
    key length, including keys shorter than the digest.
    """
    n = len(key_bits)
    diagonal = toeplitz_diagonal(stream(seed, "verify-hash"), n + nbits - 1)
    reversed_diagonal = diagonal[::-1].view(bool).copy()
    key = key_bits.astype(bool)
    row = np.empty(n, dtype=bool)
    digest = np.empty(nbits, dtype=np.uint8)
    for i in range(nbits):
        start = nbits - 1 - i
        np.logical_and(reversed_diagonal[start : start + n], key, out=row)
        digest[i] = np.count_nonzero(row) & 1
    return pack_bits(digest)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Distinct values in ascending order; sorts ``values`` in place.

    ``np.unique`` would do, but its first call imports ``numpy.ma``, which
    costs every fresh process about 14 ms.
    """
    values.sort()
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class _AliceCorrector:
    """Alice's view: bisects odd blocks toward Bob's reference key.

    A bisection query names each position ``mid`` by ``pass index * n +
    mid``, and Bob answers with the parity of his first ``mid`` shuffled
    bits of that pass.  Alice keeps every such prefix parity he has
    disclosed, starting with the block boundaries his block parities
    already fix.  Consecutive known positions cut each block into
    segments whose parity she can check against his; a segment that
    disagrees holds an error, and its midpoint is the next question.
    Known positions are never forgotten, so a block that turns odd again
    later is searched only within the segment that changed.

    All passes share one position space: shuffled position i of pass p
    is g = p * (n + 1) + i, and slot i = n marks the pass's end, so no
    segment or block ever spans two passes.  ``perm`` maps g to its key
    position, ``inv[p]`` maps a key position to its g in pass p,
    ``known`` marks the g whose prefix parity Bob has disclosed and
    ``bob_prefix`` holds it.  A block is named by the g of its start,
    and the wire id of g is g - g // (n + 1).  The table holds a row for
    every pass of the plan from the start, so building a pass copies none
    of the others; the extra pass's row stays untouched unless that pass
    runs.  ``perm`` and ``inv`` hold int32 whenever every g fits, which is
    any key a session can carry: 10 bytes per key bit and pass, against
    18 with int64.
    """

    def __init__(self, bits: np.ndarray, endpoint: Endpoint, rows: int):
        n = len(bits)
        self.bits = bits
        self.endpoint = endpoint
        self.stride = n + 1
        self.built = 0
        # int32 when every g fits
        index = np.int32 if rows * self.stride <= 2**31 else np.int64
        self.block_sizes = np.zeros(rows, dtype=np.int64)
        self.perm = np.empty(rows * self.stride, dtype=index)
        self.inv = np.empty((rows, n), dtype=index)
        self.known = np.zeros(rows * self.stride, dtype=bool)
        self.bob_prefix = np.zeros(rows * self.stride, dtype=np.uint8)
        self.flips = 0

    def begin_pass(self, seed: int, block_size: int, bob_parities: np.ndarray) -> np.ndarray:
        """Build the next pass; return its blocks that disagree with Bob."""
        n = len(self.bits)
        # a block longer than the key is the whole key
        block_size = min(block_size, n)
        starts, ends = _block_bounds(n, block_size)
        if len(bob_parities) != len(starts):
            self.endpoint.fail("block parity count mismatch")
        bob_parities = np.asarray(bob_parities, dtype=np.uint8)
        p, base = self.built, self.built * self.stride
        self.block_sizes[p] = block_size
        perm = self.perm[base : base + n]
        perm[:] = _permutation(seed, p + 1, n)
        self.inv[p, perm] = np.arange(base, base + n, dtype=self.inv.dtype)
        self.known[base + starts] = True
        self.known[base + n] = True
        self.bob_prefix[base + ends] = np.bitwise_xor.accumulate(bob_parities)
        self.built += 1
        prefix = _shuffled_prefix(self.bits, perm)
        return base + starts[(prefix[ends] ^ prefix[starts] ^ bob_parities).nonzero()[0]]

    def _block_starts(self, g: np.ndarray) -> np.ndarray:
        """The distinct blocks holding positions g, in ascending order."""
        p, i = np.divmod(g, self.stride)
        return _sorted_unique(g - i % self.block_sizes[p])

    def _odd_segments(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segments ``[lo, hi)`` of the given blocks whose parity differs from Bob's."""
        if not len(blocks):
            return blocks, blocks
        p, i = np.divmod(blocks, self.stride)
        # the last block of a pass ends at its slot n
        lens = np.minimum(self.block_sizes[p], (self.stride - 1) - i)
        offsets = np.add.accumulate(lens)
        total = int(offsets[-1])
        offsets -= lens
        # the blocks' positions laid end to end
        at = (blocks - offsets).repeat(lens)
        at += np.arange(total, dtype=np.int64)
        # every block start is known, so no segment crosses a block boundary
        cuts = self.known[at].nonzero()[0]
        ends = np.empty_like(cuts)
        ends[:-1] = cuts[1:]
        ends[-1] = total
        lo = at[cuts]
        hi = lo + (ends - cuts)
        # Alice's parity of each segment against Bob's
        odd = np.bitwise_xor.reduceat(self.bits[self.perm[at]], cuts)
        odd ^= self.bob_prefix[lo]
        odd ^= self.bob_prefix[hi]
        odd = odd.view(bool)
        return lo[odd], hi[odd]

    def _ask(self, mid: np.ndarray) -> None:
        """One round trip: learn Bob's prefix parity at every midpoint."""
        ids = mid - mid // self.stride
        self.endpoint.send(Syndrome(pass_no=self.built, blocks=ids,
                                    bits=np.zeros(0, dtype=np.uint8)))
        reply = self.endpoint.expect(Kind.SYNDROME).payload
        if (reply.pass_no != self.built or len(reply.blocks) != len(ids)
                or np.count_nonzero(reply.blocks != ids) or len(reply.bits) != len(ids)):
            self.endpoint.fail("bisection reply does not match its query")
        self.known[mid] = True
        self.bob_prefix[mid] = reply.bits

    def drain(self, odd_blocks: np.ndarray) -> None:
        """Bisect until no segment of any built pass disagrees, then end the pass.

        Each round bisects every disagreeing segment of every pass at once
        and flips the bits that single-bit segments pin down; the next
        round looks again only at the blocks those segments and flips
        touched.  With an honest reference every flip removes one
        disagreement, so the flips never outnumber the key bits; more
        means the peer's answers are inconsistent, and the session aborts.
        The same budget bounds the rounds: without a flip the disagreeing
        segments only narrow, so at most log2(largest block) + 1 rounds
        pass between two flips.
        """
        n = len(self.bits)
        # From the second pass on, half the disagreeing blocks wait until the
        # other half and the backtracking it sets off have settled: that
        # backtracking runs through the smaller blocks of earlier passes and
        # often corrects a waiting block's error for fewer bits than
        # bisecting the waiting block would cost.
        if self.built > 1:
            todo, held = odd_blocks[0::2], odd_blocks[1::2]
        else:
            todo, held = odd_blocks, odd_blocks[:0]
        while True:
            lo, hi = self._odd_segments(todo)
            if not len(lo):
                if not len(held):
                    break
                todo, held = held, held[:0]
                continue
            wide = hi - lo > 1
            asked = np.count_nonzero(wide)
            if asked:
                self._ask((lo + (hi - lo) // 2)[wide])
            touched = lo
            # about half the rounds pin down no single bit
            if asked < len(lo):
                positions = _sorted_unique(self.perm[lo[~wide]])
                self.bits[positions] ^= 1
                self.flips += len(positions)
                if self.flips > n:
                    self.endpoint.fail("bisection flipped more bits than the key holds")
                touched = np.concatenate([lo, self.inv[:self.built, positions].ravel()])
            todo = self._block_starts(touched)
        self.endpoint.send(Syndrome(pass_no=self.built,
                                    blocks=np.zeros(0, dtype=np.int64),
                                    bits=np.zeros(0, dtype=np.uint8)))


def _outcome(bits: np.ndarray, disclosed: int, est: float,
             passes_run: int, hash_rounds: int, flips: int) -> ReconOutcome:
    """Package the verified key with the bits its exchange disclosed."""
    f_est = shannon_leak_per_bit(est)
    efficiency = (disclosed / (f_est * len(bits))) if f_est > 0 else (
        0.0 if disclosed == 0 else math.inf)
    return ReconOutcome(corrected_key=bits, estimated_ber=est,
                        disclosed_bits=disclosed, efficiency=efficiency,
                        verified=True, passes_run=passes_run,
                        flips=flips, hash_rounds=hash_rounds)


def _follow_plan(plan: list[int], run_pass, hash_round) -> tuple[int, int] | None:
    """The loop both parties run: the scheduled passes, a hash, and on a
    mismatch the extra pass and a last hash.

    ``run_pass(pass_no, block_size)`` runs one pass of the plan and
    ``hash_round()`` one hash round, true when the digests match.  Returns
    the passes and hash rounds run up to the matching hash, or None when
    the last hash differs too.
    """
    for pass_no, block_size in enumerate(plan, start=1):
        run_pass(pass_no, block_size)
        if pass_no >= len(plan) - 1 and hash_round():
            return pass_no, pass_no + 2 - len(plan)
    return None


def _reconcile_alice(key: np.ndarray, endpoint: Endpoint, passes: int, est: float,
                     first_message=None) -> ReconOutcome:
    bits = np.array(key, dtype=np.uint8)
    plan = correction_plan(est, len(bits), passes)
    corr = _AliceCorrector(bits, endpoint, len(plan))
    disclosed_before = endpoint.disclosed_bits
    first = first_message or endpoint.expect(Kind.SHUFFLE_SEED)
    est_counts = (first.payload.est_num, first.payload.est_den)

    def run_pass(pass_no: int, block_size: int) -> None:
        announce = (first if pass_no == 1 else endpoint.expect(Kind.SHUFFLE_SEED)).payload
        # each pass costs Alice several key-sized arrays, so Bob may run
        # only the plan both parties derive, under pass 1's estimate
        announced = (announce.pass_no, announce.block_size, announce.est_num, announce.est_den)
        planned = (pass_no, block_size, *est_counts)
        if announced != planned:
            endpoint.fail(f"pass, block size and estimate {announced} off the plan {planned}")
        parity_msg = endpoint.expect(Kind.BLOCK_PARITY).payload
        if parity_msg.pass_no != pass_no:
            endpoint.fail("parity pass number mismatch")
        corr.drain(corr.begin_pass(announce.seed, block_size, parity_msg.parities))

    def hash_round() -> bool:
        theirs = endpoint.expect(Kind.VERIFY_HASH).payload
        # the length is fixed by the protocol; hashing a length the
        # peer picks would cost a key-sized row per bit
        if theirs.nbits != HASH_BITS:
            endpoint.fail(f"verify hash of {theirs.nbits} bits, agreed {HASH_BITS}")
        mine = _verify_hash_bits(bits, theirs.seed, HASH_BITS)
        endpoint.send(VerifyHash(seed=theirs.seed, digest=mine, nbits=HASH_BITS))
        return mine == theirs.digest

    run = _follow_plan(plan, run_pass, hash_round)
    if run is None:
        # Bob ends the session after the last mismatch: his Abort raises
        # here, and anything else is out of turn
        endpoint.expect(Kind.ABORT)
    return _outcome(bits, endpoint.disclosed_bits - disclosed_before, est, *run, corr.flips)


def _bisection_answers(ids: np.ndarray, prefixes: np.ndarray) -> np.ndarray:
    """Bob's parity of the first ``mid`` shuffled bits of pass p, for each id p * n + mid."""
    return prefixes[ids] & 1


def _serve_pass(endpoint: Endpoint, prefixes: np.ndarray, bits: np.ndarray,
                pass_no: int, seed: int, block_size: int,
                est_counts: tuple[int, int]) -> None:
    """Bob's side of one pass: announce, disclose parities, answer queries.

    ``prefixes`` is the table of every pass's prefix parities: bit 0 of
    entry p * n + i is the parity of the first i shuffled bits of pass p,
    and bit 1 marks an entry already answered.  This pass fills its slice.
    An honest peer keeps every answer, so a query that names an answered
    id again ends the session instead of running without limit.
    """
    n = len(bits)
    endpoint.send(ShuffleSeed(pass_no=pass_no, seed=seed, block_size=block_size,
                              est_num=est_counts[0], est_den=est_counts[1]))
    prefix = _shuffled_prefix(bits, _permutation(seed, pass_no, n))
    prefixes[(pass_no - 1) * n : pass_no * n] = prefix[:-1]
    starts, ends = _block_bounds(n, block_size)
    endpoint.send(BlockParity(pass_no=pass_no, parities=prefix[ends] ^ prefix[starts]))
    while True:
        query = endpoint.expect(Kind.SYNDROME).payload
        if not query.is_query or query.pass_no != pass_no:
            endpoint.fail(f"expected a bisection query for pass {pass_no}")
        if len(query.blocks) == 0:
            return
        if query.blocks[-1] >= pass_no * n:
            endpoint.fail("bisection query names a pass not yet built")
        if np.count_nonzero(prefixes[query.blocks] & 2):
            endpoint.fail("bisection query repeats an answered position")
        answers = _bisection_answers(query.blocks, prefixes)
        prefixes[query.blocks] |= 2
        endpoint.send(Syndrome(pass_no=pass_no, blocks=query.blocks, bits=answers))


def _reconcile_bob(key: np.ndarray, endpoint: Endpoint, passes: int, est: float,
                   est_counts: tuple[int, int], rng: np.random.Generator) -> ReconOutcome:
    bits = np.array(key, dtype=np.uint8)
    disclosed_before = endpoint.disclosed_bits
    plan = correction_plan(est, len(bits), passes)
    prefixes = np.zeros(len(plan) * len(bits), dtype=np.uint8)

    def run_pass(pass_no: int, block_size: int) -> None:
        _serve_pass(endpoint, prefixes, bits, pass_no, draw_seed(rng), block_size, est_counts)

    def hash_round() -> bool:
        hash_seed = draw_seed(rng)
        mine = _verify_hash_bits(bits, hash_seed, HASH_BITS)
        endpoint.send(VerifyHash(seed=hash_seed, digest=mine, nbits=HASH_BITS))
        theirs = endpoint.expect(Kind.VERIFY_HASH).payload
        # a digest under another seed or length says nothing about the keys
        if theirs.seed != hash_seed or theirs.nbits != HASH_BITS:
            endpoint.fail(f"verify hash echo of seed {theirs.seed} and {theirs.nbits} bits, "
                          f"sent seed {hash_seed} and {HASH_BITS} bits")
        return theirs.digest == mine

    run = _follow_plan(plan, run_pass, hash_round)
    if run is None:
        endpoint.fail("corrected keys still differ after extra pass")
    return _outcome(bits, endpoint.disclosed_bits - disclosed_before, est, *run, 0)


def reconcile(key: np.ndarray, endpoint: Endpoint, passes: int, role: str, est: float,
              est_counts: tuple[int, int] = (0, 1),
              rng: np.random.Generator | None = None,
              first_message=None) -> ReconOutcome:
    """Run one side of the correction exchange; ``role`` is alice or bob.

    Alice ends up with Bob's key (he is the reference).  ``est`` is the
    error estimate both parties agreed on, and with the key length and
    ``passes`` it fixes the plan of passes (``correction_plan``).  Bob
    announces the estimate with each pass as ``est_counts``, the sample's
    disagreements and size; Alice aborts any pass that differs from the
    plan or from pass 1's estimate.  The input key is left as it is; the
    outcome carries a corrected copy.  ``first_message`` lets a caller
    hand Alice pass 1's ``ShuffleSeed`` it already pulled off the channel.
    """
    if len(key) == 0:
        raise ValueError("cannot reconcile an empty key")
    if role == "alice":
        return _reconcile_alice(key, endpoint, passes, est, first_message=first_message)
    if role == "bob":
        if rng is None:
            raise ValueError("bob needs an rng for shuffle and hash seeds")
        return _reconcile_bob(key, endpoint, passes, est, est_counts, rng)
    raise ValueError("role must be 'alice' or 'bob'")


def estimate_ber_bob(key: np.ndarray, endpoint: Endpoint, sample_size: int,
                     rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Bob's half of estimation: sample ``sample_size`` bits, compare, drop them.

    Returns ``(disagreements, remaining_key)``.
    """
    n = len(key)
    if n == 0:
        raise ValueError("cannot sample an empty key")
    positions = np.sort(rng.choice(n, size=sample_size, replace=False)).astype(np.int64)
    endpoint.send(SampleRequest(positions=positions))
    reveal = endpoint.expect(Kind.SAMPLE_REVEAL).payload
    if len(reveal.bits) != sample_size:
        endpoint.fail("sample reveal size mismatch")
    disagreements = int(np.count_nonzero(reveal.bits != key[positions]))
    return disagreements, np.delete(key, positions)


def estimate_ber_alice(key: np.ndarray, endpoint: Endpoint, sample_size: int) -> np.ndarray:
    """Alice's half: reveal the requested bits, drop the same positions.

    The request must name exactly the agreed ``sample_size`` positions,
    at least one: a larger sample could reveal the whole key.
    """
    positions = endpoint.expect(Kind.SAMPLE_REQUEST).payload.positions
    if len(positions) != sample_size:
        endpoint.fail(f"sample request of {len(positions)} positions, agreed {sample_size}")
    if positions[-1] >= len(key):
        endpoint.fail("sample position out of range")
    endpoint.send(SampleReveal(bits=key[positions]))
    return np.delete(key, positions)
