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
slot of each pass standing for its end, and keeps there both her own key
in that pass's order and the prefix parities Bob disclosed; Bob lays his
prefix parities at p * n + i, which is the id a bisection query carries
on the wire.  A round reads only what it changed: a segment split at a
new midpoint keeps whichever half disagrees, which reading its first
half settles, and only the blocks holding a flipped bit are scanned
whole.

A seeded Toeplitz hash of the corrected key closes the exchange: the
universal family privacy amplification also uses, drawn as n + 127 bits
for a digest of ``HASH_BITS`` = 128 bits, a protocol constant, so a
wrong key passes a round with probability 2^-128.  On mismatch one extra
pass runs before the session aborts.  What both parties agreed (the
estimate, the key length and ``passes``) fixes every pass and hash of
that exchange (``correction_plan``); both follow it in one loop
(``_follow_plan``), and Alice aborts any announcement off it.  Bob's key
never changes, so every scheduled pass is fixed before the first: he
builds them all and announces their seeds and block parities in one
``Schedule``, and the extra pass, when a hash differs, in one
``ExtraPass``.  Alice drains the announced passes in order, each query
naming the pass she is draining, and ends with one query that lists no
ids; Bob's replies carry his answer bits alone.  Keys are uint8 arrays of
0/1 bits.
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
    ExtraPass,
    Kind,
    SampleRequest,
    SampleReveal,
    Schedule,
    Syndrome,
    VerifyHash,
    leak_meter,
)
from .rng import draw_seed, stream, toeplitz_diagonal
from .transport import Endpoint

BLOCK_SIZE_MIN = 8
BLOCK_SIZE_MAX = 4096
BLOCK_SIZE_FACTOR = 0.73
HASH_BITS = 128
# a bisection reply lists no ids, and a query no bits
_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_BITS = np.zeros(0, dtype=np.uint8)


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


def _block_count(n: int, block_size: int) -> int:
    """How many blocks a pass cuts an n-bit key into; the last may be short."""
    return -(-n // block_size)


def _block_bounds(n: int, block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each block of a pass, in shuffled positions."""
    starts = np.arange(_block_count(n, block_size), dtype=np.int64)
    starts *= block_size
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


def _runs(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the runs ``[starts, starts + lens)`` laid end to end, and
    the offset of each run's first position in that layout; every run is
    non-empty."""
    offsets = np.add.accumulate(lens)
    total = int(offsets[-1])
    offsets -= lens
    at = (starts - offsets).repeat(lens)
    at += np.arange(total, dtype=np.int64)
    return at, offsets


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
    position, ``inv[p]`` maps a key position to its g in pass p, and
    ``shuffled`` holds Alice's current bit at g, so a segment's parity is
    read from one contiguous run; a flip toggles the bit's entry in every
    built pass.  ``bob_prefix`` holds ``2 | parity`` at every g whose
    prefix parity Bob has disclosed and 0 elsewhere; the 2s cancel in the
    XOR of two known entries.  A block is named by the g of its start,
    and the wire id of g is g - g // (n + 1).  The table holds a row for
    every pass of the plan from the start, so building a pass copies none
    of the others; every row starts out unwritten (``np.empty`` or
    ``np.zeros``), so the extra pass's row stays untouched unless that
    pass runs.  ``perm`` and ``inv`` hold int32 whenever every g fits,
    which is any key a session can carry: 10 bytes per key bit and pass,
    against 18 with int64.
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
        self.shuffled = np.empty(rows * self.stride, dtype=np.uint8)
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
        p, base = self.built, self.built * self.stride
        self.block_sizes[p] = block_size
        perm = self.perm[base : base + n]
        order = _permutation(seed, p + 1, n)
        perm[:] = order
        row = self.shuffled[base : base + n]
        # Take by the int64 permutation itself, as an int32 index would be
        # copied to int64, and unchecked ("clip"), as a permutation is in
        # range and the check buffers a key-sized copy.  Free it before
        # the inverse's arange: a session's memory peaks in this call.
        np.take(self.bits, order, out=row, mode="clip")
        del order
        self.inv[p, perm] = np.arange(base, base + n, dtype=self.inv.dtype)
        # the pass starts at parity 0, and every block end is disclosed
        self.bob_prefix[base] = 2
        self.bob_prefix[base + ends] = np.bitwise_xor.accumulate(bob_parities) | 2
        self.built += 1
        odd = np.bitwise_xor.reduceat(row, starts)
        odd ^= bob_parities
        return base + starts[odd.nonzero()[0]]

    def _block_of(self, g: np.ndarray) -> np.ndarray:
        """The start of the block holding each position g."""
        p, i = np.divmod(g, self.stride)
        return g - i % self.block_sizes[p]

    def _block_starts(self, g: np.ndarray) -> np.ndarray:
        """The distinct blocks holding positions g, in ascending order."""
        return _sorted_unique(self._block_of(g))

    def _odd_segments(self, blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Segments ``[lo, hi)`` of the given blocks whose parity differs from Bob's."""
        if not len(blocks):
            return blocks, blocks
        p, i = np.divmod(blocks, self.stride)
        # the last block of a pass ends at its slot n
        lens = np.minimum(self.block_sizes[p], (self.stride - 1) - i)
        at, _ = _runs(blocks, lens)
        # every block start is known, so no segment crosses a block boundary
        cuts = (self.bob_prefix[at] > 1).nonzero()[0]
        ends = np.empty_like(cuts)
        ends[:-1] = cuts[1:]
        ends[-1] = len(at)
        lo = at[cuts]
        hi = lo + (ends - cuts)
        # Alice's parity of each segment against Bob's
        odd = np.bitwise_xor.reduceat(self.shuffled[at], cuts)
        odd ^= self.bob_prefix[lo]
        odd ^= self.bob_prefix[hi]
        odd = odd.view(bool)
        return lo[odd], hi[odd]

    def _odd_halves(self, lo: np.ndarray, mid: np.ndarray,
                    hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The half of each odd segment ``[lo, hi)`` that disagrees with Bob
        once his prefix parity at ``mid`` is known.

        Bob's parity at ``mid`` enters both halves and cancels, so exactly
        one half is odd whatever he answered, as long as none of Alice's
        bits in the segment changed since it was found odd: reading the
        first half settles which.
        """
        if not len(lo):
            return lo, hi
        at, offsets = _runs(lo, mid - lo)
        first = np.bitwise_xor.reduceat(self.shuffled[at], offsets)
        first ^= self.bob_prefix[lo]
        first ^= self.bob_prefix[mid]
        first = first.view(bool)
        return np.where(first, lo, mid), np.where(first, mid, hi)

    def _ask(self, mid: np.ndarray) -> None:
        """One round trip: learn Bob's prefix parity at every midpoint.

        The reply carries his answers alone, one bit per id in id order.
        """
        self.endpoint.send(Syndrome(pass_no=self.built, blocks=mid - mid // self.stride,
                                    bits=_NO_BITS))
        reply = self.endpoint.expect(Kind.SYNDROME).payload
        if reply.pass_no != self.built or len(reply.blocks) or len(reply.bits) != len(mid):
            self.endpoint.fail(f"bisection reply of {len(reply.bits)} bits and "
                               f"{len(reply.blocks)} ids for pass {reply.pass_no} to a query "
                               f"of {len(mid)} ids for pass {self.built}")
        self.bob_prefix[mid] = reply.bits | 2

    def _round(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One bisection round over the odd segments ``[lo, hi)``, ascending.

        Asks Bob for the midpoint of every segment longer than one bit and
        flips the bits that single-bit segments pin down.  Returns the odd
        segments of every block the round touched, in ascending order: a
        block holding a flipped bit is scanned whole, and any other keeps
        the odd half of each segment it split.  With an honest reference
        every flip removes one disagreement, so the flips never outnumber
        the key bits; more means the peer's answers are inconsistent, and
        the session aborts before they are made.
        """
        wide = hi - lo > 1
        lo, hi, single = lo[wide], hi[wide], lo[~wide]
        mid = lo + (hi - lo) // 2
        if len(mid):
            self._ask(mid)
        # about half the rounds pin down no single bit
        if not len(single):
            return self._odd_halves(lo, mid, hi)
        positions = _sorted_unique(self.perm[single])
        if self.flips + len(positions) > len(self.bits):
            self.endpoint.fail("bisection flipped more bits than the key holds")
        self.flips += len(positions)
        self.bits[positions] ^= 1
        flipped = self.inv[:self.built, positions].ravel()
        self.shuffled[flipped] ^= 1
        # each single-bit segment's block holds its flip, so it is rescanned
        rescan = self._block_starts(flipped)
        blocks = self._block_of(lo)
        where = np.minimum(np.searchsorted(rescan, blocks), len(rescan) - 1)
        kept = rescan[where] != blocks
        lo, hi = self._odd_halves(lo[kept], mid[kept], hi[kept])
        found_lo, found_hi = self._odd_segments(rescan)
        lo = np.concatenate([lo, found_lo])
        hi = np.concatenate([hi, found_hi])
        order = lo.argsort(kind="stable")
        return lo[order], hi[order]

    def drain(self, odd_blocks: np.ndarray) -> None:
        """Bisect until no segment of any built pass disagrees.

        Each round (``_round``) bisects every disagreeing segment of every
        pass at once; the next round looks again only at the halves it
        split and the blocks its flips touched.  The flip budget also
        bounds the rounds: without a flip the disagreeing segments only
        narrow, so at most log2(largest block) + 1 rounds pass between two
        flips.
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
        # a fresh pass has no cut inside a block: its odd blocks are its odd
        # segments
        end = (self.built - 1) * self.stride + n
        lo, hi = todo, np.minimum(todo + self.block_sizes[self.built - 1], end)
        while len(lo) or len(held):
            if len(lo):
                lo, hi = self._round(lo, hi)
            else:
                # backtracking may have cut or settled a held block
                lo, hi = self._odd_segments(held)
                held = held[:0]


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


def _follow_plan(plan: list[int], run_passes, hash_round) -> tuple[int, int] | None:
    """The loop both parties run: the scheduled passes and a hash, then on a
    mismatch the extra pass and a last hash.

    ``run_passes(first, last)`` runs passes ``first`` to ``last`` of the
    plan, announced in one frame, and ``hash_round()`` one hash round, true
    when the digests match.  Returns the passes and hash rounds run up to
    the matching hash, or None when the last hash differs too.
    """
    scheduled = len(plan) - 1
    for rounds, (first, last) in enumerate(((1, scheduled), (len(plan), len(plan))), start=1):
        run_passes(first, last)
        if hash_round():
            return last, rounds
    return None


def _reconcile_alice(key: np.ndarray, endpoint: Endpoint, passes: int, est: float,
                     first_message=None) -> ReconOutcome:
    bits = np.array(key, dtype=np.uint8)
    n = len(bits)
    plan = correction_plan(est, n, passes)
    corr = _AliceCorrector(bits, endpoint, len(plan))
    disclosed_before = endpoint.disclosed_bits
    if first_message is not None:
        # the Schedule taken off the channel already is counted
        disclosed_before -= leak_meter([first_message])

    def run_passes(first: int, last: int) -> None:
        if first == 1:
            announce = (first_message or endpoint.expect(Kind.SCHEDULE)).payload
            seeds = announce.seeds
            # the plan is sized from this estimate, so it must be the agreed one
            num, den = announce.est_num, announce.est_den
            if (num / den if den else 0.0) != est:
                endpoint.fail(f"schedule estimate {num}/{den} off the agreed estimate {est!r}")
        else:
            announce = endpoint.expect(Kind.EXTRA_PASS).payload
            seeds = (announce.seed,)
        # each pass costs Alice several key-sized arrays, so Bob may run
        # only the passes of the plan both parties derive
        counts = [_block_count(n, block_size) for block_size in plan[first - 1 : last]]
        announced = (len(seeds), len(announce.parities))
        if announced != (len(counts), sum(counts)):
            endpoint.fail(f"passes and block parities {announced} off the plan "
                          f"{(len(counts), sum(counts))}")
        at = 0
        for pass_no, seed, count in zip(range(first, last + 1), seeds, counts):
            corr.drain(corr.begin_pass(seed, plan[pass_no - 1],
                                       announce.parities[at : at + count]))
            at += count
        # correction ends with a query that lists no ids
        endpoint.send(Syndrome(pass_no=last, blocks=_NO_IDS, bits=_NO_BITS))

    def hash_round() -> bool:
        theirs = endpoint.expect(Kind.VERIFY_HASH).payload
        # the length is fixed by the protocol; hashing a length the
        # peer picks would cost a key-sized row per bit
        if theirs.nbits != HASH_BITS:
            endpoint.fail(f"verify hash of {theirs.nbits} bits, agreed {HASH_BITS}")
        mine = _verify_hash_bits(bits, theirs.seed, HASH_BITS)
        endpoint.send(VerifyHash(seed=theirs.seed, digest=mine, nbits=HASH_BITS))
        return mine == theirs.digest

    run = _follow_plan(plan, run_passes, hash_round)
    if run is None:
        # Bob ends the session after the last mismatch: his Abort raises
        # here, and anything else is out of turn
        endpoint.expect(Kind.ABORT)
    return _outcome(bits, endpoint.disclosed_bits - disclosed_before, est, *run, corr.flips)


def _build_pass(prefixes: np.ndarray, bits: np.ndarray, pass_no: int, seed: int,
                block_size: int) -> np.ndarray:
    """Fill pass ``pass_no``'s slice of Bob's prefix table; return his
    parity of each of its blocks."""
    n = len(bits)
    prefix = _shuffled_prefix(bits, _permutation(seed, pass_no, n))
    prefixes[(pass_no - 1) * n : pass_no * n] = prefix[:-1]
    starts, ends = _block_bounds(n, block_size)
    return prefix[ends] ^ prefix[starts]


def _serve_queries(endpoint: Endpoint, prefixes: np.ndarray, n: int,
                   first: int, last: int) -> None:
    """Bob's side of passes ``first`` to ``last``: answer bisection queries
    until one lists no ids.

    ``prefixes`` is the table of every pass's prefix parities: bit 0 of
    entry p * n + i is the parity of the first i shuffled bits of pass p,
    and bit 1 marks an entry already answered.  A query names the pass
    Alice is draining, from ``first`` to ``last`` and never going back, and
    ids in the passes up to it; the one that lists no ids names ``last``.
    An honest peer keeps every answer, so a
    query that names an answered id again ends the session instead of
    running without limit.
    """
    current = first
    while True:
        query = endpoint.expect(Kind.SYNDROME).payload
        if not query.is_query:
            endpoint.fail("expected a bisection query")
        if query.pass_no > last:
            endpoint.fail(f"bisection query for pass {query.pass_no}, beyond pass {last}")
        if query.pass_no < current:
            endpoint.fail(f"bisection query for pass {query.pass_no} after pass {current}")
        current = query.pass_no
        ids = query.blocks
        if not len(ids):
            if current != last:
                endpoint.fail(f"correction ends at pass {current}, not at pass {last}")
            return
        if ids[-1] >= current * n:
            endpoint.fail("bisection query names a pass not yet built")
        # one gather gives the repeat check, the answers and the marks
        entries = prefixes[ids]
        if np.count_nonzero(entries > 1):
            endpoint.fail("bisection query repeats an answered position")
        prefixes[ids] = entries | 2
        endpoint.send(Syndrome(pass_no=current, blocks=_NO_IDS, bits=entries & 1))


def _reconcile_bob(key: np.ndarray, endpoint: Endpoint, passes: int, est: float,
                   est_counts: tuple[int, int], rng: np.random.Generator) -> ReconOutcome:
    bits = np.array(key, dtype=np.uint8)
    n = len(bits)
    disclosed_before = endpoint.disclosed_bits
    plan = correction_plan(est, n, passes)
    prefixes = np.zeros(len(plan) * n, dtype=np.uint8)

    def run_passes(first: int, last: int) -> None:
        seeds = tuple(draw_seed(rng) for _ in range(first, last + 1))
        parities = np.concatenate([
            _build_pass(prefixes, bits, pass_no, seed, plan[pass_no - 1])
            for pass_no, seed in zip(range(first, last + 1), seeds)])
        if first == 1:
            endpoint.send(Schedule(est_num=est_counts[0], est_den=est_counts[1],
                                   seeds=seeds, parities=parities))
        else:
            endpoint.send(ExtraPass(seed=seeds[0], parities=parities))
        _serve_queries(endpoint, prefixes, n, first, last)

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

    run = _follow_plan(plan, run_passes, hash_round)
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
    announces the estimate once, in the ``Schedule``, as ``est_counts``:
    the sample's disagreements and size.  Alice aborts a ``Schedule`` or
    ``ExtraPass`` whose passes, parity counts or estimate differ from the
    plan.  The input key is left as it is; the outcome carries a corrected
    copy.  ``first_message`` lets a caller hand Alice the ``Schedule`` it
    already pulled off the channel.
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
