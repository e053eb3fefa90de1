"""End-to-end key-generation sessions: both engines and the session report.

Bob hosts the simulated optical channel (both modes derive Alice's raw
bits from the session seed exchanged at Hello, so no key material crosses
the public channel), receives detections, drives estimation, acts as the
error-correction reference, and chooses the privacy-amplification plan.
Alice mirrors each phase and independently recomputes the plan; any
disagreement aborts the session.  Each engine draws Alice's raw bits for
the whole session in one call from the ``alice-bits`` stream and keeps
them packed as they are drawn, eight to a byte (``PackedBits``), and unpacks
only the bits at the channel's fired gates and at the detection ticks,
gathered a fixed number of ticks at a time.  Each engine drops its
per-pulse arrays and the sift indices as soon as the protocol is done
with them: Alice her raw bits and the decoded indices right after
sifting; Bob his raw bits, the channel's detection log and his ticks
right after he sends ``SiftIndices``, once the simulation-truth part of
his report is taken from them.  No endpoint keeps a decoded message.

Per-phase message flow (strictly turn-based)::

    A->B Hello           B->A Hello(seed)
    B->A SiftIndices
    B->A SampleRequest   A->B SampleReveal
    B->A Schedule (every scheduled pass's seed and block parities)
    A->B Syndrome (bisection query)   B->A Syndrome (answer bits)
    ... until A sends a query with no ids
    B->A VerifyHash      A->B VerifyHash
    on a mismatch: B->A ExtraPass, its queries and a last VerifyHash pair
    B->A PaSeed (Toeplitz seed)   A->B Done   B->A Done

``run_simulation`` runs the two engines on two threads of one process.
The protocol and the GIL already let only one of them run at a time, so
where the platform allows it both threads are kept on the CPU the caller
is running on: each frame is then handed to a thread on the same, warm
CPU rather than across CPUs.  That placement is a hint only; the sessions
are the same without it.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import math
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .channel import Cause, DetectionBatch, simulate_channel
from .messages import Done, Hello, Kind, PaSeed, SiftIndices, PROTOCOL_VERSION
from .params import ProtocolParams
from .privacy import PaPlan, compress, plan_output_length
from .protocol import alice_generate, bob_receive, sift
from .reconciliation import (
    HASH_BITS,
    ReconOutcome,
    estimate_ber_alice,
    estimate_ber_bob,
    reconcile,
    shannon_leak_per_bit,
)
from .rng import draw_seed, stream
from .transport import DEFAULT_TIMEOUT_S, Endpoint, loopback_pair


@dataclass(frozen=True)
class SessionConfig:
    """Run-level knobs shared by both parties."""

    pulses: int = 1_000_000
    block_size: int = 50_000
    sample_fraction: float = 0.1
    passes: int = 4
    timeout_s: float = DEFAULT_TIMEOUT_S

    def __post_init__(self) -> None:
        if self.pulses < 1:
            raise ValueError("pulses must be at least 1")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if not 0.0 < self.sample_fraction < 0.5:
            raise ValueError("sample_fraction must lie in (0, 0.5)")
        # Both parties size their pass tables for the plan, the agreed passes
        # and one extra, before pass 1 (about 10 bytes per key bit and pass
        # for Alice, 1 for Bob), yet the block size reaches its maximum by
        # pass 10 at the latest; 32 leaves room to spare and caps that cost.
        if not 2 <= self.passes <= 32:
            raise ValueError("passes must lie in [2, 32]")
        if not 0.0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be finite and positive")

    def sample_size(self, sifted_len: int) -> int:
        """Bits sampled for estimation from a sifted key of this length."""
        return max(1, int(round(self.sample_fraction * sifted_len)))


def session_digest(params: ProtocolParams, cfg: SessionConfig) -> bytes:
    canon = (
        params.digest().hex()
        + f";pulses={cfg.pulses};block={cfg.block_size}"
        + f";sample={cfg.sample_fraction!r};passes={cfg.passes}"
    )
    return hashlib.blake2s(canon.encode(), digest_size=16).digest()


def session_hex(params: ProtocolParams, cfg: SessionConfig, seed: int) -> str:
    raw = hashlib.blake2s(
        b"fsqkd-session" + int(seed).to_bytes(8, "big") + session_digest(params, cfg),
        digest_size=16,
    ).digest()
    return raw.hex()


# ``PackedBits`` gathers an index array this many ticks at a time into its
# output, so its scratch stays near a megabyte for any number of ticks
_GATHER_CHUNK = 1 << 14


class PackedBits:
    """Alice's raw bits as they are drawn: ceil(n / 8) bytes, MSB first.

    Reads like a read-only bit array where the engines use one: ``len``
    and an index array (the channel at its fired gates, sifting and the
    truth report at the detection ticks), which gives unpacked uint8 bits,
    so no array of one byte per pulse exists.
    """

    def __init__(self, data: np.ndarray, n: int):
        self.data = data
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key) -> np.ndarray:
        key = np.asarray(key, dtype=np.int64)
        bits = np.empty(len(key), dtype=np.uint8)
        for start in range(0, len(key), _GATHER_CHUNK):
            at = key[start : start + _GATHER_CHUNK]
            packed = self.data[at >> 3]
            # the bit at MSB-first position p is the top bit of byte << p
            packed <<= (at & 7).astype(np.uint8)
            np.right_shift(packed, 7, out=bits[start : start + _GATHER_CHUNK])
        return bits


def _derive_alice_bits(cfg: SessionConfig, seed: int) -> PackedBits:
    return PackedBits(alice_generate(cfg.pulses, stream(seed, "alice-bits")), cfg.pulses)


@dataclass
class SessionReport:
    """Deterministic aggregate of one run; wall clock stays out of it."""

    session: str = ""
    role: str = ""
    protocol_version: int = PROTOCOL_VERSION
    seed: int = 0
    pulses: int = 0
    block_size: int = 0
    blocks: int = 0
    clock_rate_hz: float = 0.0
    mean_photon_number: float = 0.0
    eta_q: float = 0.0
    eta_system_mean: float = 0.0
    eta_system_sigma: float = 0.0
    gate_width_s: float = 0.0
    background_prob_per_gate: float = 0.0
    dark_count_rate_hz: float = 0.0
    optical_error_prob: float = 0.0
    sifted_len: int = 0
    sampled_bits: int = 0
    corrected_len: int = 0
    secret_len: int = 0
    est_errors: int = 0
    est_ber: float = 0.0
    ec_disclosed_bits: int = 0
    disclosed_bits: int = 0
    recon_efficiency: float = 0.0
    recon_passes: int = 0
    recon_flips: int = -1
    hash_rounds: int = 0
    true_ber: float = -1.0
    true_errors: int = -1
    errors_signal: int = -1
    errors_background: int = -1
    errors_dark: int = -1
    errors_mixed: int = -1
    sifted_signal: int = -1
    sifted_background: int = -1
    sifted_dark: int = -1
    sifted_mixed: int = -1
    ber_signal_component: float = -1.0
    ber_background_component: float = -1.0
    ber_dark_component: float = -1.0
    ber_mixed_component: float = -1.0
    dual_fires: int = -1
    dual_per_gate: float = -1.0
    dual_per_detection: float = -1.0
    secret_per_sifted: float = 0.0
    secret_per_pulse: float = 0.0
    no_yield: bool = False

    def validate_chain(self) -> None:
        if not (self.secret_len <= self.corrected_len <= self.sifted_len <= self.pulses):
            raise AssertionError("length chain violated: secret <= corrected <= sifted <= pulses")

    def to_kv(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool):
                value = int(value)
            elif isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name}={value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_kv(cls, text: str) -> "SessionReport":
        raw = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            raw[key] = value
        kwargs = {}
        for f in fields(cls):
            if f.name not in raw:
                continue
            if f.type in ("int", int):
                kwargs[f.name] = int(raw[f.name])
            elif f.type in ("float", float):
                kwargs[f.name] = float(raw[f.name])
            elif f.type in ("bool", bool):
                kwargs[f.name] = bool(int(raw[f.name]))
            else:
                kwargs[f.name] = raw[f.name]
        return cls(**kwargs)

    def to_text(self) -> str:
        """Human-readable summary."""
        out = []
        out.append(f"session {self.session} ({self.role}), seed {self.seed}")
        out.append(f"  pulses sent          {self.pulses} in {self.blocks} blocks of {self.block_size}")
        out.append(f"  nbar / eta_system    {self.mean_photon_number} / "
                   f"{self.eta_system_mean} +- {self.eta_system_sigma}")
        out.append(f"  sifted / corrected / secret  {self.sifted_len} / {self.corrected_len} / {self.secret_len}")
        out.append(f"  estimated BER        {self.est_ber:.4f} ({self.est_errors}/{self.sampled_bits} sampled)")
        if self.true_ber >= 0:
            out.append(f"  simulation-truth BER {self.true_ber:.4f} "
                       f"(background {self.ber_background_component:.4f}, "
                       f"optical {self.ber_signal_component:.4f}, "
                       f"dark {self.ber_dark_component:.4f}, "
                       f"mixed {self.ber_mixed_component:.4f})")
            out.append(f"  dual fires           {self.dual_fires} "
                       f"({self.dual_per_gate:.3g}/gate, {self.dual_per_detection:.3g}/detection)")
        out.append(f"  disclosed bits       {self.disclosed_bits} "
                   f"(correction {self.ec_disclosed_bits}, sampling {self.sampled_bits}; "
                   f"hash {HASH_BITS * self.hash_rounds} counted separately)")
        eff = self.recon_efficiency
        eff_text = f"{eff:.3f}" if np.isfinite(eff) else "n/a"
        out.append(f"  reconciliation       {self.recon_passes} passes, efficiency {eff_text}")
        out.append(f"  yield                {self.secret_per_sifted:.4f} of sifted, "
                   f"{self.secret_per_pulse:.6f} of transmitted"
                   + ("  [no secret yield]" if self.no_yield else ""))
        return "\n".join(out) + "\n"


@dataclass
class SessionResult:
    report: SessionReport
    secret_bits: np.ndarray
    frames: list[bytes]
    duration_s: float = 0.0


def _base_report(params: ProtocolParams, cfg: SessionConfig, seed: int, role: str) -> SessionReport:
    return SessionReport(
        session=session_hex(params, cfg, seed),
        role=role,
        seed=seed,
        pulses=cfg.pulses,
        block_size=cfg.block_size,
        blocks=(cfg.pulses + cfg.block_size - 1) // cfg.block_size,
        **{name: value for name, value in params.as_dict().items() if name != "rng_seed"},
    )


def _pa_output_length(outcome: ReconOutcome, nbar: float, sampled_bits: int) -> int:
    """Secret length after correction; both parties compute it independently.

    With the measured efficiency, c*f(eps)*n equals the correction
    disclosure exactly; when the estimate is zero (f = 0) the correction
    bits move into the flat term instead.
    """
    extra = sampled_bits + HASH_BITS * outcome.hash_rounds
    if shannon_leak_per_bit(outcome.estimated_ber) > 0:
        c_eff = outcome.efficiency
    else:
        c_eff, extra = 1.0, extra + outcome.disclosed_bits
    return plan_output_length(len(outcome.corrected_key), nbar,
                              outcome.estimated_ber, c_eff, extra)


def _expect_hello(endpoint: Endpoint, params: ProtocolParams, cfg: SessionConfig) -> Hello:
    """The peer's Hello; either party aborts on another version or configuration."""
    hello = endpoint.expect(Kind.HELLO).payload
    if hello.version != PROTOCOL_VERSION:
        endpoint.fail(f"protocol version mismatch: peer {hello.version}, "
                      f"local {PROTOCOL_VERSION}")
    if hello.params_digest != session_digest(params, cfg):
        endpoint.fail("session configuration mismatch")
    return hello


def _yield_possible(corrected_len: int, nbar: float, est: float, sampled_bits: int) -> bool:
    """Could any secret bits survive even Shannon-limit correction?

    Checked before reconciliation: a hopeless operating point (the dim or
    noisy regimes) ends the session with an empty key instead of leaking
    correction traffic it can never pay back.
    """
    return plan_output_length(corrected_len, nbar, est, 1.0, sampled_bits) > 0


def _skipped_outcome(key: np.ndarray, est: float) -> ReconOutcome:
    return ReconOutcome(corrected_key=key, estimated_ber=est,
                        disclosed_bits=0, efficiency=0.0, verified=False,
                        passes_run=0, flips=0, hash_rounds=0)


def _finish_report(report: SessionReport, endpoint: Endpoint, outcome: ReconOutcome,
                   est_errors: int, sampled_bits: int, sifted_len: int,
                   secret_len: int) -> None:
    report.sifted_len = sifted_len
    # the estimate is over exactly the sampled bits
    report.sampled_bits = sampled_bits
    report.corrected_len = len(outcome.corrected_key)
    report.secret_len = secret_len
    report.est_errors = est_errors
    report.est_ber = outcome.estimated_ber
    report.ec_disclosed_bits = outcome.disclosed_bits
    # the sample reveal is the only disclosure before correction
    report.disclosed_bits = endpoint.disclosed_bits
    report.recon_efficiency = outcome.efficiency
    report.recon_passes = outcome.passes_run
    report.hash_rounds = outcome.hash_rounds
    report.secret_per_sifted = secret_len / sifted_len if sifted_len else 0.0
    report.secret_per_pulse = secret_len / report.pulses if report.pulses else 0.0
    report.no_yield = secret_len == 0
    report.validate_chain()


def run_bob(endpoint: Endpoint, params: ProtocolParams, cfg: SessionConfig) -> SessionResult:
    """Receiver engine: channel host, reference key, plan chooser."""
    t0 = time.monotonic()
    seed = params.rng_seed
    _expect_hello(endpoint, params, cfg)
    endpoint.send(Hello(version=PROTOCOL_VERSION,
                        params_digest=session_digest(params, cfg), seed=seed))

    alice_bits = _derive_alice_bits(cfg, seed)
    run = simulate_channel(alice_bits, params, seed, cfg.block_size)
    ticks, sifted = bob_receive(run.detections)
    endpoint.send(SiftIndices(indices=ticks))
    # the raw bits, the detection log and the ticks are dead once the truth is taken
    report = _base_report(params, cfg, seed, "bob")
    _attach_truth(report, alice_bits, ticks, sifted, run.detections)
    del alice_bits, run, ticks

    est_errors = sampled_bits = 0
    trimmed = sifted
    if len(sifted):
        sampled_bits = cfg.sample_size(len(sifted))
        est_errors, trimmed = estimate_ber_bob(sifted, endpoint, sampled_bits,
                                               stream(seed, "bob-sample"))
    est = est_errors / sampled_bits if sampled_bits else 0.0
    if _yield_possible(len(trimmed), params.mean_photon_number, est, sampled_bits):
        outcome = reconcile(trimmed, endpoint, cfg.passes, "bob", est,
                            (est_errors, sampled_bits), rng=stream(seed, "bob-recon"))
        output_len = _pa_output_length(outcome, params.mean_photon_number, sampled_bits)
    else:
        outcome = _skipped_outcome(trimmed, est)
        output_len = 0
    pa_seed = draw_seed(stream(seed, "bob-pa"))
    endpoint.send(PaSeed(seed=pa_seed, output_length=output_len,
                         est_num=est_errors, est_den=sampled_bits))
    secret_bits = compress(outcome.corrected_key,
                           PaPlan(input_length=len(trimmed),
                                  output_length=output_len, seed=pa_seed))
    endpoint.expect(Kind.DONE)
    endpoint.send(Done())

    _finish_report(report, endpoint, outcome, est_errors, sampled_bits, len(sifted),
                   len(secret_bits))
    return SessionResult(report=report, secret_bits=secret_bits, frames=endpoint.frames,
                         duration_s=time.monotonic() - t0)


def _attach_truth(report: SessionReport, alice_bits: PackedBits, ticks: np.ndarray,
                  sifted: np.ndarray, detections: DetectionBatch) -> None:
    """Simulation-truth error decomposition, available on the channel host."""
    causes = detections.causes[detections.conclusive_mask()]
    errors = sifted ^ alice_bits[ticks]
    # entry 2 * cause + error: the sifted bits of each cause, right and wrong
    counts = np.bincount(2 * causes + errors, minlength=8)
    report.true_errors = int(counts[1::2].sum())
    report.true_ber = report.true_errors / len(sifted) if len(sifted) else 0.0
    for cause, name in ((Cause.SIGNAL, "signal"), (Cause.BACKGROUND, "background"),
                        (Cause.DARK, "dark"), (Cause.MIXED, "mixed")):
        err = int(counts[2 * cause + 1])
        setattr(report, f"sifted_{name}", int(counts[2 * cause]) + err)
        setattr(report, f"errors_{name}", err)
        setattr(report, f"ber_{name}_component", err / len(sifted) if len(sifted) else 0.0)
    duals = detections.dual_fire_count()
    report.dual_fires = duals
    report.dual_per_gate = duals / report.pulses if report.pulses else 0.0
    detected = len(sifted) + duals
    report.dual_per_detection = duals / detected if detected else 0.0


def run_alice(endpoint: Endpoint, params: ProtocolParams, cfg: SessionConfig) -> SessionResult:
    """Transmitter engine: generates, sifts, gets corrected, compresses."""
    t0 = time.monotonic()
    endpoint.send(Hello(version=PROTOCOL_VERSION,
                        params_digest=session_digest(params, cfg), seed=0))
    seed = _expect_hello(endpoint, params, cfg).seed

    alice_bits = _derive_alice_bits(cfg, seed)
    # the index codec admits only strictly increasing, non-negative ticks,
    # so the last one bounds them all
    indices = endpoint.expect(Kind.SIFT_INDICES).payload.indices
    if len(indices) and indices[-1] >= cfg.pulses:
        endpoint.fail(f"detection tick {indices[-1]} out of range of {cfg.pulses} pulses")
    sifted = sift(alice_bits, indices)
    # the raw bits and the indices are dead once sifted
    del alice_bits, indices

    # the receiver samples exactly a non-empty key; an empty one goes
    # straight to the zero-length plan that declares the run hopeless
    trimmed = sifted
    sampled_bits = 0
    if len(sifted):
        trimmed = estimate_ber_alice(sifted, endpoint, cfg.sample_size(len(sifted)))
        sampled_bits = len(sifted) - len(trimmed)
    message = endpoint.expect(Kind.SCHEDULE, Kind.PA_SEED)
    # both parties price privacy amplification from this estimate, so it
    # must be over exactly the bits she revealed
    est_errors, est_den = message.payload.est_num, message.payload.est_den
    if est_den != sampled_bits:
        endpoint.fail(f"estimate over {est_den} bits, {sampled_bits} sampled")
    est = est_errors / sampled_bits if sampled_bits else 0.0
    # the receiver opens correction exactly when some yield is possible,
    # which an empty key never allows
    correcting = message.kind is Kind.SCHEDULE
    if correcting != _yield_possible(len(trimmed), params.mean_photon_number,
                                     est, sampled_bits):
        endpoint.fail("peer opened correction although no yield is possible"
                      if correcting else
                      "peer skipped correction despite a possible yield")
    if correcting:
        outcome = reconcile(trimmed, endpoint, cfg.passes, "alice", est, first_message=message)
        pa_msg = endpoint.expect(Kind.PA_SEED).payload
        if (pa_msg.est_num, pa_msg.est_den) != (est_errors, sampled_bits):
            endpoint.fail(f"privacy-amplification estimate {pa_msg.est_num}/{pa_msg.est_den} "
                          f"differs from the correction estimate {est_errors}/{sampled_bits}")
        expected_len = _pa_output_length(outcome, params.mean_photon_number, sampled_bits)
    else:
        pa_msg = message.payload
        outcome = _skipped_outcome(trimmed, est)
        expected_len = 0
    if pa_msg.output_length != expected_len:
        endpoint.fail(f"privacy-amplification length disagreement: "
                      f"peer {pa_msg.output_length}, local {expected_len}")
    plan = PaPlan(input_length=len(outcome.corrected_key),
                  output_length=pa_msg.output_length, seed=pa_msg.seed)
    secret = compress(outcome.corrected_key, plan)
    endpoint.send(Done())
    endpoint.expect(Kind.DONE)

    report = _base_report(params, cfg, seed, "alice")
    report.recon_flips = outcome.flips
    _finish_report(report, endpoint, outcome, est_errors, sampled_bits, len(sifted),
                   len(secret))
    return SessionResult(report=report, secret_bits=secret, frames=endpoint.frames,
                         duration_s=time.monotonic() - t0)


@dataclass
class SimulationResult:
    alice: SessionResult
    bob: SessionResult
    report: SessionReport
    duration_s: float


def _caller_cpu() -> int | None:
    """The CPU the calling thread runs on, or None where it cannot be pinned.

    Field 39 of ``/proc/thread-self/stat``; the command name (field 2) may
    hold spaces and parentheses, so fields are counted from its last ``)``.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/thread-self/stat", "rb") as stat:
            text = stat.read()
        return int(text[text.rindex(b")") + 1:].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _on_cpu(cpu: int | None, engine, *args) -> SessionResult:
    """Run ``engine`` on this thread after pinning the thread to ``cpu``.

    Pid 0 pins only the calling thread.  A failed pin leaves the thread
    where the scheduler puts it; it never fails the session.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass
    return engine(*args)


def run_simulation(params: ProtocolParams, cfg: SessionConfig) -> SimulationResult:
    """Run both engines over loopback in one process, one thread each.

    Both threads are pinned to the CPU the caller runs on when the session
    starts (see the module docstring); the caller's own placement is left
    as it is, and the pool's threads end with the session.
    """
    t0 = time.monotonic()
    a_end, b_end = loopback_pair(timeout_s=cfg.timeout_s)
    cpu = _caller_cpu()
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        fut_a = pool.submit(_on_cpu, cpu, run_alice, a_end, params, cfg)
        fut_b = pool.submit(_on_cpu, cpu, run_bob, b_end, params, cfg)
        exc = None
        try:
            bob = fut_b.result()
        except Exception as e:
            exc = e
            bob = None
        try:
            alice = fut_a.result(timeout=cfg.timeout_s if exc else None)
        except Exception as e:
            if exc is None:
                exc = e
            alice = None
        if exc is not None:
            raise exc
    if not np.array_equal(alice.secret_bits, bob.secret_bits):
        raise AssertionError("secret keys differ between parties")
    report = bob.report
    report.role = "simulation"
    report.recon_flips = alice.report.recon_flips
    return SimulationResult(alice=alice, bob=bob, report=report,
                            duration_s=time.monotonic() - t0)
