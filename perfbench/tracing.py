"""Span recorder that wraps fsqkd's layer entry points from outside the package.

Every wrapper is installed on the name a caller looks up (for example
``fsqkd.session.compress``, which ``run_alice`` and ``run_bob`` resolve
through their module globals), never on the source file, and every
original is restored by ``Patches.restore``.  A span records its name, the
party whose thread ran it (set by the ``run_alice``/``run_bob`` root
wrappers), start, end, its parent span and any counts its call site can
read from arguments or results.  Spans stay in memory until the caller
writes them out.
"""

from __future__ import annotations

import itertools
import threading
import time

import numpy as np

import fsqkd._kernels
import fsqkd.channel
import fsqkd.messages
import fsqkd.privacy
import fsqkd.reconciliation
import fsqkd.session
import fsqkd.transport
from fsqkd.messages import Kind
from fsqkd.reconciliation import shannon_leak_per_bit


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """Collects spans as ``(id, name, party, start, end, parent, counts)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, counts=None, party: str | None = None):
        """Return ``fn`` wrapped in a span; ``party`` marks a root wrapper."""
        local = self._local
        spans = self.spans
        ids = self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if party is not None:
                local.party = party
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = counts(args, result) if counts is not None else None
            spans.append((span_id, name, getattr(local, "party", "main"),
                          start, end, parent, extra))
            return result

        return traced


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _kernel_counts(args, result):
    return {"photons": len(args[3]), "gates": len(args[0]),
            "fired": int(np.count_nonzero(result[0])),
            "kernel_bytes": _nbytes(args) + _nbytes(result)}


def _channel_counts(args, run):
    det = run.detections
    return {"log_bytes": _nbytes((det.ticks, det.outcomes, det.causes))}


def _encode_counts(args, frame):
    message = args[0]
    payload = message.payload
    query = message.kind is Kind.SYNDROME and payload.is_query and len(payload.blocks) > 0
    return {"frames": 1, "wire_bytes": len(frame), "syndrome_queries": int(query)}


def _recon_counts(args, outcome):
    n = len(outcome.corrected_key)
    return {"passes": outcome.passes_run, "hash_rounds": outcome.hash_rounds,
            "disclosed_bits": outcome.disclosed_bits, "key_bits": n,
            "shannon_bits": shannon_leak_per_bit(outcome.estimated_ber) * n}


def _compress_counts(args, secret):
    plan = args[1]
    return {"in_bits": plan.input_length, "out_bits": plan.output_length,
            "bit_ops": plan.input_length * plan.output_length}


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer entry point on the session path."""
    session = fsqkd.session
    recon = fsqkd.reconciliation
    sites = [
        (session, "run_alice", "session", None, "alice"),
        (session, "run_bob", "session", None, "bob"),
        (session, "alice_generate", "protocol.bits", None, None),
        (session, "bob_receive", "protocol.detect", None, None),
        (session, "sift", "protocol.sift", None, None),
        (session, "simulate_channel", "channel", _channel_counts, None),
        (fsqkd._kernels, "channel_outcomes", "channel.kernel", _kernel_counts, None),
        (fsqkd.transport, "encode", "messages.encode", _encode_counts, None),
        (fsqkd.transport, "decode", "messages.decode", None, None),
        (fsqkd.messages, "encode_index_list", "bitpack.index_encode",
         lambda args, _: {"indices": len(args[0])}, None),
        (fsqkd.messages, "decode_index_list", "bitpack.index_decode", None, None),
        (fsqkd.transport.LoopbackEndpoint, "_recv_frame", "transport.wait", None, None),
        (session, "estimate_ber_alice", "reconciliation.estimate", None, None),
        (session, "estimate_ber_bob", "reconciliation.estimate", None, None),
        (session, "reconcile", "reconciliation.reconcile", _recon_counts, None),
        (recon, "_verify_hash_bits", "reconciliation.verify_hash", None, None),
        (recon, "block_syndrome", "hamming.syndrome", None, None),
        (session, "compress", "privacy.compress", _compress_counts, None),
    ]
    for module in (session, fsqkd.privacy, fsqkd.channel, recon):
        sites.append((module, "stream", "rng.stream", None, None))
    for owner, attr, name, counts, party in sites:
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), counts, party))


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its direct children cover.

    Spans of one thread nest as calls do, so the children of a span never
    overlap one another and their durations simply add up.
    """
    covered: dict[int, float] = {}
    for span_id, _name, _party, start, end, parent, _counts in spans:
        if parent >= 0:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {s[0]: (s[4] - s[3]) - covered.get(s[0], 0.0) for s in spans}


def layer_totals(spans):
    """Per ``(name, party)``: self seconds, inclusive seconds, calls, counts."""
    selfs = self_times(spans)
    totals: dict[tuple[str, str], dict] = {}
    for span_id, name, party, start, end, _parent, counts in spans:
        entry = totals.setdefault((name, party), {"self_s": 0.0, "incl_s": 0.0,
                                                  "calls": 0, "counts": {}})
        entry["self_s"] += selfs[span_id]
        entry["incl_s"] += end - start
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return totals
