"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracing.py`` wraps fsqkd functions by name, on the module
globals their callers look them up through.  A refactor that renames one
of those names, or stops calling it through its module, would otherwise
only show when the benchmark runs.  This test loads the tracer from its
source (without writing bytecode next to it), runs one traced session and
checks that every wrapped layer recorded a span.  A second test runs the
benchmark's worker on two workloads, so a change to ``SessionConfig`` or to
a signature the tracer wraps shows here too.
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import fsqkd._kernels
import fsqkd.channel
import fsqkd.messages
import fsqkd.privacy
import fsqkd.reconciliation
import fsqkd.session
import fsqkd.transport
from fsqkd.params import ProtocolParams
from fsqkd.session import SessionConfig, run_simulation

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKER = ROOT / "perfbench" / "worker.py"

SESSION, RECON = fsqkd.session, fsqkd.reconciliation
# every (owner, name) the tracer replaces
SITES = [
    (SESSION, "run_alice"), (SESSION, "run_bob"), (SESSION, "alice_generate"),
    (SESSION, "bob_receive"), (SESSION, "sift"), (SESSION, "simulate_channel"),
    (SESSION, "estimate_ber_alice"), (SESSION, "estimate_ber_bob"),
    (SESSION, "reconcile"), (SESSION, "compress"), (SESSION, "stream"),
    (RECON, "_verify_hash_bits"), (RECON, "block_syndrome"), (RECON, "stream"),
    (fsqkd.privacy, "stream"), (fsqkd.channel, "stream"),
    (fsqkd._kernels, "channel_outcomes"),
    (fsqkd.transport, "encode"), (fsqkd.transport, "decode"),
    (fsqkd.messages, "encode_index_list"), (fsqkd.messages, "decode_index_list"),
    (fsqkd.transport.LoopbackEndpoint, "_recv_frame"),
]

# The (span name, party) pairs a keyed session must record.
# ``hamming.syndrome`` (the ``block_syndrome`` site) is left out: no session
# calls ``reconciliation.block_syndrome``, which stays only because the
# tracer wraps it, so the test below asserts that span never appears.
BOTH = ("alice", "bob")
SPANS = {(name, party) for name, parties in {
    "session": BOTH, "protocol.bits": BOTH, "protocol.detect": ("bob",),
    "protocol.sift": ("alice",), "channel": ("bob",), "channel.kernel": ("bob",),
    "messages.encode": BOTH, "messages.decode": BOTH, "bitpack.index_encode": BOTH,
    "bitpack.index_decode": BOTH, "transport.wait": BOTH,
    "reconciliation.estimate": BOTH, "reconciliation.reconcile": BOTH,
    "reconciliation.verify_hash": BOTH, "privacy.compress": BOTH, "rng.stream": BOTH,
}.items() for party in parties}

# the span a ``stream`` call sits in tells which module's name it went through
STREAM_CALLERS = {
    "session": "session", "channel": "channel", "privacy.compress": "privacy",
    "reconciliation.reconcile": "reconciliation",
    "reconciliation.verify_hash": "reconciliation",
}


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


# a link bright and clean enough that a 200k-pulse session yields a key
LINK = ProtocolParams(mean_photon_number=0.35, eta_system_mean=0.5, eta_system_sigma=0.0,
                      rng_seed=1)


def test_every_traced_layer_records_a_span():
    tracing = load_tracing()
    originals = [getattr(owner, name) for owner, name in SITES]
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches)
    try:
        replaced = [getattr(owner, name) is not original
                    for (owner, name), original in zip(SITES, originals)]
        sim = run_simulation(LINK, SessionConfig(pulses=200_000))
    finally:
        patches.restore()
    assert all(replaced), [name for (_, name), ok in zip(SITES, replaced) if not ok]
    assert all(getattr(owner, name) is original
               for (owner, name), original in zip(SITES, originals))

    assert np.array_equal(sim.alice.secret_bits, sim.bob.secret_bits)
    assert len(sim.bob.secret_bits) > 0
    recorded = {(span[1], span[2]) for span in tracer.spans}
    assert SPANS <= recorded, SPANS - recorded
    # the benchmark's four ``hamming.*`` metrics read 0 by construction
    assert not any(span[1] == "hamming.syndrome" for span in tracer.spans)
    names = {span[0]: span[1] for span in tracer.spans}
    stream_modules = {STREAM_CALLERS.get(names.get(span[5]))
                      for span in tracer.spans if span[1] == "rng.stream"}
    assert {"session", "privacy", "reconciliation"} <= stream_modules
    assert "channel" in stream_modules
    # the per-layer verify-hash time is the sum of these spans, one per hash
    # each party computes
    for party, result in (("alice", sim.alice), ("bob", sim.bob)):
        hashes = sum(1 for span in tracer.spans
                     if span[1] == "reconciliation.verify_hash" and span[2] == party)
        assert hashes == result.report.hash_rounds >= 1, party
        # the per-layer disclosure is what the party's endpoint counted
        # over its correction exchange
        disclosed = [span[6]["disclosed_bits"] for span in tracer.spans
                     if span[1] == "reconciliation.reconcile" and span[2] == party]
        assert disclosed == [result.report.ec_disclosed_bits], party
        assert disclosed[0] > 0, party


def test_streams_do_not_grow_with_the_pulse_count(monkeypatch):
    # each random family reads one stream for the whole session: the
    # channel builds ``eta`` and ``gates`` and nothing per block, and a
    # session builds as many streams at 2M pulses as at 200k
    labels = []
    channel_stream = fsqkd.channel.stream

    def recording(seed, label):
        labels.append(label)
        return channel_stream(seed, label)

    monkeypatch.setattr(fsqkd.channel, "stream", recording)
    tracing = load_tracing()
    counts = []
    for pulses in (200_000, 2_000_000):
        labels.clear()
        tracer, patches = tracing.Tracer(), tracing.Patches()
        tracing.install(tracer, patches)
        try:
            sim = run_simulation(LINK, SessionConfig(pulses=pulses))
        finally:
            patches.restore()
        assert labels == ["eta", "gates"], pulses
        # both sessions take the same path: four passes and one hash
        report = sim.report
        assert (report.recon_passes, report.hash_rounds, report.no_yield) == (4, 1, False)
        counts.append(sum(1 for span in tracer.spans if span[1] == "rng.stream"))
    assert counts[0] == counts[1]


def run_worker(workload: str, sessions: int) -> None:
    """The benchmark's own worker on one pass of ``workload``, checked."""
    # a fresh interpreter, as the benchmark starts it; -B keeps bytecode
    # out of perfbench/
    done = subprocess.run([sys.executable, "-B", str(WORKER), "--workload", workload,
                           "--seconds", "0"], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert len(result["sessions"]) == sessions
    assert all(session["ok"] for session in result["sessions"])
    # the self-test flipped a key bit and saw the session fail
    assert result["errors"] == []
    assert [replay["ok"] for replay in result["replays"]] == [True]


def test_worker_runs_the_default_workload():
    run_worker("default_1m", 20)


def test_worker_runs_the_bright_workload():
    # one 32M-pulse session: a 640-block channel through many kernel batches
    run_worker("bright_32m", 1)
