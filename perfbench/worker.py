"""One benchmark process: set up fsqkd, run a workload, print a JSON result.

``run.py`` starts this file in a fresh interpreter so that set-up time and
peak RSS belong to the workload alone.  The process prints ``ready`` once
fsqkd is imported, its kernel backend resolved and one warm-up session
run; with ``--setup-only`` it exits there.  Otherwise it runs the
workload and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import fsqkd  # noqa: E402
import fsqkd.session  # noqa: E402
from fsqkd import _kernels  # noqa: E402
from fsqkd.params import ProtocolParams  # noqa: E402
from fsqkd.session import SessionConfig, run_simulation  # noqa: E402

import tracing  # noqa: E402

if not Path(fsqkd.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"fsqkd imported from {fsqkd.__file__}, not from {ROOT / 'src'}")

# Each workload is a closed loop: one client runs sessions back to back.
# A pass is ``pass_sessions`` consecutive sessions: the unit the untraced
# run averages over and the fixed session list a traced pass replays.
WORKLOADS = {
    # keyed path: privacy.compress is about 70% of the wall time
    "key_8m": {"pulses": 8_000_000, "nbar": 0.35, "pass_sessions": 1},
    # PA bypassed (zero output length); channel, codec and large-key
    # reconciliation dominate, and peak RSS is highest
    "bright_32m": {"pulses": 32_000_000, "nbar": 0.5, "pass_sessions": 1},
    # default CLI sessions: fixed per-session costs and round trips
    "default_1m": {"pulses": 1_000_000, "nbar": 0.35, "pass_sessions": 20},
}

# A link bright and clean enough that a 200k-pulse session always yields a
# key, so the self-test has a bit to flip.
SELF_TEST_PARAMS = {"mean_photon_number": 0.35, "eta_system_mean": 0.5,
                    "eta_system_sigma": 0.0, "rng_seed": 1}
SELF_TEST_PULSES = 200_000


def session_seed(workload: str, workload_seed: int, index: int) -> int:
    digest = hashlib.blake2s(f"{workload}/{workload_seed}/{index}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def make_inputs(spec: dict, seed: int):
    return (ProtocolParams(mean_photon_number=spec["nbar"], rng_seed=seed),
            SessionConfig(pulses=spec["pulses"]))


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_checked(params, cfg) -> dict:
    """One timed session plus its correctness verdict and replay digest."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        sim = run_simulation(params, cfg)
    except Exception as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                "wall_s": time.perf_counter() - wall0, "cpu_s": cpu_seconds() - cpu0}
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    error = None
    if not np.array_equal(sim.alice.secret_bits, sim.bob.secret_bits):
        error = "secret keys differ"
    else:
        try:
            sim.report.validate_chain()
            sim.alice.report.validate_chain()
        except AssertionError as exc:
            error = f"validate_chain: {exc}"
    digest = hashlib.blake2b(sim.report.to_kv().encode())
    for frame in sim.alice.frames + sim.bob.frames:
        digest.update(frame)
    digest.update(np.packbits(sim.bob.secret_bits).tobytes())
    return {"ok": error is None, "error": error, "wall_s": wall, "cpu_s": cpu,
            "digest": digest.hexdigest(), "secret_bits": int(len(sim.bob.secret_bits))}


def self_test() -> str | None:
    """Flip one bit of Alice's key through a wrapper and expect a failure."""
    params = ProtocolParams(**SELF_TEST_PARAMS)
    cfg = SessionConfig(pulses=SELF_TEST_PULSES)
    clean = run_checked(params, cfg)
    if not clean["ok"]:
        return f"self-test: clean session failed: {clean['error']}"
    if clean["secret_bits"] == 0:
        return "self-test: session yielded no key to corrupt"

    def flip_one_bit(endpoint, params, cfg):
        result = original(endpoint, params, cfg)
        result.secret_bits = result.secret_bits.copy()
        result.secret_bits[0] ^= 1
        return result

    patches = tracing.Patches()
    original = fsqkd.session.run_alice
    patches.set(fsqkd.session, "run_alice", flip_one_bit)
    try:
        corrupted = run_checked(params, cfg)
    finally:
        patches.restore()
    if corrupted["ok"]:
        return "self-test: a one-bit key mismatch was not counted as failed"
    return None


def warm_up() -> None:
    params, cfg = make_inputs({"pulses": 50_000, "nbar": 0.35}, 0)
    run_simulation(params, cfg)


def untraced(name: str, spec: dict, workload_seed: int, seconds: float) -> dict:
    """Whole passes on fresh seeds until time is up, then a replay of the first seed."""
    sessions = []
    start = time.perf_counter()
    while (not sessions or time.perf_counter() - start < seconds
           or len(sessions) % spec["pass_sessions"]):
        seed = session_seed(name, workload_seed, len(sessions))
        sessions.append(run_checked(*make_inputs(spec, seed)))
    replay = run_checked(*make_inputs(spec, session_seed(name, workload_seed, 0)))
    if replay["ok"] and replay.get("digest") != sessions[0].get("digest"):
        replay.update(ok=False, error="replay of the first session differs")
    return {"sessions": sessions, "replays": [replay], "errors": [],
            "pass_sessions": spec["pass_sessions"]}


# Per-layer metrics: (metric, span name, party or None for all, field).
# ``self`` is exclusive time, ``incl`` inclusive time, ``calls`` the span
# count, anything else a count summed from the span's call-site counts.
LAYER_METRICS = [
    ("session.self_s.alice", "session", "alice", "self"),
    ("session.self_s.bob", "session", "bob", "self"),
    ("protocol.bits_s.alice", "protocol.bits", "alice", "self"),
    ("protocol.bits_s.bob", "protocol.bits", "bob", "self"),
    ("protocol.detect_s", "protocol.detect", "bob", "self"),
    ("protocol.sift_s", "protocol.sift", "alice", "self"),
    ("channel.s", "channel", "bob", "incl"),
    ("channel.kernel_s", "channel.kernel", "bob", "self"),
    ("channel.photons", "channel.kernel", "bob", "photons"),
    ("channel.kernel_bytes", "channel.kernel", "bob", "kernel_bytes"),
    ("channel.log_bytes", "channel", "bob", "log_bytes"),
    ("messages.encode_s.alice", "messages.encode", "alice", "self"),
    ("messages.encode_s.bob", "messages.encode", "bob", "self"),
    ("messages.decode_s.alice", "messages.decode", "alice", "self"),
    ("messages.decode_s.bob", "messages.decode", "bob", "self"),
    ("messages.frames", "messages.encode", None, "frames"),
    ("messages.wire_bytes", "messages.encode", None, "wire_bytes"),
    ("bitpack.index_encode_s.alice", "bitpack.index_encode", "alice", "self"),
    ("bitpack.index_encode_s.bob", "bitpack.index_encode", "bob", "self"),
    ("bitpack.index_decode_s.alice", "bitpack.index_decode", "alice", "self"),
    ("bitpack.index_decode_s.bob", "bitpack.index_decode", "bob", "self"),
    ("bitpack.indices", "bitpack.index_encode", None, "indices"),
    ("transport.wait_s.alice", "transport.wait", "alice", "self"),
    ("transport.wait_s.bob", "transport.wait", "bob", "self"),
    ("reconciliation.estimate_s.alice", "reconciliation.estimate", "alice", "self"),
    ("reconciliation.estimate_s.bob", "reconciliation.estimate", "bob", "self"),
    ("reconciliation.reconcile_s.alice", "reconciliation.reconcile", "alice", "self"),
    ("reconciliation.reconcile_s.bob", "reconciliation.reconcile", "bob", "self"),
    ("reconciliation.verify_hash_s.alice", "reconciliation.verify_hash", "alice", "self"),
    ("reconciliation.verify_hash_s.bob", "reconciliation.verify_hash", "bob", "self"),
    ("reconciliation.passes", "reconciliation.reconcile", "bob", "passes"),
    ("reconciliation.hash_rounds", "reconciliation.reconcile", "bob", "hash_rounds"),
    ("reconciliation.syndrome_queries", "messages.encode", "alice", "syndrome_queries"),
    ("reconciliation.disclosed_bits", "reconciliation.reconcile", "bob", "disclosed_bits"),
    ("reconciliation.key_bits", "reconciliation.reconcile", "bob", "key_bits"),
    ("reconciliation.shannon_bits", "reconciliation.reconcile", "bob", "shannon_bits"),
    ("hamming.syndrome_calls.alice", "hamming.syndrome", "alice", "calls"),
    ("hamming.syndrome_calls.bob", "hamming.syndrome", "bob", "calls"),
    ("hamming.syndrome_s.alice", "hamming.syndrome", "alice", "self"),
    ("hamming.syndrome_s.bob", "hamming.syndrome", "bob", "self"),
    ("privacy.compress_s.alice", "privacy.compress", "alice", "self"),
    ("privacy.compress_s.bob", "privacy.compress", "bob", "self"),
    ("privacy.in_bits", "privacy.compress", "bob", "in_bits"),
    ("privacy.out_bits", "privacy.compress", "bob", "out_bits"),
    ("privacy.bit_ops", "privacy.compress", "bob", "bit_ops"),
    ("rng.streams.alice", "rng.stream", "alice", "calls"),
    ("rng.streams.bob", "rng.stream", "bob", "calls"),
    ("rng.stream_s.alice", "rng.stream", "alice", "self"),
    ("rng.stream_s.bob", "rng.stream", "bob", "self"),
]


def layer_metrics(totals) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer ``(times, counts)`` of one traced pass."""
    times, counts = {}, {}
    for metric, name, party, field in LAYER_METRICS:
        value = 0
        for (span_name, span_party), entry in totals.items():
            if span_name != name or (party is not None and span_party != party):
                continue
            if field == "self":
                value += entry["self_s"]
            elif field == "incl":
                value += entry["incl_s"]
            elif field == "calls":
                value += entry["calls"]
            else:
                value += entry["counts"].get(field, 0)
        (times if field in ("self", "incl") else counts)[metric] = value
    kernel = totals.get(("channel.kernel", "bob"), {"counts": {}})["counts"]
    times["channel.draw_s"] = times["channel.s"] - times["channel.kernel_s"]
    counts["channel.fired_frac"] = kernel.get("fired", 0) / max(1, kernel.get("gates", 0))
    shannon = counts["reconciliation.shannon_bits"]
    counts["reconciliation.efficiency"] = (counts["reconciliation.disclosed_bits"] / shannon
                                           if shannon else 0.0)
    return times, counts


def traced(name: str, spec: dict, workload_seed: int, seconds: float, spans_path: Path) -> dict:
    """Interleave untraced and traced passes over one fixed session list.

    Every pass replays the same seeds, so each session is checked against
    its first run, and the counts of every traced pass must equal those of
    the first traced pass.
    """
    seeds = [session_seed(name, workload_seed, i) for i in range(spec["pass_sessions"])]
    first_digest: dict[int, str] = {}
    sessions, passes, all_spans = [], [], []
    start = time.perf_counter()
    while len(passes) < 4 or time.perf_counter() - start < seconds:
        # U T T U U T T U ...: balanced order, so drift over the run
        # does not bias the tracing overhead
        is_traced = len(passes) % 4 in (1, 2)
        tracer, patches = tracing.Tracer(), tracing.Patches()
        if is_traced:
            tracing.install(tracer, patches)
        try:
            results = [run_checked(*make_inputs(spec, seed)) for seed in seeds]
        finally:
            patches.restore()
        for seed, result in zip(seeds, results):
            expected = first_digest.setdefault(seed, result.get("digest"))
            if result["ok"] and result.get("digest") != expected:
                result.update(ok=False, error="replay of this seed differs")
        sessions.extend(results)
        record = {"traced": is_traced, "wall_s": sum(r["wall_s"] for r in results),
                  "secret_bits": sum(r.get("secret_bits", 0) for r in results)}
        if is_traced:
            totals = tracing.layer_totals(tracer.spans)
            record["times"], record["counts"] = layer_metrics(totals)
            # every span of a party nests under its root, so these sums
            # are the party's traced wall time split into self times
            record["accounting"] = {party: sum(entry["self_s"] for (_, p), entry
                                               in totals.items() if p == party)
                                    for party in ("alice", "bob")}
            all_spans.append(tracer.spans)
        passes.append(record)

    traced_passes = [p for p in passes if p["traced"]]
    untraced_passes = [p for p in passes if not p["traced"]]
    mismatched = [metric for p in traced_passes[1:] for metric, value in p["counts"].items()
                  if value != traced_passes[0]["counts"][metric]]
    errors = ([f"counts differ between traced passes: {sorted(set(mismatched))}"]
              if mismatched else [])

    layers = dict(traced_passes[0]["counts"])
    for metric in traced_passes[0]["times"]:
        layers[metric] = statistics.median(p["times"][metric] for p in traced_passes)
    traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced_passes)
    layers["session.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers["session.secret_bits_per_s"] = untraced_passes[0]["secret_bits"] / untraced_wall

    write_spans(spans_path, all_spans)
    accounting = {party: statistics.median(p["accounting"][party] for p in traced_passes)
                  for party in ("alice", "bob")}
    return {"sessions": sessions, "replays": [], "errors": errors, "layers": layers,
            "accounting": accounting, "untraced_pass_s": untraced_wall,
            "pass_walls": [(p["traced"], p["wall_s"]) for p in passes],
            "spans_file": str(spans_path.relative_to(ROOT))}


def write_spans(path: Path, passes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for number, spans in enumerate(passes):
            for span_id, name, party, start, end, parent, counts in spans:
                fh.write(json.dumps([number, span_id, name, party, start, end,
                                     parent, counts]) + "\n")


def environment(workload_seed: int) -> dict:
    return {"backend": _kernels.ACTIVE_BACKEND, "nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "workload_seed": workload_seed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    problem = self_test()
    spec = WORKLOADS[args.workload]
    if args.trace:
        result = traced(args.workload, spec, args.seed, args.seconds, args.spans)
    else:
        result = untraced(args.workload, spec, args.seed, args.seconds)
    if problem:
        result["errors"].append(problem)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
