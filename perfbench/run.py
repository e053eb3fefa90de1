"""Session benchmark for fsqkd: whole ``run_simulation`` calls per workload.

Run from the repository root::

    python3 perfbench/run.py --workload default_1m --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` prints the per-layer metrics of a separate traced run.  The
metric names, units and directions come from ``BENCHMARK.json``.  Every
workload runs in a fresh ``worker.py`` process; set-up time is the median
over several fresh processes of the time from start to ``ready``.  The
last line of standard output is one JSON object; the exit code is 0 only
when every session passed its checks.  Each result is also written with
its environment to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"
WORKLOADS = ("key_8m", "bright_32m", "default_1m")
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return seconds until it printed ``ready`` and the rest of its output.

    The worker is killed if it still runs at ``deadline`` (``time.monotonic``).
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline().strip() == "ready"
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
    if not ready or proc.returncode != 0:
        raise WorkerFailed(f"worker failed or hit the {RUN_LIMIT_S:g} s limit "
                           f"(exit code {proc.returncode})")
    return setup_s, rest


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 50.0):
        index = max(0, -(-int(p * n) // 100) - 1)
        if n - 1 - index >= 10:
            return p, ordered[index]
    return None


def pass_means(values: list[float], size: int) -> list[float]:
    return [statistics.fmean(values[i:i + size]) for i in range(0, len(values), size)]


def end_to_end(result: dict, setup_samples: list[float], attempted: int,
               failed: int) -> tuple[dict, list[str]]:
    """Times are the median over passes of the mean session in the pass.

    A ``default_1m`` pass mixes keyed and keyless seeds, whose times differ
    by 2x, so the per-session median jumps between the two modes from one
    workload seed to the next; the mean over a pass does not.
    """
    sessions = result["sessions"]
    size = result["pass_sessions"]
    walls = [s["wall_s"] for s in sessions]
    secret_bits = sum(s.get("secret_bits", 0) for s in sessions)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "session_s": statistics.median(pass_means(walls, size)),
        "cpu_s": statistics.median(pass_means([s["cpu_s"] for s in sessions], size)),
        "peak_rss_mb": result["peak_rss_mb"],
        "passed_frac": (attempted - failed) / attempted,
    }
    tail = tail_percentile(walls)
    tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail
                 else "no percentile has 10 samples beyond it")
    notes = [
        f"per session: median {statistics.median(walls):.4f} s, {tail_text}, "
        f"n={len(walls)} in {len(walls) // size} passes of {size}",
        f"secret_bits: {secret_bits} bits over {len(sessions)} sessions",
        f"secret_bits_per_s: {secret_bits / sum(walls):.2f} bits/s",
        f"failed_frac: {failed / attempted:g} ({failed} of {attempted} sessions)",
    ]
    return metrics, notes


def per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = result["layers"]
    untraced = result["untraced_pass_s"]
    notes = [f"{party}: self times incl. transport.wait_s sum to {seconds:.4f} s per pass; "
             f"untraced pass {untraced:.4f} s, tracing overhead "
             f"{layers['trace.overhead_s']:.4f} s"
             for party, seconds in result["accounting"].items()]
    walls = ", ".join(f"{'T' if traced else 'U'} {wall:.3f}" for traced, wall in result["pass_walls"])
    notes.append(f"pass walls (U untraced, T traced): {walls} s")
    notes.append(f"spans written to {result['spans_file']}")
    return layers, notes


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    spans = RESULTS / f"{workload}-seed{seed}.spans.jsonl"
    deadline = time.monotonic() + RUN_LIMIT_S
    setup_samples = [spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    setup_s, output = spawn(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace),
                             "--spans", str(spans)], deadline)
    result = json.loads(output.strip().splitlines()[-1])
    checked = result["sessions"] + result["replays"]
    failed = sum(not s["ok"] for s in checked)
    values, notes = (per_layer(result) if trace
                     else end_to_end(result, setup_samples + [setup_s], len(checked), failed))
    undeclared = {m["name"] for m in declared} ^ set(values)
    if undeclared:
        raise WorkerFailed(f"metrics differ from BENCHMARK.json: {sorted(undeclared)}")
    errors = [s["error"] for s in checked if not s["ok"]] + result["errors"]
    summary = {
        "correct": not errors,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "env": result["env"], "notes": notes, "errors": errors, **summary,
              "session_walls": [s["wall_s"] for s in result["sessions"]],
              "setup_samples": setup_samples + [setup_s]}
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    env = result["env"]
    print(f"== {workload} (seed {seed}, trace {trace}): backend {env['backend']}, "
          f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}")
    for m in declared:
        print(f"  {m['name']:<36} {values[m['name']]:>16.6g} {m['unit']}")
    for line in notes + [f"FAILED: {e}" for e in errors]:
        print(f"  {line}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        try:
            summary = run_workload(spec, workload, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 2
        ok = ok and summary["correct"]
        print(json.dumps(summary), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
