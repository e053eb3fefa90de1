"""Compare benchmark results of two commits, metric by metric.

    python3 perfbench/compare.py --base old/*.json --new new/*.json

Each file is one result that ``run.py`` wrote to ``perfbench/results/``.
For every metric the script prints each side's median and quartile
spread and the ratio of the medians.  It refuses, with exit code 2, to
compare results whose kernel backend, workload or trace mode differ: the
numpy and numba kernels differ by about 10x on the channel layer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def summary(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    sides = {side: [json.load(open(path)) for path in paths]
             for side, paths in (("base", args.base), ("new", args.new))}
    results = sides["base"] + sides["new"]
    for label, found in (("backends", {r["env"]["backend"] for r in results}),
                         ("workloads", {r["workload"] for r in results}),
                         ("trace modes", {r["trace"] for r in results})):
        if len(found) > 1:
            print(f"refusing to compare results from different {label}: {sorted(found)}",
                  file=sys.stderr)
            return 2
    print(f"{results[0]['workload']} trace {results[0]['trace']}, backend "
          f"{results[0]['env']['backend']}: {len(sides['base'])} base, {len(sides['new'])} new runs")
    print(f"{'metric':<36} {'base':>12} {'spread':>7} {'new':>12} {'spread':>7} {'new/base':>9}")
    for name, entry in results[0]["metrics"].items():
        base, base_spread = summary([r["metrics"][name]["value"] for r in sides["base"]])
        new, new_spread = summary([r["metrics"][name]["value"] for r in sides["new"]])
        ratio = f"{new / base:9.4f}" if base else f"{'n/a':>9}"
        print(f"{name:<36} {base:12.6g} {base_spread:7.3f} {new:12.6g} {new_spread:7.3f} "
              f"{ratio} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
