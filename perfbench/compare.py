#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing to compare across hosts.

Usage:

    python3 perfbench/compare.py <base results dir> <new results dir>

Each directory holds the result files run.py leaves under
<target>/perfbench-results (one per workload, seed and trace mode). Every
file carries the host fingerprint: core count, CPU model, rustc version,
build profile and runtime worker count. When the two sets were not measured
under one fingerprint, the script prints both and stops without a verdict
(exit code 3): a difference between hosts is not a regression.

Otherwise it prints, per workload and end-to-end metric, the median of each
set and their ratio, and marks a metric REGRESSED when the new median is
worse than the base median by more than the metric's bound in
BENCHMARK.json. Exit code 1 when anything regressed, else 0.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        if "fingerprint" in doc and not doc.get("trace"):
            runs.append(doc)
    return runs


def fingerprints(runs):
    return {json.dumps(r["fingerprint"], sort_keys=True) for r in runs}


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    if not base or not new:
        print("no untraced result files in one of the directories", file=sys.stderr)
        return 2
    fps = fingerprints(base) | fingerprints(new)
    if len(fps) != 1:
        print("fingerprints differ; the sets are not comparable:")
        for fp in sorted(fps):
            print(f"  {fp}")
        return 3
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    regressed = 0
    workloads = sorted({r["workload"] for r in base} & {r["workload"] for r in new})
    for w in workloads:
        for name, m in spec.items():
            a = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == w]
            b = [r["result"]["metrics"][name]["value"] for r in new if r["workload"] == w]
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = mb / ma if ma else float("inf")
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            flag = "REGRESSED" if worse > m["bound"] else ""
            regressed += bool(flag)
            print(f"{w:12} {name:16} {ma:14.6g} {mb:14.6g} x{ratio:7.3f} n={len(a)}/{len(b)} {flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
