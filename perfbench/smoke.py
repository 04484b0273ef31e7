#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at the
tiny input scale.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

For each run it asserts that the command exits 0, that the last stdout line
is the JSON result with exactly `correct`, `attempted`, `failed` and
`metrics`, that every output check passed, and that the metrics are exactly
the `end_to_end` (untraced) or `per_layer` (traced) names of
BENCHMARK.json, each a finite number with the unit declared there.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(workload, trace, spec):
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", "1",
        "--trace", str(trace),
        "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        return problems + [f"no JSON result line ({e})"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"checks failed: {[l for l in lines if l.startswith('FAILED')]}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, m in got.items():
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{name} = {value!r}")
        if name in want and m.get("unit") != want[name]:
            problems.append(f"{name} unit {m.get('unit')!r}, BENCHMARK.json says {want[name]!r}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = 0
    for w in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check(w, trace, spec)
            print(f"{'ok  ' if not problems else 'FAIL'} {w} trace={trace}")
            for p in problems:
                print(f"     {p}")
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
