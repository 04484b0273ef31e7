#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]

The benchmark package (perfbench/Cargo.toml) is built in release mode,
offline, into $CARGO_TARGET_DIR (default: .bench_build at the checkout
root). Build output goes to stderr; the benchmark's own output, ending with
one JSON result line, goes to stdout. Each run also leaves a result file
with the host fingerprint under <target>/perfbench-results for compare.py.
The exit code is the benchmark's: non-zero when the build failed or any
output check failed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "hcq-perfbench")
    out = os.path.join(target, "perfbench-results")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--out", out], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
