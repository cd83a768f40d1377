#!/usr/bin/env python3
"""Builds the benchmark package and runs one workload.

    python3 perfbench/run.py --workload repro-quick --seed 1 --seconds 20 --trace 0

Run from the repository root. Cargo output goes to stderr; the last line of
stdout is the JSON result printed by the `perfbench` binary. Build artifacts
land in $CARGO_TARGET_DIR (default: perfbench/target). See perfbench/README.md.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    manifest = os.path.join(here, "Cargo.toml")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(here, "target"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
    )
    if build.returncode != 0:
        print(f"perfbench: build failed (exit {build.returncode})", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
