#!/usr/bin/env python3
"""Build the wf benchmark driver from this checkout and run one workload.

    python3 wfbench/run.py --workload pipeline|serve|million \\
        --seed N --seconds S --trace 0|1

The driver (wfbench/src) is built with CMake in Release mode into
$CARGO_TARGET_DIR/wfbench (default .bench_build/wfbench, relative to the
checkout root); the first run builds, later runs only relink what changed.
Build output goes to stderr, so the last line of stdout is the driver's JSON
result. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "wfbench")


def build(out):
    source = os.path.join(ROOT, "wfbench")
    generated = any(os.path.exists(os.path.join(out, f)) for f in ("Makefile", "build.ninja"))
    if not generated:
        subprocess.run(["cmake", "-S", source, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "wfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "wfbench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"wfbench: build failed: {e}", file=sys.stderr)
        return 1
    command = [binary, *sys.argv[1:], "--work-dir", out]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"wfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
