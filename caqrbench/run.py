#!/usr/bin/env python3
"""Builds the CaQR benchmark driver from source and runs one workload.

Run from the repository root:

    python3 caqrbench/run.py --workload reuse_sweep --seed 1 --seconds 10 --trace 0

The driver is configured with CMake from caqrbench/CMakeLists.txt (which
compiles ../src) into $CARGO_TARGET_DIR/caqrbench, default
.bench_build/caqrbench; later runs rebuild incrementally. Build output
goes to stderr. The last line of stdout is the driver's JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1
(which also writes <workload>.trace.json into the build directory).
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Workload and metric names (with units) the driver must report.
MANIFEST = os.path.join(HERE, os.pardir, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and (incrementally) builds the driver; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "caqrbench_driver",
              "-j", jobs]]
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "caqrbench_driver")


def main():
    with open(MANIFEST) as f:
        manifest = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(root, "caqrbench"))
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"caqrbench: build failed: {err}", file=sys.stderr)
        return 1

    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", build_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print("caqrbench: driver timed out", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"caqrbench: driver exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    expected = manifest["per_layer" if args.trace else "end_to_end"]
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    if reported != {m["name"]: m["unit"] for m in expected}:
        print(f"caqrbench: driver reported unexpected metrics {reported}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
