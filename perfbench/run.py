#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. The first call configures and builds
the library and the benchmark under .bench_build/perfbench (about a minute on
4 cores); later calls only check that the build is current. Build output goes
to standard error; standard output is the benchmark's, whose last line is the
JSON result. `--workload all` runs every workload in one process.

The exit code is the benchmark's: 0 when every output check passed, 1 when
one failed, 2 when the run could not start (the library sources are missing,
the build failed, or a BHPO_* variable that changes the library is set).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configures once, then brings the benchmark binary up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def manifest_names(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    manifest = json.loads(path.read_text())
    key = "per_layer" if trace else "end_to_end"
    return [metric["name"] for metric in manifest[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        return fail(f"no library sources (CMakeLists.txt, src/) in {ROOT}")
    if not build():
        return fail("build failed")

    command = [str(BUILD / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--trace-dir", str(BUILD / "traces"),
               "--tmp-dir", str(BUILD / "tmp")]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 2

    # The benchmark must report exactly the metrics the manifest lists.
    result = json.loads(lines[-1])
    expected = manifest_names(args.trace)
    code = done.returncode
    if args.workload != "all" and expected is not None and \
            list(result["metrics"]) != expected:
        print("perfbench: reported metrics differ from BENCHMARK.json",
              file=sys.stderr)
        result["correct"] = False
        code = 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
