#!/usr/bin/env python3
"""Build and run the orpheusd end-to-end benchmark.

    python3 perfbench/run.py --workload sci-read --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the repository's libraries from src/) into
.bench_build/perfbench, runs one workload in a fresh directory under
.bench_out/, removes that directory, and relays the benchmark's report. The
last line of standard output is the JSON result. The exit code is non-zero
when the build fails, when a correctness gate or an operation fails, or when
the run overruns its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import shutil

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "orpheus_perfbench")
OUT = ".bench_out"  # relative to ROOT: keeps unix socket paths short
RUN_TIMEOUT_S = 170
WORKLOADS = ("sci-read", "sci-edit", "cur-mixed")


def build():
    """Configure once, then build the benchmark target; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources (src/) not found", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "orpheus_perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated runner still reaps the benchmark and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not build():
        return 2
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    work = os.path.relpath(tempfile.mkdtemp(prefix="run-",
                                            dir=os.path.join(ROOT, OUT)), ROOT)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stdout or "")
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
