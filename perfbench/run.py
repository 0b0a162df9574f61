#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the `perfbench` driver into .bench_build/perfbench (a few minutes);
later calls only check that the build is current. Build output goes to
.bench_build/perfbench/build.log, so the driver's own last line, one JSON
object, stays the last line of standard output. Set-up time is measured
inside the driver and never includes the build.

Traced runs (--trace 1) write their spans to
.bench_build/perfbench/trace-<workload>-<seed>.json.

--self-test proves the checks: every workload is run briefly against the
frozen reference (perfbench/reference.json), where no op may fail, and
against a deliberately wrong copy of it, where every op checked against the
reference must fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["search-moe", "search-zoo", "train-bert-tiny"]


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache behind that makes
                # the next call skip it.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    sys.stderr.write("perfbench: build failed:\n")
                    sys.stderr.writelines(f.readlines()[-30:])
                return False
    return True


def driver(workload, seed, seconds, trace, extra=()):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", REFERENCE, *extra]
    if trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, f"trace-{workload}-{seed}.json")]
    return cmd


def self_test():
    """Correct reference: no failed op. Wrong reference: every reference-checked
    op fails. Returns the process exit code."""
    ok = True
    for workload in WORKLOADS:
        for corrupt in (False, True):
            extra = ["--corrupt-reference"] if corrupt else []
            out = subprocess.run(driver(workload, 1, 2, 0, extra), cwd=ROOT,
                                 stdout=subprocess.PIPE, text=True, check=True)
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            reference_ops = next(int(l.split(":")[1]) for l in lines
                                 if l.startswith("reference ops:"))
            want = reference_ops if corrupt else 0
            passed = result["failed"] == want and reference_ops > 0
            ok &= passed
            print(f"{workload:16} {'wrong' if corrupt else 'frozen':6} "
                  f"reference: {result['failed']}/{result['attempted']} failed, "
                  f"expected {want}: {'ok' if passed else 'FAIL'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not build():
        return 1
    if args.self_test:
        return self_test()
    return subprocess.run(driver(args.workload, args.seed, args.seconds,
                                 args.trace), cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
