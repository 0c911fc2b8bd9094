#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload uniform|sim-dynamics \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/perfbench,
traces to .bench_build/traces. The benchmark's last stdout line is its JSON
result; build output goes to stderr. See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main(argv):
    args = list(argv)
    parser = argparse.ArgumentParser(add_help=False)
    for flag in ("--workload", "--seed", "--trace", "--trace-out"):
        parser.add_argument(flag)
    known, _ = parser.parse_known_args(args)
    if known.trace == "1" and known.trace_out is None:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        name = "trace-%s-seed%s.json" % (known.workload, known.seed)
        args += ["--trace-out", os.path.join(OUT, "traces", name)]
    exe = build()
    sys.stdout.flush()
    try:
        proc = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
