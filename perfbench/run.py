#!/usr/bin/env python3
"""Build the campaign benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
library plus the campaign_bench program (Release) under .bench_build/perfbench;
later calls rebuild only what changed. Its report lines start with
'#'; its last line is the JSON result. Extra arguments after the four above
(e.g. --perturb-record) are passed through to campaign_bench.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "campaign_bench")


def build():
    """Configure (once) and build; returns False when either step fails."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(step))
            return False
    return True


def commit():
    """The checkout's git commit, or 'unknown' when ROOT is not the top of a
    git work tree (the benchmark may run from a plain copy of the files)."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def stop(signum, frame):
    """SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    build or campaign_bench before this process exits."""
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, passthrough = parser.parse_known_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("run.py: %s holds no drivefi sources (src/); run the "
                         "benchmark from a full checkout\n" % ROOT)
        return 1
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(BUILD, "runs"), "--commit", commit()]
    return subprocess.run(cmd + passthrough).returncode


if __name__ == "__main__":
    sys.exit(main())
