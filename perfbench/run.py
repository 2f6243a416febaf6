#!/usr/bin/env python3
"""Builds and runs the end-to-end ledger benchmark (perfbench/ledger.cc).

Run from the repository root:

  python3 perfbench/run.py --workload serve_read --seed 1 --seconds 6 --trace 0
  python3 perfbench/run.py --selftest

Every call configures and builds the stedb library and the ledger into
$CARGO_TARGET_DIR (default .bench_build) under the repository root; only
the first one compiles everything. Build output goes to stderr, so
the last stdout line is the ledger's JSON result. The exit code is the
ledger's; a failed build exits 1 without a result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the ledger; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs,
              "--target", "ledger", "selftest"]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build()
    if args.selftest:
        sys.exit(subprocess.call([os.path.join(out, "selftest")]))

    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(out, "ledger"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--workdir", os.path.join(
               out, "work-%s-%d" % (args.workload, os.getpid())),
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
