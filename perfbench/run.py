#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forkjoin|rpc_small|rpc_await \
        --seed N --seconds S --trace 0|1

The benchmark is compiled from source into .bench_build (dune's build
log goes to stderr), then run; its standard output ends with one JSON
line.  With --trace 1 the in-memory spans are written to
.bench_build/perfbench-spans-<workload>.tsv at the end of the run.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
WORKLOADS = ("forkjoin", "rpc_small", "rpc_await")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of the repository (no dune-project or lib/ here)")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe"],
        stdout=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(BUILD_DIR, "perfbench-spans-%s.tsv" % args.workload)]
    sys.stdout.flush()
    # A SIGTERM to this script unwinds through the finally below, so the
    # benchmark process never outlives it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=175)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
