#!/usr/bin/env python3
"""Build the benchmark executable from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper_pair --seed 1 --seconds 20 --trace 0

The executable is built with dune's release profile. Its standard output is
passed through; the last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is the executable's:
0 when every unit passed the correctness gate, 1 when one failed, 2 on
a usage or build error or a timeout.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("paper_pair", "many_flow", "corpus_sweep")
NEEDED = ("dune-project", "lib", "scenarios", "perfbench/dune-project")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: run from the root of a source checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2

    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out after %d s" % BUILD_TIMEOUT_S,
              file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    try:
        run = subprocess.run(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: bench.exe timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        print("perfbench: bench.exe printed no result line", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
