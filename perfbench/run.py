#!/usr/bin/env python3
"""Build and run the repository benchmark. See perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/main.exe with dune and runs one workload;
the last line of standard output is the JSON result. --self-test runs every
workload twice on the same seed, in both modes, and fails unless the runs
verify and every exact metric (simulated cycles, allocation, counters) is
identical between them.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORKLOADS = ["paper-run", "fuzz", "shard-wide"]

# Metrics measured in host time or host memory; every other metric is a
# deterministic count and must repeat exactly.
HOST_UNITS = {"s", "ms", "1/s", "cycles/s", "MB", "x"}
HOST_NAMES = {"trace.overhead_pct"}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("not at the root of a ccdp checkout (no dune-project or lib/)")
    # no shared dune cache: the build stays inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(workload, seed, seconds, trace, echo=True):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if echo:
        sys.stdout.write(r.stdout)
    if r.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), r.returncode))
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result" % " ".join(cmd))
    return json.loads(lines[-1])


def exact(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in HOST_UNITS and name not in HOST_NAMES}


def self_test(seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            a = run(workload, 1, seconds, trace, echo=False)
            b = run(workload, 1, seconds, trace, echo=False)
            diff = sorted(k for k in exact(a) if exact(a)[k] != exact(b).get(k))
            good = a["correct"] and b["correct"] and not diff
            ok = ok and good
            print("%-12s trace=%d %s: %d exact metrics%s" % (
                workload, trace, "ok" if good else "FAILED", len(exact(a)),
                ", differing: " + ", ".join(diff) if diff else ""))
    if not ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    build()
    if args.self_test:
        self_test(min(args.seconds, 1))
    else:
        run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
