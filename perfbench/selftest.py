#!/usr/bin/env python3
"""Self-tests of the benchmark (run from the repository root):

    python3 perfbench/selftest.py

For every workload:
  1. an engine over the timing decorator reaches a bitwise-identical final
     state to an engine over the bare backend;
  2. the counted per-layer metrics repeat exactly across two traced runs
     with different seeds;
  3. util.heap_allocs_per_step is 0.
Exits 0 when every test passes. Takes a few minutes.
"""

import argparse
import sys

import run

COUNTED = ("comm.alltoall_calls", "comm.alltoall_bytes",
           "transpose.vars_per_step", "fft.flop_per_step",
           "util.heap_allocs_per_step")


def main():
    binary = run.build()
    failures = []
    for w in run.WORKLOADS:
        raw = run.run_binary(binary, workload=w, seed=7, mode="bitwise")
        if not raw["bitwise_equal"]:
            failures.append(f"{w}: decorated engine state differs")
        counted = []
        for seed in (7, 8):
            args = argparse.Namespace(workload=w, seed=seed, seconds=2, trace=1)
            _, metrics, _ = run.per_layer(binary, args)
            counted.append({k: metrics[k]["value"] for k in COUNTED})
        if counted[0] != counted[1]:
            failures.append(f"{w}: counts differ between runs: {counted}")
        if counted[0]["util.heap_allocs_per_step"] != 0:
            failures.append(f"{w}: warmed steps allocate: {counted[0]}")
        print(f"{w}: bitwise_equal={raw['bitwise_equal']} {counted[0]}")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
