#!/usr/bin/env python3
"""Warmed-step benchmark of the pseudo-spectral solver.

Usage (from the repository root):

    python3 perfbench/run.py --workload slab_ns128_r1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds perfbench_step (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, checks
the final state against perfbench/reference.json, and prints the metrics. The
last line of stdout is one JSON object with keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1. See perfbench/README.md for every metric's definition.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("slab_ns128_r1", "slab_ns128_r2_np4", "pencil_mhd96_r2")
# set-up time is the median over this many fresh processes (the timed run
# itself is one of them): a second set-up in one process would find the FFT
# plan cache and the workspace arena already warm.
SETUP_SAMPLES = 3
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return Path(target) / "perfbench"


def build():
    """Configures (once) and builds perfbench_step; returns its path."""
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench_step",
                  "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=BUILD_TIMEOUT_S)
        if p.returncode != 0:
            sys.stderr.write(p.stdout + p.stderr)
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return bdir / "perfbench_step"


def bench_env():
    """One worker-pool thread per rank, no other PSDNS_* settings."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSDNS_")}
    env["PSDNS_THREADS"] = "1"
    return env


def run_binary(binary, **opts):
    cmd = [str(binary)]
    for key, val in opts.items():
        cmd += ["--" + key.replace("_", "-"), str(val)]
    p = subprocess.run(cmd, capture_output=True, text=True, env=bench_env(),
                       timeout=PROCESS_TIMEOUT_S)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"perfbench: {' '.join(cmd)} exited {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def load_reference(workload):
    ref = json.loads((HERE / "reference.json").read_text())
    for table in ref["tables"].values():
        if workload in table["workloads"]:
            return ref, table
    raise SystemExit(f"perfbench: no reference for {workload}")


def max_steps(workload):
    """The run stops where the reference table ends."""
    return len(load_reference(workload)[1]["energy"]) - 1


def check(raw):
    """Checks the final state; returns (passed, human-readable lines)."""
    ref, table = load_reference(raw["workload"])
    lines = []
    ok = True
    steps = raw["total_steps"]
    if steps >= len(table["energy"]):
        return False, [f"check: {steps} steps exceed the reference table"]
    for key in ("energy", "dissipation"):
        want = table[key][steps]
        rel = abs(raw[key] - want) / want
        passed = rel <= table["tolerance"][key]
        ok &= passed
        lines.append(f"check: {key} {raw[key]:.9g} vs reference {want:.9g} "
                     f"at step {steps}: rel {rel:.2e} "
                     f"(tol {table['tolerance'][key]:g}) "
                     f"{'ok' if passed else 'FAIL'}")
    # max_k |k.u(k)| against its natural scale k_max * |u|.
    scale = raw["n"] / 2 * math.sqrt(2 * raw["energy"])
    div = raw["max_divergence"] / scale
    passed = div <= ref["divergence_tolerance"]
    ok &= passed
    lines.append(f"check: divergence {div:.2e} of k_max*|u| "
                 f"(tol {ref['divergence_tolerance']:g}) "
                 f"{'ok' if passed else 'FAIL'}")
    return ok, lines


def tail(samples):
    """Highest order statistic with at least 10 samples above it, and the
    percentile it sits at (the maximum when there are fewer than 11)."""
    s = sorted(samples)
    i = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, args):
    setup = [run_binary(binary, workload=args.workload, seed=args.seed,
                        mode="setup")["setup_s"]
             for _ in range(SETUP_SAMPLES - 1)]
    raw = run_binary(binary, workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=0,
                     max_steps=max_steps(args.workload), mode="run")
    setup.append(raw["setup_s"])
    steps = raw["step_s"]
    tail_value, tail_pct = tail(steps)
    notes = [f"step_s_tail: p{tail_pct:.0f} of {len(steps)} steps",
             f"setup_s: median of {len(setup)} processes "
             f"{', '.join(f'{s:.3f}' for s in setup)}"]
    metrics = {
        "step_s": metric(statistics.median(steps), "s"),
        "step_s_tail": metric(tail_value, "s"),
        "steps_per_s": metric(raw["loop_steps"] / raw["loop_s"], "1/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "mem_peak_bytes": metric(raw["peak_rss_bytes"], "B"),
    }
    return raw, metrics, notes


def per_layer(binary, args):
    trace_file = (build_dir() / "traces" /
                  f"{args.workload}-seed{args.seed}.json")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    raw = run_binary(binary, workload=args.workload, seed=args.seed,
                     seconds=args.seconds, trace=1,
                     max_steps=max_steps(args.workload), mode="run",
                     trace_file=trace_file)
    med = statistics.median
    layer = {name: med(reps) for name, reps in raw["layers"].items()}
    steps = raw["loop_steps"]
    traced = med(raw["traced_step_s"])
    untraced = med(raw["step_s"])
    fwd, inv = med(raw["forward_s"]), med(raw["inverse_s"])
    engine = med(t - f - i for t, f, i in
                 zip(raw["traced_step_s"], raw["forward_s"], raw["inverse_s"]))
    fft_s = layer["fft.r2c"] + layer["fft.c2r"] + layer["fft.c2c"]
    physics = sum(layer[k] for k in ("dns.form_products", "dns.assemble_rhs",
                                     "dns.apply_linear", "dns.dealias"))
    metrics = {
        "transpose.forward_s": metric(fwd, "s"),
        "transpose.inverse_s": metric(inv, "s"),
        "transpose.vars_per_step": metric(med(raw["traced_vars"]), "count"),
        "transpose.exchange_s": metric(layer["transpose.exchange"], "s"),
        "transpose.pack_s": metric(layer["transpose.pack"], "s"),
        "transpose.unpack_s": metric(layer["transpose.unpack"], "s"),
        "comm.alltoall_calls": metric(raw["alltoall_calls"] / steps, "count"),
        "comm.alltoall_bytes": metric(raw["alltoall_bytes"] / steps, "B"),
        "comm.alltoall_s": metric(layer["comm.alltoall"], "s"),
        "fft.r2c_s": metric(layer["fft.r2c"], "s"),
        "fft.c2r_s": metric(layer["fft.c2r"], "s"),
        "fft.c2c_s": metric(layer["fft.c2c"], "s"),
        "fft.flop_per_step": metric(raw["fft_flop_per_step"], "count"),
        "fft.gflop_per_s": metric(raw["fft_flop_per_step"] / fft_s / 1e9,
                                  "Gflop/s"),
        "dns.engine_s": metric(engine, "s"),
        "dns.form_products_s": metric(layer["dns.form_products"], "s"),
        "dns.assemble_rhs_s": metric(layer["dns.assemble_rhs"], "s"),
        "dns.apply_linear_s": metric(layer["dns.apply_linear"], "s"),
        "dns.dealias_s": metric(layer["dns.dealias"], "s"),
        "dns.unattributed_frac": metric(1 - (fwd + inv + physics) / traced,
                                        "ratio"),
        "util.heap_allocs_per_step": metric(raw["heap_allocs"] / steps,
                                            "count"),
        "util.arena_peak_bytes": metric(raw["arena_peak_bytes"], "B"),
        "obs.trace_overhead_frac": metric((traced - untraced) / untraced,
                                          "ratio"),
    }
    notes = [f"traced run: {len(raw['traced_step_s'])} traced and "
             f"{len(raw['step_s'])} untraced steps, interleaved",
             f"chrome trace: {trace_file}"]
    if raw["dropped_spans"]:
        notes.append(f"chrome trace dropped {raw['dropped_spans']} spans")
    return raw, metrics, notes


def run_workload(binary, args):
    measure = per_layer if args.trace else end_to_end
    raw, metrics, notes = measure(binary, args)
    correct, checks = check(raw)
    steps = raw["loop_steps"]
    for line in notes + checks:
        print(f"[{args.workload}] {line}")
    for name, m in metrics.items():
        print(f"[{args.workload}] {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": steps,
            "failed": 0 if correct else steps, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    binary = build()
    if args.workload != "all":
        print(json.dumps(run_workload(binary, args)))
        return
    results = {}
    for w in WORKLOADS:
        results[w] = run_workload(binary, argparse.Namespace(**{
            **vars(args), "workload": w}))
    print(json.dumps(results))
    if not all(r["correct"] for r in results.values()):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
