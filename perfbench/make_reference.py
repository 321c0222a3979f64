#!/usr/bin/env python3
"""Regenerates perfbench/reference.json (run from the repository root).

Runs perfbench_step in reference mode, which records kinetic energy and
dissipation after every step from the initial condition, for the reference
seed and for SPREAD_SEEDS more. The reference seed's values become the table
run.py checks a run's final state against; the other seeds measure how far a
different seed moves the same quantities, and the stated tolerance must be
at least three times that spread. Takes about 10 minutes on a 4-core host.
"""

import json
import re
import subprocess
import sys

import run

STEPS = 150
REFERENCE_SEED = 1
SPREAD_SEEDS = (2, 3, 4)
DIVERGENCE_TOLERANCE = 1e-12
# name: (workload that generates the table, workloads checked against it,
# relative tolerance). Slab runs on 1 and on 2 ranks integrate the same
# physics; their table is generated on the faster 2-rank workload. MHD's
# kinetic energy trades with the magnetic field in a seed-dependent way, so
# its tolerance is wider.
TABLES = {
    "ns128": ("slab_ns128_r2_np4", ["slab_ns128_r1", "slab_ns128_r2_np4"],
              {"energy": 0.03, "dissipation": 0.04}),
    "mhd96": ("pencil_mhd96_r2", ["pencil_mhd96_r2"],
              {"energy": 0.08, "dissipation": 0.08}),
}


def start(binary, workload, seed):
    return subprocess.Popen(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--mode", "reference", "--max-steps", str(STEPS)],
        stdout=subprocess.PIPE, text=True, env=run.bench_env())


def main():
    binary = run.build()
    series = {}
    for seed in (REFERENCE_SEED,) + SPREAD_SEEDS:
        procs = {name: start(binary, wl, seed)
                 for name, (wl, _, _) in TABLES.items()}
        for name, p in procs.items():
            out, _ = p.communicate()
            if p.returncode != 0:
                raise SystemExit(f"reference run {name} seed {seed} failed")
            series[name, seed] = json.loads(out.strip().splitlines()[-1])

    tables = {}
    failures = []
    for name, (generated_on, workloads, tolerance) in TABLES.items():
        ref = series[name, REFERENCE_SEED]
        spread = {}
        for key in tolerance:
            want = ref["ref_" + key]
            spread[key] = max(
                abs(got - w) / w
                for seed in SPREAD_SEEDS
                for got, w in zip(series[name, seed]["ref_" + key], want))
            if spread[key] * 3 > tolerance[key]:
                failures.append(f"{name}: seed spread of {key} "
                                f"{spread[key]:.3g} is more than a third of "
                                f"the tolerance")
        tables[name] = {
            "workloads": workloads,
            "generated_on": generated_on,
            "tolerance": tolerance,
            "seed_spread": spread,
            "energy": [float(f"{v:.10g}") for v in ref["ref_energy"]],
            "dissipation": [float(f"{v:.10g}") for v in ref["ref_dissipation"]],
        }
        print(f"{name}: seed spread energy {spread['energy']:.3g}, "
              f"dissipation {spread['dissipation']:.3g}")

    doc = {
        "reference_seed": REFERENCE_SEED,
        "steps": STEPS,
        "divergence_tolerance": DIVERGENCE_TOLERANCE,
        "tables": tables,
    }
    # One line per list of numbers.
    text = re.sub(r"\[\s+([^\[\]{}]+?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(doc, indent=1))
    (run.HERE / "reference.json").write_text(text + "\n")
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
