"""Measure the baseline: medians and quartiles of every metric on every workload.

Run from the repository root (it takes about 30 minutes):

    python3 perfbench/baseline.py

Each run is a separate `run.py` process of `run_seconds` (BENCHMARK.json),
one after another: seeds 1-10 untraced and seeds 1-3 traced per workload.
End-to-end metrics come from the untraced runs' report lines, so the metrics
outside the gated set (`ops_failed_frac`, `cn_steps_per_s`) are recorded too,
as are the two parts of `setup_s` (per run, the median import time and the
median input-and-warm-up time of its set-up samples); per-layer metrics come
from the traced runs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = 10          # untraced runs per workload
TRACED_SEEDS = 3    # traced runs per workload

# Rows of the ROADMAP "Open items" table and the (workload, metrics) that replace them.
SUPERSEDES = {
    "Acceptance sweep fixture (33 points, test_criterion_2 setup)":
        "phase-sweep: op_p50_s and wall_s per pass of 8 lattice points",
    "Sweep point d=2, a=0.25, p=3, N=65536: minimizer":
        "phase-sweep: ground_state.minimize_weinstein.s, .iterations, .s_per_iter",
    "Same point: slope_and_classify":
        "phase-sweep: spectral.eigenpairs.calls, .s, spectral.eigh_tridiagonal.calls, "
        "spectral.slope_solve.s, spectral.slope_and_classify.self_s",
    "Conservation fixture (N=2048, 10^4 CN steps)":
        "evolve: dynamics.CrankNicolson.step.p50_s, dynamics.solves_per_step, "
        "functionals.trace_record.s, and op_p50_s (a 10^3-step conservation run)",
    "shoot_profile, N=65536":
        "xval: ground_state.shoot_profile.s, ground_state.solve_ivp.calls",
}
NOT_SUPERSEDED = {
    "Tier-1 suite": "the benchmark does not run the test suite",
    "Prefactored tridiagonal solve, N=2048 (zgttrf/zgttrs)":
        "a LAPACK experiment outside the program; nothing in the package calls it yet",
}


def summarize(values):
    values = [float(v) for v in values]
    summary = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3)
        if summary["median"]:
            summary["spread"] = (q3 - q1) / summary["median"]   # compare with the bound
    return summary


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    result = {"seconds": seconds, "supersedes": SUPERSEDES,
              "not_superseded": NOT_SUPERSEDED, "workloads": {}}
    for workload in sorted(WORKLOADS):
        series, units, correct, machine = {}, {}, [], None
        for trace, count in ((0, SEEDS), (1, TRACED_SEEDS)):
            for seed in range(1, count + 1):
                report, res = run_one(workload, seed, seconds, trace)
                machine = report["machine"]
                if not trace:
                    for part in ("import_s", "inputs_s"):
                        series.setdefault((2, f"setup.{part}"), []).append(
                            statistics.median(s[part] for s in report["setup"]))
                correct.append(res["correct"])
                for name, m in report["metrics"].items():
                    series.setdefault((trace, name), []).append(m["value"])
                    units[name] = m["unit"]
                for key in ("attempted", "failed"):
                    series.setdefault((trace, key), []).append(res[key])
                print(f"{workload} seed={seed} trace={trace} correct={res['correct']}",
                      file=sys.stderr, flush=True)
        result["workloads"][workload] = {
            "all_correct": all(correct),
            "end_to_end": {name: dict(unit=units.get(name, "count"), **summarize(v))
                           for (trace, name), v in series.items() if trace == 0},
            "per_layer": {name: dict(unit=units.get(name, "count"), **summarize(v))
                          for (trace, name), v in series.items() if trace == 1},
            "setup_parts": {name: dict(unit="s", **summarize(v))
                            for (trace, name), v in series.items() if trace == 2},
        }
        result["machine"] = {k: v for k, v in machine.items() if k != "seed"}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        fh.write(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
