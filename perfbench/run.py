"""Benchmark of the degenls toolkit, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload phase-sweep --seed 1 --seconds 20 --trace 0

The package is imported from ./src.  With --trace 0 the run reports the
end-to-end metrics; setup_s is the median of three cold set-ups (import,
inputs, warm-up): this process's own and, after the timed passes, two more
in fresh interpreters.  With --trace 1 it first runs one untraced pass, then
traces the public functions of every module (see tracer.py) and reports the
per-layer metrics per traced pass.  The last line of standard output is the
result object; the line before it is the full report (machine, seed, counts,
every metric with its unit, the failing operations).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS, Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS

SETUP_SAMPLES = 3   # cold set-ups per untraced run, each in its own interpreter
# The end-to-end metrics of the result line; the report line carries more.
GATED = ("setup_s", "wall_s", "op_p50_s", "peak_rss_mb")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "DEGENLS_THREADS")


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def machine_info(seed: int) -> dict:
    """Where and with what the run happened; the BLAS thread environment is read, never set."""
    import numpy
    import scipy

    import degenls

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    llc_level, llc_size = 0, None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(cache_dir))
    except OSError:
        entries = []
    for entry in entries:
        level = (_read(os.path.join(cache_dir, entry, "level")) or "").strip()
        if level.isdigit() and int(level) > llc_level:
            llc_level = int(level)
            llc_size = (_read(os.path.join(cache_dir, entry, "size")) or "").strip() or None
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": f"L{llc_level} {llc_size}" if llc_size else None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "degenls": degenls.__version__,
        "seed": seed,
        "blas_env": {key: os.environ.get(key) for key in BLAS_ENV},
    }


class OpRecord:
    __slots__ = ("label", "seconds", "reason", "known", "work")

    def __init__(self, label, seconds, reason, known, work):
        self.label, self.seconds, self.reason, self.work = label, seconds, reason, work
        # A failure is attributed to a tracked defect only when it fails the known way.
        self.known = reason is not None and known is not None and reason.startswith(known)


def cold_setup(args):
    """One set-up in a fresh interpreter, so that its import and first calls are cold."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(build, inputs, pass_dir):
    """One closed-loop pass over the operations build() returns; returns (wall, records)."""
    os.makedirs(pass_dir)
    ops = build(inputs, pass_dir)
    ctx, records = {}, []
    sys.stdout.flush()
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:        # a raising operation is a failed operation
            elapsed = time.perf_counter() - t0
            records.append(OpRecord(op.label, elapsed, f"raised {type(exc).__name__}: {exc}",
                                    op.known, {}))
            continue
        elapsed = time.perf_counter() - t0
        reason, work = op.check(out, ctx)
        records.append(OpRecord(op.label, elapsed, reason, op.known, work))
    wall = time.perf_counter() - start
    shutil.rmtree(pass_dir)
    return wall, records


def run_passes(workload, inputs, work, seconds, first_index, budget_start):
    """Repeat the pass while the next one is predicted to end within the budget."""
    passes = []
    while True:
        passes.append(run_pass(workload.ops, inputs,
                               os.path.join(work, f"pass-{first_index + len(passes)}")))
        elapsed = time.perf_counter() - budget_start
        if elapsed + statistics.median(w for w, _ in passes) > seconds:
            return passes


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def tail_percentile(values):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    for q, tag in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        if len(values) * (1.0 - q) >= 10:
            return tag, percentile(values, q)
    return None


def metric(value, unit, **extra):
    return dict(value=value, unit=unit, **extra)


def end_to_end(passes, setup_s):
    walls = [w for w, _ in passes]
    records = [r for _, recs in passes for r in recs]
    times = [r.seconds for r in records]
    failed = sum(r.reason is not None for r in records)
    steps = sum(r.work.get("cn_steps", 0) for r in records)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(walls), "s", passes=len(walls)),
        "op_p50_s": metric(statistics.median(times), "s", samples=len(times)),
        "ops_failed_frac": metric(failed / len(records), "ratio",
                                  attempted=len(records), failed=failed),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail = tail_percentile(times)
    if tail:
        metrics["op_p50_s"][f"{tail[0]}_s"] = tail[1]
    if steps:
        metrics["cn_steps_per_s"] = metric(steps / sum(walls), "1/s", cn_steps=steps)
    return metrics


def per_layer(tracer: Tracer, traced, reference_wall, probe):
    """Layer metrics per traced pass, with the counts next to the times."""
    n = len(traced)
    stats = tracer.stats

    def calls(name):
        return stats[name].calls / n if name in stats else 0.0

    def secs(name):
        return stats[name].total / n if name in stats else 0.0

    def self_s(name):
        return stats[name].self_time / n if name in stats else 0.0

    cn = stats.get("dynamics.CrankNicolson.step")
    durations = cn.durations if cn else []
    steps = (cn.returned / n) if cn else 0.0
    minimize = stats.get("ground_state.minimize_weinstein")
    iterations = (minimize.iterations / n) if minimize else 0.0
    record_calls = record_s = 0.0
    for name in ("mass_of", "energy_of", "virial_of", "variance_of", "kinetic_of", "lp_power_of"):
        st = stats.get(f"functionals.{name}")
        edge = st.by_parent.get("dynamics.evolve_and_trace") if st else None
        if edge:
            record_calls += edge[0] / n
            record_s += edge[1] / n
    walls = [w for w, _ in traced]
    bytes_written = sum(r.work.get("bytes_written", 0) for _, recs in traced for r in recs) / n

    count, sec, ratio = "count", "s", "ratio"
    m = {
        "spectral.eigenpairs.calls": metric(calls("spectral.eigenpairs"), count),
        "spectral.eigenpairs.s": metric(secs("spectral.eigenpairs"), sec),
        "spectral.eigh_tridiagonal.calls": metric(calls("spectral.eigh_tridiagonal"), count),
        "spectral.slope_solve.s": metric(secs("spectral.slope_solve"), sec),
        "spectral.slope_and_classify.self_s": metric(self_s("spectral.slope_and_classify"), sec),
        "ground_state.minimize_weinstein.calls":
            metric(calls("ground_state.minimize_weinstein"), count),
        "ground_state.minimize_weinstein.s": metric(secs("ground_state.minimize_weinstein"), sec),
        "ground_state.minimize_weinstein.iterations": metric(iterations, count),
        "ground_state.minimize_weinstein.s_per_iter":
            metric(secs("ground_state.minimize_weinstein") / iterations if iterations else 0.0,
                   sec),
        "ground_state.shoot_profile.s": metric(secs("ground_state.shoot_profile"), sec),
        "ground_state.solve_ivp.calls": metric(calls("ground_state.solve_ivp"), count),
        "dynamics.steps": metric(steps, count),
        "dynamics.CrankNicolson.step.s": metric(secs("dynamics.CrankNicolson.step"), sec),
        "dynamics.CrankNicolson.step.p50_s":
            metric(percentile(durations, 0.5) if durations else 0.0, sec,
                   samples=len(durations)),
        "dynamics.CrankNicolson.step.p99_s":
            metric(percentile(durations, 0.99) if durations else 0.0, sec,
                   samples=len(durations)),
        "dynamics.solve_banded.calls": metric(calls("dynamics.solve_banded"), count),
        "dynamics.solves_per_step":
            metric(calls("dynamics.solve_banded") / steps if steps else 0.0, ratio),
        "dynamics.evolve_and_trace.self_s": metric(self_s("dynamics.evolve_and_trace"), sec),
        "functionals.trace_record.calls": metric(record_calls, count),
        "functionals.trace_record.s": metric(record_s, sec),
        "discretization.gradient_energy.calls":
            metric(calls("discretization.gradient_energy"), count),
        "discretization.gradient_energy.s": metric(secs("discretization.gradient_energy"), sec),
        "discretization.assemble_operator.calls":
            metric(calls("discretization.assemble_operator"), count),
        "discretization.assemble_operator.s":
            metric(secs("discretization.assemble_operator"), sec),
        "functionals.evaluate_identities.s": metric(secs("functionals.evaluate_identities"), sec),
        "model.omega_rescale.s": metric(secs("model.omega_rescale"), sec),
        "asymptotics.fit_decay.s": metric(secs("asymptotics.fit_decay"), sec),
        "asymptotics.origin_asymptotics.s": metric(secs("asymptotics.origin_asymptotics"), sec),
        "cli.groundstate.s": metric(secs("cli.cmd_groundstate"), sec),
        "cli.spectrum.s": metric(secs("cli.cmd_spectrum"), sec),
        "cli.evolve.s": metric(secs("cli.cmd_evolve"), sec),
        "cli.sweep.s": metric(secs("cli.cmd_sweep"), sec),
        "cli.bytes_written": metric(bytes_written, "bytes"),
        "config.load_config.s": metric(secs("config.load_config"), sec),
        "cli.pool_probe.threads1_s": metric(probe[0].seconds if probe else 0.0, sec),
        "cli.pool_probe.threads2_s": metric(probe[1].seconds if probe else 0.0, sec),
        "trace.overhead_frac": metric(statistics.median(walls) / reference_wall - 1.0, ratio),
        "trace.uncovered_frac": metric(1.0 - tracer.root_time / sum(walls), ratio),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = metric(tracer.layer_self_time(layer) / n, sec)
    return m


def failures(passes):
    seen = {}
    for _, recs in passes:
        for r in recs:
            if r.reason is not None:
                entry = seen.setdefault(r.label, {"op": r.label, "reason": r.reason,
                                                  "known": r.known, "count": 0})
                entry["count"] += 1
    return list(seen.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "degenls", "__init__.py")):
        print(f"error: no package at {os.path.join('src', 'degenls')}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import degenls
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(degenls.__file__)) != os.path.join(src, "degenls"):
        print(f"error: degenls imported from {degenls.__file__}, not from ./src", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = os.path.join(root, ".perfbench-work", str(os.getpid()))
    os.makedirs(work)
    try:
        t0 = time.perf_counter()
        inputs = workload.generate(random.Random(args.seed), work)
        workload.warmup(inputs)
        setup_samples = [{"import_s": import_s, "inputs_s": time.perf_counter() - t0}]
        if args.setup_only:
            print(json.dumps(setup_samples[0]))
            return 0

        budget_start = time.perf_counter()
        if args.trace:
            reference = run_pass(workload.ops, inputs, os.path.join(work, "pass-0"))
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(workload, inputs, work, args.seconds, 1, budget_start)
            finally:
                tracer.uninstall()
            timed = traced
            passes = [reference] + traced
            probe = []
            if workload.probe:
                passes.append(run_pass(workload.probe, inputs, os.path.join(work, "probe")))
                probe = passes[-1][1]
            metrics = per_layer(tracer, traced, reference[0], probe)
            report_metrics = metrics
        else:
            passes = timed = run_passes(workload, inputs, work, args.seconds, 0, budget_start)
            setup_samples += [cold_setup(args) for _ in range(SETUP_SAMPLES - 1)]
            setup_s = statistics.median(s["import_s"] + s["inputs_s"] for s in setup_samples)
            report_metrics = end_to_end(passes, setup_s)
            metrics = {k: report_metrics[k] for k in GATED}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):     # other runs may still be using it
            os.rmdir(os.path.dirname(work))

    records = [r for _, recs in passes for r in recs]
    failed = [r for r in records if r.reason is not None]
    unexpected = [r for r in failed if not r.known]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "setup": setup_samples,
        "passes_s": [w for w, _ in passes],
        "ops": [{"op": r.label, "s": r.seconds, "ok": r.reason is None, **r.work}
                for r in timed[-1][1]],
        "failures": failures(passes),
        "known_defects": KNOWN_DEFECTS,
        "metrics": report_metrics,
    }
    print(json.dumps(report))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
