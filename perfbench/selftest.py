"""Smoke self-test of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload, traced and untraced, prints a result whose
metrics are exactly the ones BENCHMARK.json names, each with its unit; that
each workload's correctness check trips on a deliberately wrong output; that
a raising operation counts as an unexpected failure, as does a verdict
mismatch outside the d = 1, a > 0, p < p_c defect; and that the benchmark
refuses to run where the package's sources are missing.  Sizes are shrunk so
the whole test takes well under a minute; the numbers it prints mean nothing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run
import workloads

ROOT = os.getcwd()
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def shrink():
    """Tiny grids, and few operations where an operation cannot be made cheap."""
    workloads._sweep_n = lambda a: 2048
    # Two xval points only: shooting costs the same at any N.
    workloads.XVAL_SLOTS = ((4096, 1, (0.0,)), (4096, 2, (0.0,)))
    workloads.EVOLVE_N = 256
    workloads.CLI_N = 2048
    workloads.CLI_SWEEP_N = 1024


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def check_emission(spec):
    for name in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, report, result = run_main(["--workload", name, "--seed", "3",
                                             "--seconds", "0.01", "--trace", str(trace)])
            assert code == 0, (name, trace, code)
            assert set(result) == RESULT_KEYS, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for value in result["metrics"].values():
                assert isinstance(value["value"], (int, float)), value
            assert report["machine"]["seed"] == 3
            print(f"ok  {name:12s} trace={trace}  {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")


def check_checks_trip():
    bad_identities = SimpleNamespace(pohozaev_1=1e-3, pohozaev_2=1e-9)
    same = SimpleNamespace(verdict="Stable")
    reason, _ = workloads._check_sweep((bad_identities, same, same), {})
    assert reason and reason.startswith("pohozaev"), reason
    good = SimpleNamespace(pohozaev_1=1e-9, pohozaev_2=1e-9)
    reason, _ = workloads._check_sweep((good, same, SimpleNamespace(verdict="Unstable")), {})
    assert reason and reason.startswith(workloads.DEFECT_VERDICT), reason

    import numpy as np
    drifting = SimpleNamespace(times=np.array([0.0, 1.0]), mass=np.array([1.0, 1.0 + 1e-6]),
                               blowup_flag=False, blowup_time=np.nan, halt_reason="")
    reason, work = workloads._evolve_check("conservation", 1.0, 1e-3)(drifting, {})
    assert reason and reason.startswith("mass drift") and work["cn_steps"] == 1000, reason
    reason, _ = workloads._evolve_check("supercritical", 2.0, 1e-3)(drifting, {})
    assert reason, "a run without blow-up passed the supercritical check"
    blown = SimpleNamespace(times=np.array([0.0]), mass=np.array([1.0]), blowup_flag=True,
                            blowup_time=0.0, halt_reason="fixed-point divergence")
    reason, _ = workloads._evolve_check("coarse-step", 5.0, 0.05)(blown, {})
    assert reason and reason.startswith(workloads.DEFECT_FALSE_BLOWUP), reason

    apart = SimpleNamespace(agree=False, rel_max=0.1)
    reason, _ = workloads._check_xval((apart, None, None), {})
    assert reason, "disagreeing profiles passed the xval check"

    out = os.path.join(ROOT, ".perfbench-work", "selftest-cli")
    os.makedirs(out, exist_ok=True)
    try:
        reason, _ = workloads._cli_check("evolve", 1)((0, out), {})
        assert reason and reason.startswith("missing"), reason
        reason, _ = workloads._cli_check("evolve", 1)((70, out), {})
        assert reason and reason.startswith("exit code"), reason
        header = "a,p,p_c,slope,n_plus,gap_minus,verdict_spectral,verdict_threshold," \
                 "pohozaev_1,pohozaev_2,error\n"
        good = "0,3,5,1,1,0,Stable,Stable,2e-7,1e-9,\n"
        with open(os.path.join(out, "sweep.csv"), "w") as fh:
            fh.write(header + good)
        ctx = {"sweep.csv": (header + good.replace("2e-7", "3e-7")).encode()}
        reason, _ = workloads._cli_check("sweep", 2)((0, out), ctx)
        assert reason and "differs" in reason, reason
        for row, expect in (("0,3,,,,,,,,,GroundStateError: no convergence\n", "GroundState"),
                            ("0,3,5,1,1,0,Stable,Stable,2e-6,1e-9,\n", "pohozaev")):
            with open(os.path.join(out, "sweep.csv"), "w") as fh:
                fh.write(header + row)
            reason, _ = workloads._cli_check("sweep", 1)((0, out), {})
            assert reason and expect in reason, reason
    finally:
        shutil.rmtree(out)
    print("ok  correctness checks trip on wrong outputs")


def check_unexpected_failure():
    def boom():
        raise RuntimeError("deliberate")

    result = run_fake([workloads.Op("boom", boom, lambda out, ctx: (None, {}),
                                    known=workloads.DEFECT_VERDICT)])
    assert result["failed"] == result["attempted"] >= 1
    assert result["correct"] is False, "a raising operation was taken for a known defect"
    print("ok  a raising operation is an unexpected failure")


def run_fake(ops):
    """Run a one-pass workload of the given operations; returns its result line.

    A fresh interpreter would not know the workload, so its cold set-ups are
    stubbed out.
    """
    workloads.WORKLOADS["fake"] = workloads.Workload(
        lambda rng, work: {}, lambda inputs: None, lambda inputs, pass_dir: ops)
    cold_setup = run.cold_setup
    run.cold_setup = lambda args: {"import_s": 0.0, "inputs_s": 0.0}
    try:
        code, _, result = run_main(["--workload", "fake", "--seed", "1",
                                    "--seconds", "0.01", "--trace", "0"])
    finally:
        del workloads.WORKLOADS["fake"]
        run.cold_setup = cold_setup
    assert code == 0, code
    return result


def check_verdict_attribution():
    """Only d = 1, a > 0 points below p_c may fail the known Direction 5 way."""
    identities = SimpleNamespace(pohozaev_1=1e-9, pohozaev_2=1e-9)
    mismatch = (identities, SimpleNamespace(verdict="Stable"),
                SimpleNamespace(verdict="Unstable"))
    for (d, a, p), known in (((1, 0.5, 2.0), True), ((1, 0.5, 5.0), False),
                             ((1, 0.25, 7.0), False), ((2, 0.25, 2.0), False)):
        (op,) = workloads._sweep_ops({"points": [(d, a, p)]}, None)
        op.run = lambda: mismatch
        result = run_fake([op])
        assert result["failed"] == result["attempted"] and result["correct"] is known, \
            ((d, a, p), result)
    print("ok  verdict mismatches count as known only at d = 1, a > 0, p < p_c")


def check_refuses_without_sources():
    bare = os.path.join(ROOT, ".perfbench-work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, os.path.basename(here)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, os.path.join(os.path.basename(here), "run.py"),
                               "--workload", "evolve", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=120)
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  refuses to run without src/degenls (exit {proc.returncode})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_checks_trip()
    check_unexpected_failure()
    check_verdict_attribution()
    check_refuses_without_sources()
    shrink()
    check_emission(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
