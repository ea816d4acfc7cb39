"""What `import degenls` and its commands load, and the in-package code that lets them
load less: the literal RK45 tableau, its first step, Brent's root search and the PCHIP,
each pinned to scipy's own."""

import importlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import degenls as dl
from degenls.model import _pchip, profile_evaluator
from degenls.presets import point_grid

gs = importlib.import_module("degenls.ground_state")

DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.interpolate")
UNUSED = DEFERRED + ("scipy.sparse", "scipy.special")


def test_import_loads_no_deferred_scipy_subpackage():
    # A fresh interpreter: this one has imported them for other tests.
    code = ("import json, sys; import degenls; "
            f"print(json.dumps([m for m in {list(DEFERRED)!r} if m in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []


def test_tableau_literals_are_rk45s():
    assert [gs._C1, gs._C2, gs._C3, gs._C4, gs._C5] == RK45.C[1:].tolist()
    lower = [(gs._A10,), (gs._A20, gs._A21), (gs._A30, gs._A31, gs._A32),
             (gs._A40, gs._A41, gs._A42, gs._A43), (gs._A50, gs._A51, gs._A52, gs._A53, gs._A54)]
    assert [list(row) for row in lower] == [row[:s] for s, row in
                                            enumerate(RK45.A.tolist()) if s]
    assert [gs._B0, gs._B1, gs._B2, gs._B3, gs._B4, gs._B5] == RK45.B.tolist()
    assert [gs._E0, gs._E1, gs._E2, gs._E3, gs._E4, gs._E5, gs._E6] == RK45.E.tolist()
    assert gs._P.dtype == RK45.P.dtype and gs._P.tolist() == RK45.P.tolist()
    assert gs._ERROR_EXPONENT == -1.0 / (RK45.error_estimator_order + 1)


def test_solve_ivp_binding_resolves_on_lookup():
    assert gs.solve_ivp is solve_ivp


def test_commands_load_no_scipy_subpackage_but_linalg(tmp_path):
    # shooting (every shot, both root searches) and a dilated evolve (the
    # PCHIP), each run from the command line in one fresh interpreter
    model = "[model]\nd = 1\na = 0.0\np = 3.0\nomega = 2.0\n\n[grid]\nn = 1024\n\n"
    (tmp_path / "shoot.ini").write_text(model + "[solver]\nshoot = true\n"
                                        "pohozaev_threshold = 1.0\n")
    (tmp_path / "evolve.ini").write_text(model + "[dynamics]\nt_final = 0.01\ndt = 0.001\n"
                                         "lambda_scale = 1.02\n")
    runs = [[command, "--config", str(tmp_path / config), "--out", str(tmp_path / command)]
            for command, config in (("groundstate", "shoot.ini"), ("evolve", "evolve.ini"))]
    code = ("import json, sys; from degenls.cli import main; "
            f"codes = [main(argv) for argv in {runs!r}]; "
            f"print(json.dumps([codes, [m for m in {list(UNUSED)!r} if m in sys.modules]]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=300).stdout
    assert json.loads(out.strip().splitlines()[-1]) == [[0, 0], []]
    assert (tmp_path / "groundstate" / "shooting_profile.csv").is_file()
    assert (tmp_path / "evolve" / "trace.csv").is_file()


# Knots with unequal cells, and values that give a flat cell, interior sign
# changes and both end rules: left end slope 0 (its three-point estimate
# turns against the first secant) and 3 times the first secant (the secants
# turn and the estimate exceeds 3 times the first); the last is a random walk.
PCHIP_X = np.array([0.0, 1.0, 2.0, 3.0, 4.5, 5.0, 7.0, 7.5, 9.0])
PCHIP_Y = [np.array([0.0, 1.0, 6.0, 6.0, 2.0, 3.0, 3.5, -1.0, -1.5]),
           np.array([0.0, 1.0, -9.0, -8.0, -8.0, 0.0, 2.0, 2.5, 0.5]),
           np.cumsum(np.random.default_rng(7).standard_normal(PCHIP_X.size))]


@pytest.mark.parametrize("y", PCHIP_Y, ids=["end-zero", "end-3m", "walk"])
def test_pchip_is_scipys(y):
    x = PCHIP_X
    inner = np.linspace(x[0], x[-1], 997)
    points = np.concatenate(([x[0] - 0.7, x[0] - 1e-3, x[-1] + 0.4], x, inner))
    ours = _pchip(x, y)(points)
    assert ours.tolist() == PchipInterpolator(x, y, extrapolate=True)(points).tolist()


@pytest.mark.parametrize("lam", [0.5, 0.97, 1.0, 1.02, 1.5])
@pytest.mark.parametrize("d, a, p", [(1, 0.0, 3.0), (2, 0.25, 2.5), (3, 0.0, 2.0),
                                     (1, 0.75, 2.0)])
def test_profile_evaluator_is_scipys_pchip(d, a, p, lam):
    # a wave read at the nodes of its grid stretched by lam, first node and
    # below it included, as `dilate` reads it
    params = dl.ModelParams(d, a, p)
    grid = point_grid(params, 512, 0.0, 0.0, minimizer=False)
    wave = dl.Profile(grid=grid, omega=1.0,
                      values=np.exp(-grid.nodes ** (1.0 - a) / (1.0 - a)) * (1.0 + grid.nodes))
    rho = lam * grid.nodes
    rho = rho[rho <= grid.nodes[-1]]
    scipy_values = np.exp(PchipInterpolator(grid.nodes, np.log(wave.values),
                                            extrapolate=True)(rho))
    assert profile_evaluator(wave, a)(rho).tolist() == scipy_values.tolist()


def _flat_root(x):
    """0 at 0.3 and flat to every order there: near it f underflows to 0, secants of
    equal values divide by zero (inf or nan in C) and Brent bisects."""
    return math.copysign(math.exp(-1.0 / abs(x - 0.3)), x - 0.3) if x != 0.3 else 0.0


TINY, EPS4 = np.finfo(float).tiny, 4.0 * np.finfo(float).eps
BRENTQ_CASES = {
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0, 2e-12, EPS4, 100),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12, EPS4, 100),
    "exp-tight": (lambda x: math.exp(x) - 10.0, 0.0, 5.0, TINY, EPS4, 100),
    "tiny-values": (lambda x: 1e-200 * math.tanh(x - 0.7), 0.0, 2.0, TINY, EPS4, 100),
    "flat": (_flat_root, 0.0, 1.0, TINY, EPS4, 200),
    "maxiter": (lambda x: x ** 3 - 0.2, 0.0, 1.0, 2e-12, EPS4, 3),
    "root-at-a": (lambda x: x, 0.0, 1.0, 2e-12, EPS4, 100),
    "root-at-b": (lambda x: x - 1.0, 0.0, 1.0, 2e-12, EPS4, 100),
}


@pytest.mark.parametrize("case", BRENTQ_CASES)
def test_brentq_is_scipys(case):
    f, a, b, xtol, rtol, maxiter = BRENTQ_CASES[case]
    ours, theirs = [], []
    root, converged = gs._brentq(lambda x: ours.append(x) or f(x), a, b, xtol, rtol, maxiter)
    ref, info = brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=xtol, rtol=rtol,
                       maxiter=maxiter, full_output=True, disp=False)
    assert (root, converged) == (ref, info.converged)
    assert ours == theirs and len(ours) == info.function_calls
    if not case.startswith("root-at"):
        # one call a step but the last, unless the steps ran out (scipy
        # leaves `iterations` unset when an end is the root)
        assert info.iterations == len(ours) - 2 + converged
    assert converged == (case != "maxiter")


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: 1e-200,
                               lambda x: math.nan if x > 0.5 else x - 0.7],
                         ids=["same-sign", "same-sign-tiny", "nan"])
def test_brentq_refuses_as_scipy_does(f):
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        gs._brentq(f, 0.0, 1.0, 2e-12, EPS4, 100)


@pytest.mark.parametrize("d, a, p, omega", [(1, 0.0, 3.0, 1.0), (1, 0.0, 2.0, 2.0),
                                            (1, 0.25, 5.0, 1.0), (2, 0.5, 2.5, 2.0),
                                            (3, 0.0, 2.0, 1.0), (1, 0.75, 7.0, 2.0)])
def test_initial_step_is_rk45s(d, a, p, omega):
    params = dl.ModelParams(d, a, p, omega)
    grid = point_grid(params, 4096, 0.0, 0.0, minimizer=False)
    r0, r_end = 0.5 * grid.nodes[0], grid.r_max
    rhs = gs._shot_rhs(params)
    for beta in np.linspace(1.0001, 8.0, 9) * omega ** (1.0 / (p - 1.0)):
        y = gs._series_start(params, beta, r0)
        tolerances = gs._shot_tolerances(beta)
        ref = RK45(rhs, float(r0), y, float(r_end), **tolerances)
        atol0, atol1 = tolerances["atol"]
        assert ref.direction == 1 and ref.max_step == np.inf and atol0 == atol1
        ours = gs._initial_step(rhs, float(r0), *map(float, y), float(r_end),
                                tolerances["rtol"], atol0)
        assert ours == (*ref.f.tolist(), ref.h_abs)


def test_initial_step_from_a_flat_start_is_rk45s():
    # rhs = 0: f and its change along the trial step are both 0, and RK45's
    # choice falls back to 1e-6
    def rhs(t, y):
        return 0.0, 0.0

    ref = RK45(rhs, 0.5, [1.0, 0.0], 3.0, rtol=1e-10, atol=1e-14)
    ours = gs._initial_step(rhs, 0.5, 1.0, 0.0, 3.0, 1e-10, 1e-14)
    assert ours == (*ref.f.tolist(), ref.h_abs) == (0.0, 0.0, 1e-6)
