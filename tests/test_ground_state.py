import bisect
import importlib
import logging
import re

import numpy as np
import pytest
from scipy.integrate import RK45, OdeSolver, solve_ivp

import degenls as dl
from degenls.exceptions import (BracketInvalidError, InvalidParameterError, InvalidWindowError,
                                NonConvergenceError, StiffnessFailureError)
from degenls.ground_state import el_residual
from degenls.presets import default_r_max, line_grading, point_grid, sweep_grid
from tests.conftest import SQRT2, sech_values

# The module, not the `ground_state` function the package exports under its name.
gs = importlib.import_module("degenls.ground_state")


def test_minimizer_matches_sech_oracle(anchor_wave, anchor_grid):
    exact = sech_values(anchor_grid.nodes)
    assert np.max(np.abs(anchor_wave.values - exact)) < 1e-4
    assert np.all(anchor_wave.values > 0.0)
    assert np.all(np.diff(anchor_wave.values) <= 0.0)


def test_minimizer_report_consistency(anchor_report, anchor_params):
    rep = anchor_report
    # J[Phi] equals the reported minimum by construction of the quotient
    j = dl.functionals.weinstein_of(dl.assemble_operator(rep.grid, anchor_params.a),
                                    rep.phi_normalized, anchor_params.p)[0]
    assert j == pytest.approx(rep.j_min, rel=1e-12)
    assert rep.kappa > 0
    assert rep.kappa == pytest.approx(1.0 / rep.lam, rel=1e-12)
    # kappa-rescaled wave reproduces the quartic integral 16/3 (full line)
    assert rep.kappa == pytest.approx(16.0 / 3.0, rel=1e-3)
    # and J_min = lam^{-2/(p+1)} at unit norm
    assert rep.j_min == pytest.approx(rep.lam ** (-0.5), rel=1e-10)


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_quotient_is_the_minimizers_own(a):
    # weinstein_of on the sector-0 operator is J in the flow's own form, so the
    # reported minimum comes back exactly, on a radial grid (a = 0) and on the
    # full line (a = 0.25)
    params = dl.ModelParams(1, a, 3.0, 1.0)
    grid = sweep_grid(params, n=8192)
    assert isinstance(grid, dl.LineGrid) == (a > 0.0)
    rep = dl.minimize_weinstein(params, grid)
    op = dl.assemble_operator(rep.grid, params.a)
    assert dl.functionals.weinstein_of(op, rep.phi_normalized, params.p)[0] == rep.j_min


def test_minimizer_is_local_minimum(anchor_report, anchor_params):
    rng = np.random.default_rng(11)
    rep = anchor_report
    j0 = rep.j_min
    grid = rep.grid
    op = dl.assemble_operator(grid, anchor_params.a)
    for _ in range(50):
        h = rng.standard_normal(grid.n)
        h /= dl.weighted_norm(grid, h)
        u = rep.phi_normalized + 1e-3 * h
        assert dl.functionals.weinstein_of(op, u, anchor_params.p)[0] >= j0 - 1e-12


def test_el_residual_below_tolerance(anchor_wave, anchor_params):
    res = el_residual(anchor_params, anchor_wave.grid, anchor_wave.values)
    assert res < 1e-7
    assert anchor_wave.residual == pytest.approx(res, rel=1e-6)


def test_kappa_rescale_consistency(anchor_report, anchor_params):
    # phi = kappa^{1/(p-1)} Phi satisfies the unit-frequency profile equation
    rep = anchor_report
    phi = rep.kappa ** 0.5 * rep.phi_normalized
    res = el_residual(anchor_params.with_omega(1.0), rep.grid, phi)
    assert res < 1e-7


def test_profile_residual_is_the_unit_frequency_defect():
    # the minimizer runs at omega = 1 whatever params.omega is, and so does the
    # defect that `profile` reports; at omega = 2 the wave's defect is |phi|_w
    params = dl.ModelParams(1, 0.0, 3.0, 2.0)
    grid = dl.build_grid(1, 30.0, 4096)
    wave = dl.minimize_weinstein(params, grid).profile(params)
    assert wave.omega == 1.0
    assert wave.residual == el_residual(params.with_omega(1.0), grid, wave.values)
    assert wave.residual < 1e-8
    # the kernel band follows the residual: with the omega = 2 defect it swallowed 13 eigenvalues
    report = dl.slope_and_classify(params.with_omega(1.0), wave)
    assert report.n_plus == 1 and report.verdict == "Stable"


def test_flow_stalls_below_its_rounding_floor():
    # no defect reaches tol = 1e-30 on 256 cells: the best defect stops halving
    params = dl.ModelParams(1, 0.0, 3.0)
    _, op, seed = gs._flow_problem(dl.build_grid(1, 20.0, 256, 1.0), 0.0)
    with pytest.raises(NonConvergenceError, match="stalled") as err:
        gs._weinstein_flow(params, op, seed, 1e-30)
    assert err.value.iterations == 2 * gs.STALL_WINDOW
    assert 0.0 < err.value.residual < 1e-10


@pytest.mark.parametrize("d, a, p", [(1, 0.0, 3.0), (1, 0.25, 3.0), (1, 0.75, 2.5),
                                     (2, 0.25, 5.0)])
def test_flow_never_raises_the_quotient(monkeypatch, d, a, p):
    # the radial anchor, the coupled line from its off-centre seed, the half
    # line and d = 2: each step is a power-method step for the convex integral
    # of u^{p+1} on the H^{1,a} unit sphere, so J cannot rise, and the solve
    # with the M-matrix A0 + I keeps the iterates nonnegative (the seed's far
    # samples underflow to 0)
    params = dl.ModelParams(d, a, p, 1.0)
    _, op, seed = gs._flow_problem(sweep_grid(params, n=4096), a)
    quotients = []
    unit = gs._unit

    def recording(op, v, p):
        u, j, lam = unit(op, v, p)
        assert np.all(u >= 0.0)
        quotients.append(j)
        return u, j, lam

    monkeypatch.setattr(gs, "_unit", recording)
    phi, iterations = gs._weinstein_flow(params, op, seed, 1e-8)
    j = np.array(quotients)
    assert j.size == iterations + 1
    assert np.all(j[1:] <= j[:-1] * (1.0 + 1e-15))
    assert np.all(phi > 0.0)


def test_guard_refuses_a_negative_wave():
    # at p = 3, -phi solves phi's equation too, but it is not positive
    params = dl.ModelParams(1, 0.0, 3.0)
    _, op, seed = gs._flow_problem(dl.build_grid(1, 20.0, 256, 1.0), 0.0)
    phi, _ = gs._weinstein_flow(params, op, seed, 1e-8)
    assert gs._is_minimizer(params, op, phi)
    assert not gs._is_minimizer(params, op, -phi)


def test_minimizer_rejects_closed_window():
    grid = dl.build_grid(3, 20.0, 256, 1.0)
    with pytest.raises(InvalidWindowError):
        dl.minimize_weinstein(dl.ModelParams(3, 0.5, 5.0), grid)
    with pytest.raises(InvalidWindowError):
        dl.shoot_profile(dl.ModelParams(3, 0.5, 5.0), grid)


def test_minimizer_nonconvergence_carries_residual(anchor_params, anchor_grid):
    # No defect reaches tol = 1e-300: the flow stops once its defect stalls
    with pytest.raises(NonConvergenceError) as err:
        dl.minimize_weinstein(anchor_params, anchor_grid, tol=1e-300)
    assert err.value.residual is not None and err.value.residual > 0
    assert err.value.iterations <= 2 * gs.STALL_WINDOW
    assert f"{err.value.residual:.3e}" in str(err.value)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan"), float("inf")])
def test_minimizer_refuses_tol_out_of_range(anchor_params, anchor_grid, tol):
    with pytest.raises(InvalidParameterError):
        dl.minimize_weinstein(anchor_params, anchor_grid, tol=tol)


def test_shoot_beta_matches_sech(anchor_shot):
    assert anchor_shot.phi0 == pytest.approx(SQRT2, abs=1e-6)
    assert anchor_shot.values[-1] < 1e-9 * anchor_shot.phi0
    assert np.all(anchor_shot.values > 0.0) and np.all(np.diff(anchor_shot.values) <= 0.0)


def test_shoot_profile_matches_oracle(anchor_shot, anchor_grid):
    exact = sech_values(anchor_grid.nodes)
    assert np.max(np.abs(anchor_shot.values - exact)) < 1e-4


def test_shoot_without_an_overshoot_refuses_after_64_doublings(anchor_params, anchor_grid,
                                                              monkeypatch):
    # every shot undershoots: the upper end doubles from 2 beta_fixed = 2 and
    # gives up after 64 shots, the last at 2^64
    shots = []

    def under(params, beta, r0, r_end, steps=None, exits=None):
        shots.append(beta)
        exits.append(r_end)
        return "under"

    monkeypatch.setattr(gs, "_classify_shot", under)
    with pytest.raises(BracketInvalidError):
        dl.shoot_profile(anchor_params, anchor_grid)
    assert shots == [2.0 ** k for k in range(1, 65)]


@pytest.mark.parametrize("max_bisect", [0, -1, 2.5, float("inf"), float("nan")])
def test_shoot_rejects_max_bisect_below_one(anchor_params, anchor_grid, max_bisect):
    with pytest.raises(InvalidParameterError):
        dl.shoot_profile(anchor_params, anchor_grid, max_bisect=max_bisect)


def _scipy_shot(params, beta, r0, r_end):
    """The shot by scipy's own RK45 through solve_ivp, with the two terminal events."""
    def cross(rho, y):
        return y[0]
    cross.terminal, cross.direction = True, -1.0

    def turn(rho, y):
        return y[1]
    turn.terminal, turn.direction = True, 1.0

    sol = solve_ivp(gs._shot_rhs(params), (r0, r_end), gs._series_start(params, beta, r0),
                    method="RK45", dense_output=True, events=[cross, turn],
                    **gs._shot_tolerances(beta))
    assert sol.status != -1, sol.message
    if sol.t_events[0].size:
        return "over", sol
    if sol.t_events[1].size:
        return "under", sol
    return gs._end_kind(sol.y[0, -1], beta), sol


def _float_steps(fun, t0, y0, t_bound, **options):
    """`_rk45_step` from the state a scipy RK45 made with these arguments starts in.

    Yields (t, h_abs, y, attempts) after each accepted step; stops at t_bound
    or when a step fails.  The scipy solver must be one `_rk45_step` copies:
    stepping outward, with no maximum step and one atol for both components.
    """
    solver = RK45(fun, t0, y0, t_bound, **options)
    t, (u, v), (f0, f1) = solver.t, solver.y.tolist(), solver.f.tolist()
    h_abs = float(solver.h_abs)
    atol0, atol1 = np.broadcast_to(solver.atol, 2).tolist()
    assert solver.direction == 1 and solver.max_step == np.inf and atol0 == atol1
    while t != t_bound:
        step = gs._rk45_step(fun, t, u, v, f0, f1, h_abs, t_bound, float(solver.rtol), atol0)
        if step is None:
            return
        t, u, v, h_abs, k0, k1, attempts = step
        f0, f1 = k0[6], k1[6]
        yield t, h_abs, (u, v), attempts


def test_classified_shot_never_calls_ode_solver_step(anchor_params, anchor_grid, monkeypatch):
    # after RK45's initial step and f, every shot steps on floats, the recorded
    # one included: no OdeSolver.step call and no solve_ivp call
    calls = []
    original = OdeSolver.step

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(OdeSolver, "step", spy)
    monkeypatch.setattr(gs, "solve_ivp", lambda *args, **kwargs: calls.append(args))
    r0, r_end = 0.5 * anchor_grid.nodes[0], anchor_grid.r_max
    for beta, kind in ((1.01 * SQRT2, "over"), (0.99 * SQRT2, "under")):
        assert gs._classify_shot(anchor_params, beta, r0, r_end) == kind
        assert gs._classify_shot(anchor_params, beta, r0, r_end, path=[]) == kind
    dl.shoot_profile(anchor_params, anchor_grid)
    assert calls == []


def test_float_step_reads_scipys_tableau():
    # the unrolled stage sums use scipy's RK45 entries, and leave out B[1] and
    # E[1], which must be its only zero weights; A is strictly lower triangular;
    # the dense output is scipy's quartic P
    names = {f"_C{i}": RK45.C[i] for i in range(1, 6)}
    names.update({f"_A{i}{j}": RK45.A[i, j] for i in range(1, 6) for j in range(i)})
    names.update({f"_B{i}": RK45.B[i] for i in range(6)})
    names.update({f"_E{i}": RK45.E[i] for i in range(7)})
    assert {name: getattr(gs, name) for name in names} == names
    assert sorted(name for name, value in names.items() if value == 0.0) == ["_B1", "_E1"]
    assert (len(RK45.A), RK45.C.size, RK45.B.size, RK45.E.size) == (6, 6, 6, 7)
    assert RK45.C[0] == 0.0 and not np.triu(RK45.A).any()
    assert gs._P.shape == (7, 4) and np.array_equal(gs._P, RK45.P)


def test_shoot_profile_integrates_densely_once(anchor_params, anchor_grid, monkeypatch):
    # the bracket and bisection shots are only classified: one shot, of the
    # chosen beta, records its steps
    recorded = []
    original = gs._classify_shot

    def spy(*args, path=None, **kwargs):
        kind = original(*args, path=path, **kwargs)
        if path is not None:
            recorded.append((args[1], path))
        return kind

    monkeypatch.setattr(gs, "_classify_shot", spy)
    shot = dl.shoot_profile(anchor_params, anchor_grid)
    assert len(recorded) == 1 and recorded[0][0] == shot.phi0
    path = recorded[0][1]
    # the one vectorized sample equals scipy's dense-output formula, node by
    # node: y + h Q [x, x^2, x^3, x^4] with Q = K^T P on the step holding rho
    t_fine = np.linspace(path[0][0], path[-1][1], 4096)
    phi_fine = gs._interpolant(path)(t_fine)
    rho_graft = t_fine[np.argmin(np.where(phi_fine > 0, phi_fine, np.inf))]
    nodes = anchor_grid.nodes
    dense = nodes <= rho_graft
    assert dense.sum() > anchor_grid.n // 2
    starts = [step[0] for step in path]
    scalar = []
    for rho in nodes[dense]:
        t, t_new, phi, _, k0, _ = path[max(bisect.bisect_left(starts, rho) - 1, 0)]
        h = t_new - t
        scalar.append(phi + h * np.dot(np.array(k0) @ RK45.P, np.cumprod([(rho - t) / h] * 4)))
    scale = np.max(np.abs(shot.values))
    assert np.max(np.abs(shot.values[dense] - scalar)) <= 1e-15 * scale


@pytest.mark.parametrize("d, a, p, grid_args", [
    (1, 0.0, 3.0, (20.0, 4096, 1.0)), (2, 0.25, 3.0, (12.0, 1024, 1.5)),
    (3, 0.0, 2.0, (27.6, 16384, 1.0)), (1, 0.5, 2.5, (60.0, 8192, 1.5))])
def test_float_shot_matches_scipy_rk45(d, a, p, grid_args):
    # the float shot is scipy's RK45 shot with solve_ivp's terminal events:
    # the same class, the same steps to within 1 % and the same dense
    # trajectory to 1e-12 beta, near beta* (where 'done' and close calls
    # live), far from it, below the constant solution and at the bracket
    # search's ends; beta* is the plain bisection's, so that the probes do not
    # move with the few ulp by which rounding scatters the located beta
    params = dl.ModelParams(d, a, p, 1.0)
    grid = dl.build_grid(d, *grid_args)
    r0, r_end = 0.5 * grid.nodes[0], grid.r_max
    beta_star, _ = _plain_bisection(params, grid)
    betas = [beta_star * (1.0 + s * 2.0 ** -k) for k in (1, 3, 8, 17, 30, 40, 45)
             for s in (-1.0, 1.0)]
    betas += [beta_star, 2.0 * beta_star, 1.0 + 1e-6, 2.0, 4.0]    # beta_fixed = 1
    kinds = []
    for beta in betas:
        path = []
        kind = gs._classify_shot(params, beta, r0, r_end, path=path)
        kind_ref, ref = _scipy_shot(params, beta, r0, r_end)
        assert kind == kind_ref, beta
        assert abs(len(path) - (ref.t.size - 1)) <= 0.01 * (ref.t.size - 1), beta
        rho = np.linspace(r0, min(path[-1][1], ref.t[-1]), 4096)
        phi_ref = ref.sol(rho)[0]
        near = phi_ref > 1e-3 * beta
        assert near.any()
        assert np.max(np.abs(gs._interpolant(path)(rho) - phi_ref)[near]) <= 1e-12 * beta, beta
        kinds.append(kind)
    assert {"over", "under"} <= set(kinds)


def test_float_step_matches_scipy_step_by_step(anchor_params, anchor_grid):
    # from one start, with a first step so long that it is rejected, each step
    # lands where scipy's does, to the rounding of the error estimate
    # (measured: 1e-7 of h, 3e-8 of t)
    r0, r_end = float(0.5 * anchor_grid.nodes[0]), float(anchor_grid.r_max)
    args = (gs._shot_rhs(anchor_params), r0, gs._series_start(anchor_params, SQRT2, r0), r_end)
    options = dict(first_step=r_end - r0, **gs._shot_tolerances(SQRT2))
    ref = RK45(*args, **options)
    nfev = ref.nfev
    for _, (t, h_abs, y, attempts) in zip(range(50), _float_steps(*args, **options)):
        ref.step()
        nfev += ref.n_stages * attempts
        assert t == pytest.approx(ref.t, rel=1e-6)
        assert h_abs == pytest.approx(ref.h_abs, rel=1e-5)
        np.testing.assert_allclose(y, ref.y, rtol=1e-6)
    assert nfev == ref.nfev


def test_float_step_grows_only_after_an_accepted_step():
    # phi' jumps at rho = 1: the first step, across the jump, is rejected and
    # cut to 0.2 of its length; its error is then 0, which grows a step
    # 10-fold, but not one just rejected; the next step, exact too, grows
    def jump(rho, y):
        return (0.0 if rho < 1.0 else 1.0), 0.0

    args, options = (jump, 0.5, [1.0, 0.0], 3.0), dict(first_step=1.0, rtol=1e-10,
                                                        atol=[1e-14, 1e-14])
    ref = RK45(*args, **options)
    ours = _float_steps(*args, **options)
    for expected in ((0.7, 0.2), (0.9, 2.0)):
        ref.step()
        assert (ref.t, ref.h_abs) == pytest.approx(expected)
        assert next(ours)[:2] == pytest.approx(expected)


def test_shot_stepper_failure_is_an_error(anchor_params, anchor_grid, monkeypatch):
    # phi' = 1/(rho - pole)^2 drives the step to 10 ulp before rho reaches the
    # pole: `_rk45_step` returns None there, and a shot raises, naming the rho
    # it reached and its beta
    pole = 5.0

    def poled_rhs(params):
        def rhs(rho, y):
            return 1.0 / (rho - pole) ** 2, -1.0     # phi rises, F falls: no event
        return rhs

    r0, r_end = 0.5 * anchor_grid.nodes[0], anchor_grid.r_max
    steps = list(_float_steps(poled_rhs(anchor_params), float(r0), [1.5, 0.0], float(r_end),
                              **gs._shot_tolerances(1.5)))
    t = steps[-1][0]
    assert t < pole and pole - t < 1e-6
    monkeypatch.setattr(gs, "_shot_rhs", poled_rhs)
    with pytest.raises(StiffnessFailureError) as err:
        gs._classify_shot(anchor_params, 1.5, r0, r_end)
    where = re.search(r"at rho = (\S+) for beta = 1\.5:", str(err.value))
    assert where is not None
    assert float(where.group(1)) < pole and pole - float(where.group(1)) < 1e-6
    with pytest.raises(StiffnessFailureError):
        dl.shoot_profile(anchor_params, anchor_grid)


def test_overflowing_shot_is_a_stiffness_failure():
    # at p = 7 a shot from beta = 40 turns well inside the start radius, and
    # abs(phi) ** (p - 1) overflows a float
    params = dl.ModelParams(1, 0.0, 7.0)
    grid = point_grid(params, 16384, 0.0, 0.0, minimizer=False)
    r0, r_end = 0.5 * grid.nodes[0], grid.r_max
    with pytest.raises(StiffnessFailureError, match="overflowed"):
        gs._classify_shot(params, 40.0, r0, r_end)


@pytest.mark.parametrize("rho_phi, rho_flux, kind", [(2.0, 2.5, "over"), (2.5, 2.0, "under")])
def test_double_sign_flip_takes_the_earlier_root(anchor_params, anchor_grid, monkeypatch,
                                                 rho_phi, rho_flux, kind):
    # phi and F linear, phi reaching 0 at rho_phi and F at rho_flux: both
    # change sign on one step, and the kind follows the root of that step's
    # interpolant that comes first, as scipy's solve_ivp orders its events
    r0, r_end = 0.5 * anchor_grid.nodes[0], anchor_grid.r_max
    phi0, flux0 = gs._series_start(anchor_params, SQRT2, r0)
    assert phi0 > 0.0 > flux0

    def linear_rhs(params):
        def rhs(rho, y):
            return -phi0 / (rho_phi - r0), -flux0 / (rho_flux - r0)
        return rhs

    monkeypatch.setattr(gs, "_shot_rhs", linear_rhs)
    path = []
    assert gs._classify_shot(anchor_params, SQRT2, r0, r_end, path=path) == kind
    last = path[-1]
    assert last[0] < min(rho_phi, rho_flux) and max(rho_phi, rho_flux) < last[1]
    roots = gs._event_root(last, 0), gs._event_root(last, 1)
    assert roots == pytest.approx((rho_phi, rho_flux), rel=1e-12)
    assert _scipy_shot(anchor_params, SQRT2, r0, r_end)[0] == kind


def test_shoot_profile_logs_its_work(anchor_params, anchor_grid, caplog):
    # one INFO line on a degenls child logger: shots, accepted steps, the final
    # bracket and the stop reason
    with caplog.at_level(logging.INFO, logger="degenls"):
        dl.shoot_profile(anchor_params, anchor_grid)
    lines = [r for r in caplog.records if r.name.startswith("degenls.")]
    assert len(lines) == 1 and lines[0].levelno == logging.INFO
    match = re.search(r"(\d+) shots \((\d+) classified, 1 dense\), (\d+) accepted steps,"
                      r" final bracket (\S+) of beta, stop: (hit|bracket closed|max_bisect)$",
                      lines[0].getMessage())
    assert match is not None
    shots, classified, steps = (int(match.group(k)) for k in (1, 2, 3))
    assert shots == classified + 1 and steps > 100 * shots
    assert float(match.group(4)) < 1e-12
    with caplog.at_level(logging.INFO, logger="degenls"):
        dl.shoot_profile(anchor_params, anchor_grid, max_bisect=3)
    assert caplog.records[-1].getMessage().endswith("stop: max_bisect")


def _plain_bisection(params, grid):
    """Bisection on beta with every midpoint shot by `_classify_shot`: (beta, stop reason)."""
    r0, r_end = 0.5 * grid.nodes[0], grid.r_max

    def kind(beta):
        return gs._classify_shot(params, beta, r0, r_end)

    beta_fixed = params.omega ** (1.0 / (params.p - 1.0))
    lo, hi = beta_fixed * (1.0 + 1e-6), 2.0 * beta_fixed
    while kind(hi) != "over":
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        beta = 0.5 * (lo + hi)
        shot = kind(beta)
        if shot == "done":
            return beta, "hit"
        if shot == "over":
            hi = beta
        else:
            lo = beta
        if hi - lo < 4.0 * np.finfo(float).eps * hi:
            return beta, "bracket closed"
    return beta, "max_bisect"


@pytest.mark.parametrize("d, a, p, grid_args", [
    (1, 0.0, 3.0, (20.0, 4096, 1.0)), (2, 0.25, 3.0, (12.0, 1024, 1.5))])
def test_shoot_profile_replays_the_plain_bisection(caplog, d, a, p, grid_args):
    # the search stops as the plain bisection does: 'bracket closed' with a
    # beta within the 20 ulp over which rounding scatters the class near beta*
    # (measured over the 66 lattice configurations), 'hit' on the short d = 2
    # grid with a beta that is itself 'done' (a band about 4e-8 of beta wide);
    # the samples are those of the returned beta's shot
    params = dl.ModelParams(d, a, p, 1.0)
    grid = dl.build_grid(d, *grid_args)
    r0, r_end = 0.5 * grid.nodes[0], grid.r_max
    beta, stop = _plain_bisection(params, grid)
    with caplog.at_level(logging.INFO, logger="degenls"):
        shot = dl.shoot_profile(params, grid)
    assert caplog.records[-1].getMessage().endswith(f"stop: {stop}")
    if stop == "hit":
        assert gs._classify_shot(params, shot.phi0, r0, r_end) == "done"
    else:
        assert abs(shot.phi0 - beta) <= 20 * np.spacing(beta)
    path = []
    gs._classify_shot(params, shot.phi0, r0, r_end, path=path)
    assert np.array_equal(shot.values, gs._sample_shot(params, grid, path))


def _synthetic_classifier(monkeypatch, boundary, flips, done_width):
    """Patch `_classify_shot` with a shot of known boundary: exact classes away
    from it, a rounding-like scatter within `flips` ulp of it, 'done' within
    `done_width`, and an exit radius from the miss model at a = 0, omega = 1,
    where |beta - beta_miss| e^{rho} meets e^{-rho}.  The model is close to
    the class, not on it: its zero beta_miss lies 6 ulp below the boundary, so
    that the secant lands inside the scatter.  The recorded shot stays a real
    one, so that the profile can be sampled."""
    original = gs._classify_shot
    ulp = np.spacing(boundary)

    def classify(params, beta, r0, r_end, steps=None, path=None, exits=None):
        if path is not None:
            return original(params, beta, r0, r_end, steps, path=path, exits=exits)
        offset = round((beta - boundary) / ulp)
        if abs(beta - boundary) < done_width:
            kind = "done"
        elif abs(offset) <= flips:
            kind = "over" if offset * 40503 % 7 < 3 else "under"
        else:
            kind = "over" if beta > boundary else "under"
        if steps is not None:
            steps.append(1)
        if exits is not None:
            miss = max(abs(beta - (boundary - 6.0 * ulp)), ulp) / boundary
            exits.append(r_end if kind == "done" else min(r_end, -0.5 * np.log(miss)))
        return kind

    monkeypatch.setattr(gs, "_classify_shot", classify)


@pytest.mark.parametrize("done_width, stop", [(0.0, "bracket closed"), (1e-9, "hit")])
def test_replay_reads_no_class_that_rounding_sets(anchor_params, anchor_grid, monkeypatch,
                                                  caplog, done_width, stop):
    # within 8 ulp of the boundary the class scatters as rounding scatters it,
    # and the miss model's zero lies 6 ulp off it: the search stops as the
    # plain bisection does, 'bracket closed' inside the scatter and 'hit' on
    # a 'done' shot
    boundary = 1.4142135
    _synthetic_classifier(monkeypatch, boundary, 8, done_width * boundary)
    _, plain_stop = _plain_bisection(anchor_params, anchor_grid)
    assert plain_stop == stop
    with caplog.at_level(logging.INFO, logger="degenls"):
        beta = dl.shoot_profile(anchor_params, anchor_grid).phi0
    assert caplog.records[-1].getMessage().endswith(f"stop: {stop}")
    if stop == "bracket closed":
        assert abs(beta - boundary) <= 8 * np.spacing(boundary)
    else:
        assert abs(beta - boundary) < done_width * boundary


def test_failed_locate_shot_leaves_the_bisection(anchor_params, anchor_grid, monkeypatch):
    # the locate phase also shoots the bracket search's lower end, which the
    # bisection takes as an undershoot without a shot: a failure there ends
    # the locate phase, and the plain bisection's beta still comes back
    lower_end = 1.0 + 1e-6                  # beta_fixed = 1
    _synthetic_classifier(monkeypatch, 1.4142135, 8, 0.0)
    synthetic = gs._classify_shot

    def failing(params, beta, *args, **kwargs):
        if beta == lower_end:
            raise StiffnessFailureError(f"integrator failed for beta = {beta!r}")
        return synthetic(params, beta, *args, **kwargs)

    monkeypatch.setattr(gs, "_classify_shot", failing)
    beta, _ = _plain_bisection(anchor_params, anchor_grid)
    assert dl.shoot_profile(anchor_params, anchor_grid).phi0 == beta


def test_failed_locate_shot_falls_back_to_the_plain_bisection(anchor_params, anchor_grid,
                                                              monkeypatch, caplog):
    # a shot fails at every beta that the plain bisection does not shoot: the
    # locate search fails on its first new shot, and the fallback bisects
    # from the bracket search's bracket, midpoint by midpoint, to the plain
    # bisection's beta and stop
    original = gs._classify_shot
    plain = []

    def record(params, beta, *args, **kwargs):
        plain.append(beta)
        return original(params, beta, *args, **kwargs)

    monkeypatch.setattr(gs, "_classify_shot", record)
    beta, stop = _plain_bisection(anchor_params, anchor_grid)

    def failing(params, beta, *args, **kwargs):
        if beta not in plain:
            raise StiffnessFailureError(f"integrator failed for beta = {beta!r}")
        return original(params, beta, *args, **kwargs)

    monkeypatch.setattr(gs, "_classify_shot", failing)
    with caplog.at_level(logging.INFO, logger="degenls"):
        assert dl.shoot_profile(anchor_params, anchor_grid).phi0 == beta
    message = caplog.records[-1].getMessage()
    assert ": 0 locate shots before one failed, then bisection: " in message
    assert message.endswith(f"stop: {stop}")


def test_shoot_profile_locates_in_few_shots(anchor_params, anchor_grid, caplog):
    # the plain bisection takes 51 classified shots at the anchor; the bracket
    # search and the locate search take at most 16, the same number on every
    # run, and the INFO line gives the locate shots among them
    counts = []
    for _ in range(2):
        with caplog.at_level(logging.INFO, logger="degenls"):
            dl.shoot_profile(anchor_params, anchor_grid)
        match = re.search(r": (\d+) locate shots, (\d+) shots \((\d+) classified, 1 dense\)",
                          caplog.records[-1].getMessage())
        assert match is not None
        located, shots, classified = (int(g) for g in match.groups())
        # one bracket shot: beta = 2 overshoots
        assert classified == 1 + located and shots == classified + 1
        counts.append(classified)
    assert counts[0] == counts[1] <= 16


def test_shot_near_origin_slope_ratio(wave_cache):
    # phi'(rho)/rho^{1-2a} -> -(beta^p - omega beta)/d over the first decade
    params = dl.ModelParams(1, 0.5, 3.0, 1.0)
    grid = dl.build_grid(1, 40.0, 4096, 2.0)
    prof = dl.shoot_profile(params, grid)
    beta = prof.phi0
    target = -(beta ** 3 - beta) / 1.0
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    dphi = np.diff(prof.values) / np.diff(grid.nodes)
    sel = (mids > 1e-4) & (mids < 1e-3)
    ratio = dphi[sel] / mids[sel] ** 0.0   # 1 - 2a = 0 at a = 1/2
    assert np.all(np.abs(ratio / target - 1.0) < 0.02)


def test_reconcile_identical_is_zero(anchor_wave):
    rep = dl.reconcile(anchor_wave, anchor_wave)
    assert rep.max_abs == 0.0 and rep.agree


def test_reconcile_solvers_agree_on_anchor(anchor_wave, anchor_shot):
    rep = dl.reconcile(anchor_wave, anchor_shot)
    assert rep.agree and rep.rel_max < 1e-3


def test_reconcile_refuses_profiles_on_different_grids(anchor_wave):
    # A caller's mismatch, not a violated existence window.
    other = dl.ground_state(dl.ModelParams(1, 0.0, 3.0, 1.0), dl.build_grid(1, 20.0, 1024, 1.0))
    for profile in (other, dl.l2_scale(anchor_wave, 1.1)):
        with pytest.raises(InvalidParameterError):
            dl.reconcile(anchor_wave, profile)


def test_reconcile_cross_solver_no_closed_form():
    # d=2, a=0.5, p=2.5: mutual agreement is the only oracle
    params = dl.ModelParams(2, 0.5, 2.5, 1.0)
    grid = dl.build_grid(2, 40.0, 4096, 2.0)
    wave = dl.ground_state(params, grid)
    shot = dl.shoot_profile(params, grid)
    rep = dl.reconcile(wave, shot)
    assert rep.agree and rep.rel_max < 1e-3


def test_ground_state_at_shifted_omega():
    params = dl.ModelParams(1, 0.0, 3.0, 4.0)
    grid = dl.build_grid(1, 10.0, 4096, 1.0)
    wave = dl.ground_state(params, grid)
    exact = 2.0 * SQRT2 / np.cosh(2.0 * grid.nodes)
    assert np.max(np.abs(wave.values - exact)) < 5e-4


def test_ground_state_takes_one_defect_at_shifted_omega(monkeypatch):
    # the unit-frequency wave's defect on the stretched grid is never read:
    # only the rescaled wave's is taken, at params.omega
    calls = []

    def counted(params, grid, values):
        calls.append(params.omega)
        return el_residual(params, grid, values)

    monkeypatch.setattr(gs, "el_residual", counted)
    params = dl.ModelParams(1, 0.0, 3.0, 4.0)
    wave = dl.ground_state(params, dl.build_grid(1, 10.0, 1024, 1.0))
    assert calls == [4.0]
    assert wave.residual == el_residual(params, wave.grid, wave.values)


def _line_and_even(a, p, n):
    """Full-line and radial minimizers on the same half-line cell layout."""
    params = dl.ModelParams(1, a, p, 1.0)
    r_max = default_r_max(params, 1e-7)
    gamma = line_grading(a, n)
    line = dl.minimize_weinstein(params, dl.build_line_grid(r_max, n, gamma))
    even = dl.minimize_weinstein(params, dl.build_grid(1, r_max, n, gamma))
    return params, line, even


def test_line_minimizer_below_even_wave():
    # d = 1, 0 < a < 1/2: the even wave is a saddle of the quotient; the
    # full-line minimizer breaks the symmetry and lies strictly below it,
    # by a margin that does not move with the grid (J 2.121 against 2.266)
    gaps = []
    for n in (8192, 16384):
        _, line, even = _line_and_even(0.25, 3.0, n)
        phi = line.phi_normalized
        assert line.j_min < even.j_min
        assert np.max(np.abs(phi[:n][::-1] - phi[n:])) > 0.1 * np.max(phi)
        gaps.append(even.j_min - line.j_min)
    assert gaps[0] > 0.1
    assert gaps[1] == pytest.approx(gaps[0], rel=1e-4)


@pytest.mark.parametrize("a", [0.5, 0.75])
def test_one_sided_wave_where_origin_decouples(a):
    # a >= 1/2: nothing crosses the origin, so the minimizer is the radial
    # wave on one branch and zero on the other, and its quotient is lower
    # by J_one / J_even = 2^{-(1 - 2/(p+1))}
    for p in (2.0, 2.5):
        params, line, even = _line_and_even(a, p, 8192)
        ratio = 2.0 ** -(1.0 - 2.0 / (p + 1.0))
        assert line.j_min / even.j_min == pytest.approx(ratio, rel=1e-6)
        wave, radial = line.profile(params), even.profile(params)
        assert np.all(wave.values[line.grid.branch(-1)] == 0.0)
        supported = wave.values[line.grid.branch(+1)]
        assert np.max(np.abs(supported - radial.values)) < 1e-10 * np.max(radial.values)


@pytest.mark.parametrize("a, p", [(0.5, 3.0), (0.75, 2.5)])
def test_decoupled_line_is_minimized_on_its_half_grid(a, p):
    # the line's minimizer is the half grid's radial one: the same work, the
    # same wave on x > 0 and 0 on x < 0; J reads the line's measure 1 against
    # the half line's 2, so J_line = J_half 2^{2/(p+1) - 1}
    params = dl.ModelParams(1, a, p, 1.0)
    line = sweep_grid(params, n=4096)
    on_line = dl.minimize_weinstein(params, line)
    on_half = dl.minimize_weinstein(params, line.half)
    assert on_line.iterations == on_half.iterations
    assert on_line.newton_steps == on_half.newton_steps
    wave, radial = on_line.profile(params).values, on_half.profile(params).values
    assert np.all(wave[line.branch(-1)] == 0.0)
    assert np.max(np.abs(wave[line.branch(+1)] - radial)) <= 1e-14 * np.max(radial)
    ratio = 2.0 ** (2.0 / (p + 1.0) - 1.0)
    assert on_line.j_min == pytest.approx(on_half.j_min * ratio, rel=1e-13)


def test_line_wave_satisfies_identities():
    # the identities are those of any H^{1,a}(R) critical point, even or not
    params = dl.ModelParams(1, 0.25, 3.0, 1.0)
    wave = dl.ground_state(params, sweep_grid(params, n=8192))
    assert isinstance(wave.grid, dl.LineGrid)
    ids = dl.evaluate_identities(params, wave)
    assert ids.pohozaev_1 < 1e-6 and ids.pohozaev_2 < 1e-6
    assert wave.residual < 1e-6
    assert np.all(wave.values > 0.0)


def test_line_ground_state_at_shifted_omega():
    # the exact frequency rescaling maps the full line onto itself
    params = dl.ModelParams(1, 0.25, 3.0, 2.0)
    grid = sweep_grid(params, n=4096)
    wave = dl.ground_state(params, grid)
    assert wave.grid.n == grid.n and np.allclose(wave.grid.nodes, grid.nodes, rtol=1e-14)
    assert el_residual(params, wave.grid, wave.values) < 1e-6


def test_radial_solvers_refuse_line_grids():
    params = dl.ModelParams(1, 0.25, 3.0, 1.0)
    grid = sweep_grid(params, n=1024)
    with pytest.raises(InvalidParameterError):
        dl.shoot_profile(params, grid)


def test_report_counts_flow_iterations_and_newton_steps(anchor_report):
    # `iterations` is all the work: the flow's iterations plus the Newton steps
    assert anchor_report.newton_steps >= 1 and not anchor_report.fallback
    assert anchor_report.iterations > anchor_report.newton_steps


def test_ground_state_returns_where_the_flow_stalled():
    # (2, .25, 3) at n = 131072: the flow alone stalls above tol = 1e-8 at its
    # rounding floor; the Newton polish gets under tol and the wave passes the gate
    params = dl.ModelParams(2, 0.25, 3.0, 1.0)
    wave = dl.ground_state(params, sweep_grid(params, n=131072))
    ids = dl.evaluate_identities(params, wave)
    assert max(ids.pohozaev_1, ids.pohozaev_2) < 1e-6


def test_polish_stall_names_the_floor(anchor_params, anchor_grid):
    # tol = 1e-300 is below any floor: the polish stops there and says so
    with pytest.raises(NonConvergenceError) as err:
        dl.minimize_weinstein(anchor_params, anchor_grid, tol=1e-300)
    floor = re.search(r"normwise backward error (\S+)$", str(err.value))
    assert floor is not None and 0.0 < float(floor.group(1)) < gs.FLOOR_BACKWARD_ERROR
    assert err.value.residual > 0 and err.value.iterations > 0


@pytest.mark.parametrize("a, p", [(0.0, 3.0), (0.25, 3.0), (0.75, 2.0)])
def test_polished_wave_matches_the_flow_on_the_target_grid(monkeypatch, anchor_grid, a, p):
    # the sech anchor (its coarse stage on 256 cells), the coupled line and the
    # decoupled line, whose wave lives on its x > 0 branch
    params = dl.ModelParams(1, a, p, 1.0)
    if a == 0.0:
        monkeypatch.setattr(gs, "COARSE_MIN_CELLS", anchor_grid.n // gs.COARSEN)
        grid = anchor_grid
    else:
        grid = sweep_grid(params, n=gs.COARSEN * gs.COARSE_MIN_CELLS)
    rep = dl.minimize_weinstein(params, grid)
    assert not rep.fallback
    _, op, seed = gs._flow_problem(grid, a)
    flow, _ = gs._weinstein_flow(params, op, seed, 1e-8)
    values = rep.profile(params).values
    polished = values[grid.branch(+1)] if a >= 0.5 else values
    assert np.max(np.abs(polished - flow)) <= 1e-7 * np.max(flow)


def test_guard_rejects_the_even_saddle_on_the_line():
    # the radial (even) wave mirrored onto the line is a saddle of the quotient
    # there, with a second negative L+ direction: the odd one that breaks symmetry
    params = dl.ModelParams(1, 0.25, 3.0, 1.0)
    line = sweep_grid(params, n=4096)
    even = dl.minimize_weinstein(params, line.half).profile(params).values
    mirrored = np.concatenate((even[::-1], even))
    plus = dl.assemble_linearized(params, dl.Profile(line, mirrored, 1.0), 0, +1)
    assert dl.morse_index(plus, 0.0) == 2
    _, op, _ = gs._flow_problem(line, params.a)
    assert not gs._is_minimizer(params, op, mirrored)
    assert gs._is_minimizer(params, op, dl.ground_state(params, line).values)


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_forced_fallback_returns_the_minimizer(monkeypatch, anchor_grid, a):
    # a guard that refuses every polish: the flow runs on the target grid from the
    # interpolant of a coarse stage on 256 cells (a side) and returns the
    # minimizer the flow alone finds
    params = dl.ModelParams(1, a, 3.0, 1.0)
    grid = anchor_grid if a == 0.0 else sweep_grid(params, n=anchor_grid.n)
    _, op, seed = gs._flow_problem(grid, a)
    flow, _ = gs._weinstein_flow(params, op, seed, 1e-8)
    monkeypatch.setattr(gs, "COARSE_MIN_CELLS", anchor_grid.n // gs.COARSEN)
    monkeypatch.setattr(gs, "_is_minimizer", lambda *args: False)
    rep = dl.minimize_weinstein(params, grid)
    assert rep.fallback
    j_flow = dl.functionals.weinstein_of(dl.assemble_operator(grid, params.a), flow,
                                         params.p)[0]
    assert rep.j_min == pytest.approx(j_flow, rel=1e-10)


@pytest.mark.parametrize("members", [[(1, 0.75), (2, 0.5), (3, 0.25)], [(1, 0.5), (2, 0.0)]],
                         ids=["D=4", "D=2"])
def test_equal_dimension_waves_agree_in_s(members):
    # phi_{d,a}(rho) = Q_D(s), s = rho^{1-a}/(1-a), D = d/(1-a): on default
    # radial grids the members of one D share their edges in s, and the
    # mapped waves differ by O(h^2) (measured ratios 3.6 at D = 4, 4.00 at D = 2).
    gaps = []
    for n in (2048, 4096, 8192):
        mapped = []
        for d, a in members:
            params = dl.ModelParams(d, a, 2.0, 1.0)
            wave = dl.ground_state(params, point_grid(params, n, 0.0, 0.0, minimizer=False))
            grid = wave.grid
            mapped.append((grid.edges ** (1.0 - a) / (1.0 - a),
                           grid.nodes ** (1.0 - a) / (1.0 - a), wave.values))
        edges, nodes, values = mapped[0]
        gap = 0.0
        for other_edges, other_nodes, other_values in mapped[1:]:
            assert np.max(np.abs(other_edges - edges)) < 1e-13
            gap = max(gap, np.max(np.abs(np.interp(nodes, other_nodes, other_values) - values)))
        gaps.append(gap / np.max(values))
    assert all(coarse > 3.0 * fine for coarse, fine in zip(gaps, gaps[1:])), gaps
