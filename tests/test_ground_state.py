import importlib
import re

import numpy as np
import pytest

import degenls as dl
from degenls.exceptions import (BracketInvalidError, InvalidParameterError, InvalidWindowError,
                                NonConvergenceError, StiffnessFailureError)
from degenls.ground_state import el_residual, weinstein_gradient
from degenls.presets import default_r_max, line_grading, sweep_grid
from tests.conftest import SQRT2, sech_values

# The module, not the `ground_state` function the package exports under its name.
gs = importlib.import_module("degenls.ground_state")


def test_minimizer_matches_sech_oracle(anchor_wave, anchor_grid):
    exact = sech_values(anchor_grid.nodes)
    assert np.max(np.abs(anchor_wave.values - exact)) < 1e-4
    assert anchor_wave.is_positive()
    assert anchor_wave.is_monotone_decreasing()


def test_minimizer_report_consistency(anchor_report, anchor_params):
    rep = anchor_report
    # J[Phi] equals the reported minimum by construction of the quotient
    j = dl.functionals.weinstein_quotient(anchor_params, rep.grid, rep.phi_normalized)
    assert j == pytest.approx(rep.j_min, rel=1e-12)
    assert rep.kappa > 0
    assert rep.kappa == pytest.approx(1.0 / rep.lam, rel=1e-12)
    # kappa-rescaled wave reproduces the quartic integral 16/3 (full line)
    assert rep.kappa == pytest.approx(16.0 / 3.0, rel=1e-3)
    # and J_min = lam^{-2/(p+1)} at unit norm
    assert rep.j_min == pytest.approx(rep.lam ** (-0.5), rel=1e-10)


@pytest.mark.parametrize("a", [0.0, 0.25])
def test_quotient_is_the_minimizers_own(a):
    # weinstein_quotient evaluates J with the flow's own operator form, so the
    # reported minimum comes back exactly, on a radial grid (a = 0) and on the
    # full line (a = 0.25)
    params = dl.ModelParams(1, a, 3.0, 1.0)
    grid = sweep_grid(params, n=8192)
    assert isinstance(grid, dl.LineGrid) == (a > 0.0)
    rep = dl.minimize_weinstein(params, grid)
    assert dl.functionals.weinstein_quotient(params, rep.grid, rep.phi_normalized) == rep.j_min


def test_minimizer_is_local_minimum(anchor_report, anchor_params):
    rng = np.random.default_rng(11)
    rep = anchor_report
    j0 = rep.j_min
    grid = rep.grid
    for _ in range(50):
        h = rng.standard_normal(grid.n)
        h /= dl.weighted_norm(grid, h)
        u = rep.phi_normalized + 1e-3 * h
        assert dl.functionals.weinstein_quotient(anchor_params, grid, u) >= j0 - 1e-12


def test_el_residual_below_tolerance(anchor_wave, anchor_params):
    res = el_residual(anchor_params, anchor_wave.grid, anchor_wave.values)
    assert res < 1e-7
    assert anchor_wave.residual == pytest.approx(res, rel=1e-6)


def test_gradient_matches_finite_differences(anchor_report, anchor_params):
    rng = np.random.default_rng(5)
    grid = anchor_report.grid
    u = anchor_report.phi_normalized + 0.05 * np.exp(-grid.nodes ** 2)  # off the minimum
    grad = weinstein_gradient(anchor_params, grid, u)
    sa = dl.sphere_area(grid.d)

    def j(v):
        return dl.functionals.weinstein_quotient(anchor_params, grid, v)

    for _ in range(20):
        h = rng.standard_normal(grid.n) * np.exp(-0.5 * grid.nodes)
        nh = dl.weighted_norm(grid, h)
        eps = 1e-7 / nh
        fd = (j(u + eps * h) - j(u - eps * h)) / (2.0 * eps)
        an = sa * dl.weighted_inner(grid, grad, h)
        scale = sa * dl.weighted_norm(grid, grad) * nh
        assert abs(an - fd) < 1e-6 * scale


def test_kappa_rescale_consistency(anchor_report, anchor_params):
    # phi = kappa^{1/(p-1)} Phi satisfies the unit-frequency profile equation
    rep = anchor_report
    phi = rep.kappa ** 0.5 * rep.phi_normalized
    res = el_residual(anchor_params.with_omega(1.0), rep.grid, phi)
    assert res < 1e-7


def test_minimizer_rejects_closed_window():
    grid = dl.build_grid(3, 20.0, 256, 1.0)
    with pytest.raises(InvalidWindowError):
        dl.minimize_weinstein(dl.ModelParams(3, 0.5, 5.0), grid)


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
    assert anchor_shot.is_positive() and anchor_shot.is_monotone_decreasing()


def test_shoot_profile_matches_oracle(anchor_shot, anchor_grid):
    exact = sech_values(anchor_grid.nodes)
    assert np.max(np.abs(anchor_shot.values - exact)) < 1e-4


def test_shoot_degenerate_bracket_rejected(anchor_params, anchor_grid):
    # beta = omega^{1/(p-1)} is the constant solution of the flux system
    with pytest.raises(BracketInvalidError):
        dl.shoot_profile(anchor_params, anchor_grid, beta_bracket=(1.0, 2.0))


def test_shoot_bracket_same_classification_rejected(anchor_params, anchor_grid):
    with pytest.raises(BracketInvalidError):
        dl.shoot_profile(anchor_params, anchor_grid, beta_bracket=(1.01, 1.02))


@pytest.mark.parametrize("max_bisect", [0, -1])
def test_shoot_rejects_max_bisect_below_one(anchor_params, anchor_grid, max_bisect):
    with pytest.raises(InvalidParameterError):
        dl.shoot_profile(anchor_params, anchor_grid, max_bisect=max_bisect)


@pytest.mark.parametrize("d, a, p, r_max, n", [(1, 0.0, 3.0, 20.0, 4096),
                                               (2, 0.25, 3.0, 12.0, 1024)])
def test_shot_classifier_matches_event_integration(d, a, p, r_max, n):
    # stepping RK45 and testing signs gives the verdict of solve_ivp's
    # terminal events, near beta* (where 'done' and close calls live), far
    # from it, below the constant solution and at the bracket search's ends
    params = dl.ModelParams(d, a, p, 1.0)
    grid = dl.build_grid(d, r_max, n, 1.0 if a == 0 else 1.5)
    r0, r_end = 0.5 * grid.nodes[0], grid.r_max
    beta_star = dl.shoot_profile(params, grid).phi0
    betas = [beta_star * (1.0 + s * 2.0 ** -k) for k in (1, 3, 8, 17, 30, 40, 45)
             for s in (-1.0, 1.0)]
    betas += [1.0 + 1e-6, 2.0, 4.0]       # beta_fixed = 1 at omega = 1
    kinds = []
    for beta in betas:
        kind = gs._classify_shot(params, beta, r0, r_end)
        assert kind == gs._integrate_shot(params, beta, r0, r_end)[0], beta
        kinds.append(kind)
    assert {"over", "under"} <= set(kinds)


def test_shoot_profile_integrates_densely_once(anchor_params, anchor_grid, monkeypatch):
    # the bracket and bisection shots are only classified: one solve_ivp
    # call, with dense output, for the chosen beta
    calls = []
    original = gs.solve_ivp

    def spy(*args, **kwargs):
        sol = original(*args, **kwargs)
        calls.append((kwargs, sol))
        return sol

    monkeypatch.setattr(gs, "solve_ivp", spy)
    shot = dl.shoot_profile(anchor_params, anchor_grid)
    assert len(calls) == 1
    kwargs, sol = calls[0]
    assert kwargs["dense_output"] is True
    # the one vectorized sample equals the per-node scalar evaluation
    t_fine = np.linspace(sol.t[0], sol.t[-1], 4096)
    phi_fine = sol.sol(t_fine)[0]
    rho_graft = t_fine[np.argmin(np.where(phi_fine > 0, phi_fine, np.inf))]
    nodes = anchor_grid.nodes
    dense = nodes <= rho_graft
    assert dense.sum() > anchor_grid.n // 2
    scalar = np.array([sol.sol(rho)[0] for rho in nodes[dense]])
    scale = np.max(np.abs(shot.values))
    assert np.max(np.abs(shot.values[dense] - scalar)) <= 1e-15 * scale


def test_shoot_refuses_dense_shot_that_classifies_otherwise(anchor_params, anchor_grid,
                                                            monkeypatch):
    # a stepper verdict that the dense integration does not reproduce is an
    # integrator failure, never a silently sampled other trajectory
    monkeypatch.setattr(gs, "_classify_shot", lambda *args, **kwargs: "done")
    with pytest.raises(StiffnessFailureError):
        dl.shoot_profile(anchor_params, anchor_grid, beta_bracket=(1.2, 1.8))


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


def test_line_wave_satisfies_identities():
    # the identities are those of any H^{1,a}(R) critical point, even or not
    params = dl.ModelParams(1, 0.25, 3.0, 1.0)
    wave = dl.ground_state(params, sweep_grid(params, n=8192))
    assert isinstance(wave.grid, dl.LineGrid)
    ids = dl.evaluate_identities(params, wave)
    assert ids.pohozaev_1 < 1e-6 and ids.pohozaev_2 < 1e-6
    assert wave.residual < 1e-6
    assert wave.is_positive()


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
    j_flow = dl.functionals.weinstein_quotient(params, grid, flow)
    assert rep.j_min == pytest.approx(j_flow, rel=1e-10)
