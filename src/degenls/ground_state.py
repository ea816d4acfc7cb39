"""Solitary-wave profiles two independent ways: variational minimization and shooting."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded

from . import functionals
from .discretization import (LineGrid, Profile, RadialGrid, SectorOperator, assemble_operator,
                             build_grid, build_line_grid, weighted_norm)
from .exceptions import (BracketInvalidError, InvalidParameterError, InvalidWindowError,
                         NonConvergenceError, StiffnessFailureError)
from .model import ModelParams, exists_window, omega_rescale
from .spectral import morse_index


@dataclass
class MinimizerReport:
    """Outcome of the constrained Weinstein minimization (unit-frequency normalization)."""

    phi_normalized: np.ndarray   # minimizer with unit H^{1,a} norm
    j_min: float
    lam: float                   # integral of phi_normalized^{p+1}
    kappa: float                 # Lagrange multiplier, 1/lam at unit norm
    iterations: int              # all the work: flow iterations plus Newton steps
    residual: float              # the Euler-Lagrange defect of phi over |phi|_{H^{1,a}}
    grid: RadialGrid | LineGrid
    newton_steps: int            # tridiagonal solves of the Newton polish
    fallback: bool               # the polish failed or its guard did; the flow ran on grid

    def profile(self, params: ModelParams) -> Profile:
        """Unit-frequency wave phi = kappa^{1/(p-1)} * minimizer, with its own defect."""
        values = self.kappa ** (1.0 / (params.p - 1.0)) * self.phi_normalized
        return Profile(grid=self.grid, values=values, omega=1.0,
                       residual=el_residual(params, self.grid, values))


def el_residual(params: ModelParams, grid: RadialGrid | LineGrid, values: np.ndarray) -> float:
    """Full-space weighted norm of A0 u + omega u - |u|^{p-1} u."""
    return _defect_norm(assemble_operator(grid, params.a), values, params.omega,
                        np.abs(values) ** (params.p - 1.0) * values)


def _defect(op: SectorOperator, u: np.ndarray, omega: float, nonlinear: np.ndarray) -> np.ndarray:
    """The Euler-Lagrange defect A0 u + omega u - nonlinear."""
    return op.apply(u) + omega * u - nonlinear


def _defect_norm(op: SectorOperator, u: np.ndarray, omega: float, nonlinear: np.ndarray) -> float:
    """sqrt(measure) |_defect|_w: the defect's full-space norm."""
    return np.sqrt(op.measure) * weighted_norm(op.grid, _defect(op, u, omega, nonlinear))


def weinstein_gradient(params: ModelParams, grid: RadialGrid | LineGrid,
                       u: np.ndarray) -> np.ndarray:
    """Frechet derivative of the Weinstein quotient wrt the full-space L2 pairing.

    dJ[u;h] = <grad, h> with <f,g> = |S^{d-1}| sum_i w_i f_i g_i.
    """
    p = params.p
    op = assemble_operator(grid, params.a, sector=0)
    norm_sq = functionals.h_norm_sq(op, u)
    lam = functionals.lp_power_of(grid, u, p + 1.0)
    den = lam ** (2.0 / (p + 1.0))
    return (2.0 / den) * _defect(op, u, 1.0, (norm_sq / lam) * np.abs(u) ** (p - 1.0) * u)


# Centre of the seed of the full-line flow.  An even seed stays even under the
# flow, which then converges to the even saddle; an off-centre one breaks the
# symmetry the way the minimizer does.
LINE_SEED_SHIFT = 0.5
FLOW_TAU = 0.1              # the flow's first step; it is halved and grown as the flow goes
STALL_WINDOW = 200          # iterations in which the flow's best defect must halve
COARSEN = 16                # the coarse stage has 1/COARSEN of the target's cells (a side)
COARSE_MIN_CELLS = 1024     # fewer coarse cells than this: the coarse stage is the target grid
COARSE_TOL = 1e-6           # the defect at which the flow hands its wave to Newton
NEWTON_MIN_STEP = 0.125     # the shortest damped Newton step tried
# Backward error below which a stalled polish has met the rounding floor: measured
# floors are 1e-20 to 2e-17, polishes that failed to converge stop at 1e-7 and above.
FLOOR_BACKWARD_ERROR = 64.0 * np.finfo(float).eps
RECONCILE_REL_TOL = 1e-3    # relative disagreement at which `reconcile` reports a mismatch


def minimize_weinstein(params: ModelParams, grid: RadialGrid | LineGrid,
                       tol: float = 1e-8) -> MinimizerReport:
    """Minimize J[u] = |u|_{H^{1,a}}^2 / |u|_{p+1}^2 by nested iteration: a flow, then Newton.

    1. The normalized flow (`_weinstein_flow`) runs to the defect COARSE_TOL
       on grid's layout (r_max, gamma) with 1/COARSEN of its cells, or on grid
       itself where that leaves fewer than COARSE_MIN_CELLS.
    2. Its wave is interpolated onto grid's nodes.
    3. Damped Newton on F(phi) = A0 phi + phi - |phi|^{p-1} phi polishes it,
       one tridiagonal solve with A0 + 1 - p |phi|^{p-1} a step, until the
       residual stops halving (`_newton`).
    4. A guard (`_is_minimizer`) checks that the polished wave is the
       minimizer, not another critical point: positive, and exactly one
       eigenvalue of L+ = A0 + 1 - p phi^{p-1} at or below 0.

    `residual` is the polished wave's defect over its H^{1,a} norm.  At or
    below tol the wave is returned.  Above it, the polish has either met the
    rounding floor, where its normwise backward error |F| / (|A| |phi| +
    |phi^p|) is of the order of eps (below FLOOR_BACKWARD_ERROR), and then
    tol is out of reach on this grid: NonConvergenceError, with that floor in
    its message; or it failed to converge, from a coarse wave that did not
    resolve the fine one.  That, or a failed guard, runs the flow on grid
    from the interpolant (`fallback`).  `iterations` counts the flow's
    iterations and the Newton steps; j_min, lam and kappa are those of
    phi_normalized.

    On a radial grid the minimum is over radial functions.  On a `LineGrid`
    it is over all of H^{1,a}(R): the flow starts off centre.  Once a >= 1/2
    the two branches decouple, and a function spread over both has a larger
    quotient than the better of its two branches alone, so the minimizer
    lives on one branch (x > 0 here) and vanishes on the other; both stages
    then run on that branch only.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidParameterError(f"tol = {tol} must be positive and finite")
    if not exists_window(params):
        raise InvalidWindowError(f"no solitary waves exist at {params}")
    full, op, seed = _flow_problem(grid, params.a)
    cells = (grid.half if isinstance(grid, LineGrid) else grid).n // COARSEN
    if cells < COARSE_MIN_CELLS:
        start, flow_iterations = _weinstein_flow(params, op, seed, COARSE_TOL)
    else:
        _, coarse, coarse_seed = _flow_problem(_coarse(grid, cells), params.a)
        wave, flow_iterations = _weinstein_flow(params, coarse, coarse_seed, COARSE_TOL)
        start = np.interp(op.grid.nodes, coarse.grid.nodes, wave)
    phi, defect, steps = _newton(params, op, start)
    report = _report(params, full, phi, flow_iterations + steps, steps, fallback=False)
    floor = _backward_error(params, op, phi, defect)
    polished = report.residual <= tol or floor <= FLOOR_BACKWARD_ERROR
    if not (polished and _is_minimizer(params, op, phi)):
        phi, more = _weinstein_flow(params, op, start, tol)
        return _report(params, full, phi, report.iterations + more, steps, fallback=True)
    if report.residual > tol:
        raise NonConvergenceError(
            f"Newton polish stopped at defect {report.residual:.3e} > tol={tol:g} after"
            f" {report.iterations} iterations ({flow_iterations} flow, {steps} Newton): the"
            f" rounding floor, normwise backward error {floor:.1e}",
            residual=report.residual, iterations=report.iterations)
    return report


def _flow_problem(grid: RadialGrid | LineGrid,
                  a: float) -> tuple[SectorOperator, SectorOperator, np.ndarray]:
    """grid's sector-0 operator, the operator the minimizer runs on, and the flow's seed there.

    The latter is the x > 0 branch once a line decouples, else the whole
    grid, whose seed is off centre on a line.
    """
    full = assemble_operator(grid, a, sector=0)
    branches = full.branches()
    if branches is not None:
        return full, branches[1], np.exp(-grid.half.nodes ** 2)
    centre = LINE_SEED_SHIFT if isinstance(grid, LineGrid) else 0.0
    return full, full, np.exp(-(grid.nodes - centre) ** 2)


def _coarse(grid: RadialGrid | LineGrid, cells: int) -> RadialGrid | LineGrid:
    """grid's layout (r_max, gamma) with `cells` cells (a side, on a line)."""
    if isinstance(grid, LineGrid):
        return build_line_grid(grid.r_max, cells, grid.gamma)
    return build_grid(grid.d, grid.r_max, cells, grid.gamma)


def _unit(op: SectorOperator, v: np.ndarray, p: float) -> tuple[np.ndarray, float, float]:
    """v at unit H^{1,a} norm, its quotient J and lam = integral |v|^{p+1}.

    J is scale-invariant, so at unit norm it is lam^{-2/(p+1)}; the norm is taken once.
    """
    v = v / np.sqrt(functionals.h_norm_sq(op, v))
    lam = op.measure * float(np.sum(op.grid.volumes * np.abs(v) ** (p + 1.0)))
    return v, lam ** (-2.0 / (p + 1.0)), lam


def _weinstein_flow(params: ModelParams, op: SectorOperator, seed: np.ndarray,
                    tol: float) -> tuple[np.ndarray, int]:
    """The normalized flow for the operator op from seed: its unit-frequency wave and iterations.

    Each step solves (I + tau (A0 + I)) v = u + tau kappa_u u^p and renormalizes
    to unit H^{1,a} norm.  tau starts at FLOW_TAU and grows by 1.5 every 20
    accepted steps while below 10.  A step that would raise J by more than a
    relative 1e-15 is retried with tau halved, so no accepted step does.  The
    implicit linear part damps the stiff weighted-Laplacian modes
    unconditionally, and the M-matrix structure of the solve keeps iterates
    positive.  Stops when the relative J change falls below 1e-12 and the
    Euler-Lagrange defect below tol, positive and finite (both required).
    Every STALL_WINDOW iterations, retried steps included, the best defect so
    far must fall below half its value at the previous check; if not, it has
    stalled (at the grid's rounding floor, say): NonConvergenceError.
    """
    p = params.p
    n = op.grid.n
    sqw = np.sqrt(op.grid.volumes)
    diag, off = op.sym_tridiagonal()
    diag_lin = diag + 1.0                          # A0 + I

    def factorize(step):
        ab = np.zeros((2, n))
        ab[0, 1:] = step * off
        ab[1, :] = 1.0 + step * diag_lin
        return cholesky_banded(ab)

    # lam and u_p = u^p belong to the current iterate u; each is computed once
    # per accepted step and reused by the next one.
    u, j_curr, lam = _unit(op, seed, p)
    u_p = u ** p
    tau = FLOW_TAU
    chol = factorize(tau)
    accepted = 0
    best = checked = np.inf                        # best defect so far, and at the last check

    for iteration in itertools.count(1):
        kappa = 1.0 / lam                          # unit H-norm Lagrange multiplier
        rhs = u + tau * kappa * u_p
        v, j_new, lam_new = _unit(
            op, cho_solve_banded((chol, False), sqw * rhs, check_finite=False) / sqw, p)
        if j_new > j_curr * (1.0 + 1e-15):
            tau = 0.5 * tau
            chol = factorize(tau)
        else:
            dj = abs(j_curr - j_new)
            u, j_curr, lam = v, j_new, lam_new
            u_p = u ** p
            accepted += 1
            if accepted % 20 == 0 and tau < 10.0:
                tau = 1.5 * tau
                chol = factorize(tau)
            res = _defect_norm(op, u, 1.0, (1.0 / lam) * u_p)
            if res < tol and dj <= 1e-12 * abs(j_curr):
                return (1.0 / lam) ** (1.0 / (p - 1.0)) * u, iteration
            best = min(best, res)
        if iteration % STALL_WINDOW == 0:
            if not best < 0.5 * checked:
                raise NonConvergenceError(
                    f"Weinstein flow stalled at defect {best:.3e} > tol={tol:g} after {iteration}"
                    " iterations", residual=best, iterations=iteration)
            checked = best


def _newton(params: ModelParams, op: SectorOperator,
            phi: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Damped Newton on F(phi) = A0 phi + phi - |phi|^{p-1} phi from phi, until |F| stalls.

    Each step solves J delta = F once, J = A0 + 1 - p |phi|^{p-1}, and takes
    the longest of phi - delta, phi - delta/2, ... (down to NEWTON_MIN_STEP)
    that multiplies |F|_w by less than 1 - step/2: a full step must halve it.
    Stops when none does, so the last iterate is the best.  Returns it, its
    |F|_w and the number of solves; the Jacobian is freed on return.
    """
    p = params.p
    jac = op.banded(shift=1.0)
    diag = jac[1].copy()
    f = _defect(op, phi, 1.0, np.abs(phi) ** (p - 1.0) * phi)
    res, solves = weighted_norm(op.grid, f), 0
    while True:
        jac[1] = diag - p * np.abs(phi) ** (p - 1.0)
        delta = solve_banded((1, 1), jac, f, check_finite=False)
        solves += 1
        step = 1.0
        while True:
            trial = phi - step * delta
            f_trial = _defect(op, trial, 1.0, np.abs(trial) ** (p - 1.0) * trial)
            res_trial = weighted_norm(op.grid, f_trial)
            if res_trial < (1.0 - 0.5 * step) * res:
                break
            step *= 0.5
            if step < NEWTON_MIN_STEP:
                return phi, res, solves
        phi, f, res = trial, f_trial, res_trial


def _backward_error(params: ModelParams, op: SectorOperator, phi: np.ndarray,
                    defect: float) -> float:
    """|F| / (|A| |phi| + |phi^p|), the normwise backward error of phi's defect |F|_w.

    |A| is 2 max diag(A0) + 1, Gershgorin's bound on A0 + 1.
    """
    norm_a = 2.0 * float(np.max(op.diag)) + 1.0
    return defect / (norm_a * weighted_norm(op.grid, phi)
                     + weighted_norm(op.grid, np.abs(phi) ** params.p))


def _is_minimizer(params: ModelParams, op: SectorOperator, phi: np.ndarray) -> bool:
    """Whether phi passes for the minimizer, not another critical point of the quotient.

    The minimizer is positive, and its L+ = A0 + 1 - p phi^{p-1} has exactly
    one eigenvalue at or below 0 (a Sturm count); the even saddle on the line,
    say, has two.
    """
    if not np.all(phi > 0.0):
        return False
    potential = 1.0 - params.p * phi ** (params.p - 1.0)
    return morse_index(replace(op, diag=op.diag + potential, potential=potential), 0.0) == 1


def _report(params: ModelParams, full: SectorOperator, phi: np.ndarray, iterations: int,
            newton_steps: int, fallback: bool) -> MinimizerReport:
    """The report of the wave phi, given on full's grid or, decoupled, on its x > 0 branch.

    j_min, lam and kappa are `functionals.weinstein_of` of phi_normalized, so
    `weinstein_quotient` returns j_min exactly; the residual is phi's defect
    over its H^{1,a} norm.
    """
    grid = full.grid
    if phi.size != grid.n:
        phi, branch = np.zeros(grid.n), phi
        phi[grid.branch(+1)] = branch
    norm = np.sqrt(functionals.h_norm_sq(full, phi))
    u = phi / norm
    j_min, lam = functionals.weinstein_of(full, u, params.p)
    residual = _defect_norm(full, phi, 1.0, np.abs(phi) ** (params.p - 1.0) * phi) / norm
    return MinimizerReport(phi_normalized=u, j_min=j_min, lam=lam, kappa=1.0 / lam,
                           iterations=iterations, residual=residual, grid=grid,
                           newton_steps=newton_steps, fallback=fallback)


def ground_state(params: ModelParams, grid: RadialGrid | LineGrid,
                 tol: float = 1e-8) -> Profile:
    """Converged wave at params.omega on the given grid via minimization + rescaling."""
    return minimize_and_rescale(params, grid, tol)[1]


def minimize_and_rescale(params: ModelParams, grid: RadialGrid | LineGrid,
                         tol: float = 1e-8) -> tuple[MinimizerReport, Profile]:
    """The minimization behind `ground_state`, and the wave at params.omega it gives on grid.

    The minimization runs at the unit-frequency normalization on the grid
    stretched by omega^{1/(2(1-a))}, so the exact frequency rescaling lands
    back on `grid` without interpolation.
    """
    if params.omega == 1.0:
        report = minimize_weinstein(params, grid, tol=tol)
        return report, report.profile(params)
    stretch = params.omega ** (1.0 / (2.0 * (1.0 - params.a)))
    report = minimize_weinstein(params, grid.with_r_max(grid.r_max * stretch), tol=tol)
    wave = omega_rescale(report.profile(params), params)
    wave.residual = el_residual(params, wave.grid, wave.values)
    return report, wave


def _series_start(params: ModelParams, beta: float, rho: float) -> tuple[float, float]:
    """Two-term origin expansion of (phi, F = rho^{d-1+2a} phi') at small rho."""
    d, a, p, omega = params.d, params.a, params.p, params.omega
    g0 = beta ** p - omega * beta
    c1 = -g0 / (d * (2.0 - 2.0 * a))
    g1 = p * beta ** (p - 1.0) - omega
    c2 = -g1 * c1 / ((d + 2.0 - 2.0 * a) * (4.0 - 4.0 * a))
    phi = beta + c1 * rho ** (2.0 - 2.0 * a) + c2 * rho ** (4.0 - 4.0 * a)
    flux = -g0 * rho ** d / d - g1 * c1 * rho ** (d + 2.0 - 2.0 * a) / (d + 2.0 - 2.0 * a)
    return phi, flux


def _shot_rhs(params: ModelParams):
    """Right-hand side of the flux system for (phi, F = rho^{d-1+2a} phi')."""
    d, a, p, omega = params.d, params.a, params.p, params.omega
    m = d - 1 + 2.0 * a

    def rhs(rho, y):
        phi, flux = y
        return [flux / rho ** m, -rho ** (d - 1) * (np.abs(phi) ** (p - 1.0) * phi - omega * phi)]
    return rhs


def _shot_tolerances(beta: float) -> dict:
    """The RK45 tolerances of every shot at central value beta, stepped or dense."""
    return {"rtol": 1e-10, "atol": [1e-14 * beta, 1e-14 * beta]}


def _integrate_shot(params: ModelParams, beta: float, r0: float, r_end: float):
    """Integrate the flux system outward; returns (classification, solution).

    classification: 'over' (phi crossed zero), 'under' (flux turned positive,
    i.e. phi started growing again), 'done' (reached r_end with phi tiny).
    """
    def ev_cross(rho, y):
        return y[0]
    ev_cross.terminal = True
    ev_cross.direction = -1.0

    def ev_turn(rho, y):
        return y[1]
    ev_turn.terminal = True
    ev_turn.direction = 1.0

    y0 = _series_start(params, beta, r0)
    sol = solve_ivp(_shot_rhs(params), (r0, r_end), y0, method="RK45", dense_output=True,
                    events=[ev_cross, ev_turn], **_shot_tolerances(beta))
    if sol.status == -1:
        raise StiffnessFailureError(f"integrator failed near the origin: {sol.message}")
    if sol.t_events[0].size:
        return "over", sol
    if sol.t_events[1].size:
        return "under", sol
    return _end_kind(sol.y[0, -1], beta), sol


def _end_kind(phi_end: float, beta: float) -> str:
    """Kind of a shot that reached r_end without an event: 'done' once phi is tiny there."""
    return "done" if phi_end < 1e-6 * beta else "under"


def _classify_shot(params: ModelParams, beta: float, r0: float, r_end: float) -> str:
    """The classification of `_integrate_shot`, from its steps alone.

    Drives RK45 with the start, `_shot_tolerances` and float end points that
    solve_ivp gives it there, so the accepted steps are the same, and applies
    the sign tests of the two terminal events on each: phi falling to <= 0
    from >= 0 is 'over', F rising to >= 0 from <= 0 is 'under'.  No event
    roots, dense output or stored steps are made.  Only the root times can
    order two events on one step, so such a beta goes through
    `_integrate_shot`.  A shot costs 2/3 of solve_ivp's (dense or not), with the same class.
    """
    y0 = _series_start(params, beta, r0)
    solver = RK45(_shot_rhs(params), float(r0), y0, float(r_end), **_shot_tolerances(beta))
    phi, flux = y0
    while True:
        message = solver.step()
        if solver.status == "failed":
            raise StiffnessFailureError(f"integrator failed near the origin: {message}")
        phi_new, flux_new = solver.y
        over = phi >= 0.0 and phi_new <= 0.0
        under = flux <= 0.0 and flux_new >= 0.0
        if over and under:
            return _integrate_shot(params, beta, r0, r_end)[0]
        if over:
            return "over"
        if under:
            return "under"
        if solver.status == "finished":
            return _end_kind(phi_new, beta)
        phi, flux = phi_new, flux_new


def shoot_profile(params: ModelParams, grid: RadialGrid,
                  beta_bracket: tuple[float, float] | None = None,
                  max_bisect: int = 200) -> Profile:
    """Profile by bisection on the central value beta = phi(0).

    Integrates (phi, F = rho^{d-1+2a} phi') outward from a two-term origin
    series; overshoot = phi crosses zero, undershoot = F turns positive.  A
    shot that reaches r_max without either is 'done' when phi < 1e-6 beta
    there and an undershoot otherwise (`_end_kind`); bisection stops at the
    first 'done' shot, when the bracket closes to rounding, or after
    max_bisect shots.  The returned samples follow the integrated trajectory
    down to the graft point, the lowest positive sample of its dense output,
    and continue with the stretched-exponential tail
    exp(-sqrt(omega) rho^{1-a}/(1-a)) beyond.  The ODE is radial, so the grid
    must be too.  Bracket and bisection shots are only classified; the chosen
    beta is integrated once more with dense output and sampled.
    """
    if isinstance(grid, LineGrid):
        raise InvalidParameterError("shooting integrates the radial ODE; pass a radial grid")
    if max_bisect < 1:
        raise InvalidParameterError(f"max_bisect = {max_bisect} must be at least 1")
    if not exists_window(params):
        raise InvalidWindowError(f"no solitary waves exist at {params}")
    omega, p = params.omega, params.p
    beta_fixed = omega ** (1.0 / (p - 1.0))
    r0 = 0.5 * grid.nodes[0]
    r_end = grid.r_max

    if beta_bracket is None:
        lo = beta_fixed * (1.0 + 1e-6)
        hi = 2.0 * beta_fixed
        for _ in range(64):
            if _classify_shot(params, hi, r0, r_end) == "over":
                break
            lo = hi
            hi *= 2.0
        else:
            raise BracketInvalidError("could not find an overshooting upper endpoint")
    else:
        lo, hi = beta_bracket
        if lo <= beta_fixed:
            raise BracketInvalidError(
                f"beta_lo = {lo} does not exceed the constant-solution value {beta_fixed}"
                " (phi^p(0) - omega phi(0) must be positive)")
        kind_lo = _classify_shot(params, lo, r0, r_end)
        kind_hi = _classify_shot(params, hi, r0, r_end)
        if kind_lo == kind_hi and not (kind_lo == "done" or kind_hi == "done"):
            raise BracketInvalidError(f"both endpoints classify as '{kind_lo}'")
        if kind_lo == "over" or kind_hi == "under":
            lo, hi = hi, lo

    for _ in range(max_bisect):
        beta = 0.5 * (lo + hi)
        kind = _classify_shot(params, beta, r0, r_end)
        if kind == "done":
            break
        if kind == "over":
            hi = beta
        else:
            lo = beta
        if hi - lo < 4.0 * np.finfo(float).eps * hi:
            break

    final, sol = _integrate_shot(params, beta, r0, r_end)
    if final != kind:
        raise StiffnessFailureError(
            f"beta = {beta!r} classifies as '{kind}' by its steps but as '{final}' by its"
            " dense integration")
    values = _sample_shot(params, grid, sol)
    return Profile(grid=grid, values=values, omega=omega,
                   residual=el_residual(params, grid, values), phi0=beta)


def _sample_shot(params: ModelParams, grid: RadialGrid, sol) -> np.ndarray:
    """Sample the trajectory at the nodes: dense output / tail graft."""
    a, omega = params.a, params.omega
    # Graft where the trajectory last sits at its minimum positive level.
    t_fine = np.linspace(sol.t[0], sol.t[-1], 4096)
    phi_fine = sol.sol(t_fine)[0]
    positive = phi_fine > 0
    idx = np.argmin(np.where(positive, phi_fine, np.inf))
    rho_graft = t_fine[idx]
    phi_graft = phi_fine[idx]

    nodes = grid.nodes
    values = np.empty(grid.n)
    dense = nodes <= rho_graft
    tail = ~dense
    if dense.any():
        values[dense] = sol.sol(nodes[dense])[0]
    rate = np.sqrt(omega) / (1.0 - a)
    values[tail] = phi_graft * np.exp(-rate * (nodes[tail] ** (1.0 - a) - rho_graft ** (1.0 - a)))
    return values


@dataclass(frozen=True)
class ReconcileReport:
    """Discrepancy between two profiles computed for the same parameters and grid."""

    max_abs: float
    rel_max: float
    rel_weighted: float
    agree: bool


def reconcile(profile_a: Profile, profile_b: Profile) -> ReconcileReport:
    """Cross-validate two solver outputs; flags relative disagreement above RECONCILE_REL_TOL."""
    if profile_a.grid.nodes.shape != profile_b.grid.nodes.shape or \
            not np.allclose(profile_a.grid.nodes, profile_b.grid.nodes):
        raise InvalidParameterError("profiles must share a grid to be reconciled")
    diff = profile_a.values - profile_b.values
    max_abs = float(np.max(np.abs(diff)))
    scale = float(np.max(np.abs(profile_a.values)))
    rel_max = max_abs / scale
    rel_weighted = weighted_norm(profile_a.grid, diff) / weighted_norm(
        profile_a.grid, profile_a.values)
    return ReconcileReport(max_abs=max_abs, rel_max=rel_max,
                           rel_weighted=rel_weighted,
                           agree=bool(rel_max < RECONCILE_REL_TOL
                                      and rel_weighted < RECONCILE_REL_TOL))
