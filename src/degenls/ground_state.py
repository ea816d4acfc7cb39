"""Solitary-wave profiles two independent ways: variational minimization and shooting."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import functionals
from .discretization import (LineGrid, Profile, RadialGrid, SectorOperator, assemble_operator,
                             build_grid, build_line_grid, weighted_norm)
from .exceptions import (BracketInvalidError, InvalidParameterError, InvalidWindowError,
                         NonConvergenceError, StiffnessFailureError)
from .model import ModelParams, exists_window, omega_rescale, require_dimension
from .spectral import morse_index

log = logging.getLogger(__name__)


def __getattr__(name: str):
    """scipy's `solve_ivp`, imported on first lookup; the benchmark's tracer binds it by name."""
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
                       residual=el_residual(params.with_omega(1.0), self.grid, values))


def el_residual(params: ModelParams, grid: RadialGrid | LineGrid, values: np.ndarray) -> float:
    """Full-space weighted norm of A0 u + omega u - |u|^{p-1} u."""
    return _defect_norm(assemble_operator(grid, params.a), values, params.omega,
                        np.abs(values) ** (params.p - 1.0) * values)


def _defect(op: SectorOperator, u: np.ndarray, omega: float, nonlinear: np.ndarray) -> np.ndarray:
    """The Euler-Lagrange defect A0 u + omega u - nonlinear."""
    return op.apply(u) + omega * u - nonlinear


def _defect_norm(op: SectorOperator, u: np.ndarray, omega: float, nonlinear: np.ndarray) -> float:
    """sqrt(measure) |_defect|_w: the defect's full-space norm."""
    return np.sqrt(op.grid.measure) * weighted_norm(op.grid, _defect(op, u, omega, nonlinear))


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
    then run on the half grid's radial operator, that branch's own.
    """
    if not 0.0 < tol < np.inf:
        raise InvalidParameterError(f"tol = {tol} must be positive and finite")
    require_dimension(params, grid)
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

    The latter is the radial operator of the half grid (the x > 0 branch's)
    once a line decouples, else the whole grid, whose seed is off centre on a line.
    """
    full = assemble_operator(grid, a, sector=0)
    if full.decoupled:
        return full, assemble_operator(grid.half, a), np.exp(-grid.half.nodes ** 2)
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
    lam = functionals.lp_power_of(op.grid, v, p + 1.0)
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
    # lam and u_p = u^p belong to the current iterate u; each is computed once
    # per accepted step and reused by the next one.
    u, j_curr, lam = _unit(op, seed, p)
    u_p = u ** p
    tau = FLOW_TAU
    solve = op.factor(tau, 1.0 + tau)              # I + tau (A0 + I)
    accepted = 0
    best = checked = np.inf                        # best defect so far, and at the last check

    for iteration in itertools.count(1):
        kappa = 1.0 / lam                          # unit H-norm Lagrange multiplier
        rhs = u + tau * kappa * u_p
        v, j_new, lam_new = _unit(op, solve(rhs), p)
        if j_new > j_curr * (1.0 + 1e-15):
            tau = 0.5 * tau
            solve = op.factor(tau, 1.0 + tau)
        else:
            dj = abs(j_curr - j_new)
            u, j_curr, lam = v, j_new, lam_new
            u_p = u ** p
            accepted += 1
            if accepted % 20 == 0 and tau < 10.0:
                tau = 1.5 * tau
                solve = op.factor(tau, 1.0 + tau)
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
    f = _defect(op, phi, 1.0, np.abs(phi) ** (p - 1.0) * phi)
    res, solves = weighted_norm(op.grid, f), 0
    while True:
        delta = op.factor(shift=1.0 - p * np.abs(phi) ** (p - 1.0))(f)
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
    """The report of the wave phi, given on full's grid or, decoupled, on its half grid (x > 0).

    j_min, lam and kappa are `functionals.weinstein_of(full, phi_normalized,
    p)`, full being the sector-0 operator of the report's grid, so that call
    returns j_min exactly; the residual is phi's defect over its H^{1,a} norm.
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
    """Right-hand side of the flux system for (phi, F = rho^{d-1+2a} phi'), on floats."""
    d, a, p, omega = params.d, float(params.a), float(params.p), float(params.omega)
    m = d - 1 + 2.0 * a

    def rhs(rho, y):
        phi, flux = y
        return flux / rho ** m, -rho ** (d - 1) * (abs(phi) ** (p - 1.0) * phi - omega * phi)
    return rhs


# The Dormand-Prince tableau of scipy's RK45, as its source writes it (the same
# fractions, so the same doubles; a test pins them to RK45's): C's nodes, A's
# lower triangle, B's weights, E's error weights and P, the weights of the
# quartic dense output in each step's stages.  B[1] and E[1] are zero, and
# `_rk45_step` leaves out their terms, which is exact for finite stages.
_C1, _C2, _C3, _C4, _C5 = 1/5, 3/10, 4/5, 8/9, 1.0
_A10 = 1/5
_A20, _A21 = 3/40, 9/40
_A30, _A31, _A32 = 44/45, -56/15, 32/9
_A40, _A41, _A42, _A43 = 19372/6561, -25360/2187, 64448/6561, -212/729
_A50, _A51, _A52, _A53, _A54 = 9017/3168, -355/33, 46732/5247, 49/176, -5103/18656
_B0, _B1, _B2, _B3, _B4, _B5 = 35/384, 0.0, 500/1113, 125/192, -2187/6784, 11/84
_E0, _E1, _E2, _E3, _E4, _E5, _E6 = (-71/57600, 0.0, 71/16695, -71/1920, 17253/339200,
                                     -22/525, 1/40)
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_ERROR_EXPONENT = -1.0 / 5      # RK45's -1 / (error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rk45_step(rhs, t, y0, y1, f0, f1, h_abs, t_bound, rtol, atol):
    """One accepted step of scipy's RK45 for a two-component system, on Python floats.

    The step control is RK45's for a solver that steps toward larger t with
    no maximum step and one atol for both components: h_abs raised to 10
    ulp of t, the RMS error norm, safety 0.9, factor bounds 0.2 and 10,
    `_ERROR_EXPONENT`, no growth right after a rejection, and a step that
    falls below 10 ulp of t fails.  Each stage sum runs over the tableau's
    nonzero entries in RK45's left-to-right order.  rhs(t, (y0, y1)) returns
    two floats and (f0, f1) is its value at (t, y).  Returns (t_new, y0, y1,
    h_abs, k0, k1, attempts): the new point, the next step size, the seven
    stages of each component (the last is the right-hand side at the new
    point) and the tries it took; None when the step failed.
    """
    min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    rejected = False
    attempts = 0
    while True:
        if h_abs < min_step:
            return None
        attempts += 1
        t_new = t + h_abs
        if t_new > t_bound:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)
        # u, v: the stages of the first and second component
        u1, v1 = rhs(t + _C1 * h, (y0 + f0 * _A10 * h, y1 + f1 * _A10 * h))
        u2, v2 = rhs(t + _C2 * h, (y0 + (f0 * _A20 + u1 * _A21) * h,
                                   y1 + (f1 * _A20 + v1 * _A21) * h))
        u3, v3 = rhs(t + _C3 * h, (y0 + (f0 * _A30 + u1 * _A31 + u2 * _A32) * h,
                                   y1 + (f1 * _A30 + v1 * _A31 + v2 * _A32) * h))
        u4, v4 = rhs(t + _C4 * h,
                     (y0 + (f0 * _A40 + u1 * _A41 + u2 * _A42 + u3 * _A43) * h,
                      y1 + (f1 * _A40 + v1 * _A41 + v2 * _A42 + v3 * _A43) * h))
        u5, v5 = rhs(t + _C5 * h,
                     (y0 + (f0 * _A50 + u1 * _A51 + u2 * _A52 + u3 * _A53 + u4 * _A54) * h,
                      y1 + (f1 * _A50 + v1 * _A51 + v2 * _A52 + v3 * _A53 + v4 * _A54) * h))
        n0 = y0 + (f0 * _B0 + u2 * _B2 + u3 * _B3 + u4 * _B4 + u5 * _B5) * h
        n1 = y1 + (f1 * _B0 + v2 * _B2 + v3 * _B3 + v4 * _B4 + v5 * _B5) * h
        u6, v6 = rhs(t + h, (n0, n1))
        x0 = ((f0 * _E0 + u2 * _E2 + u3 * _E3 + u4 * _E4 + u5 * _E5 + u6 * _E6) * h
              / (atol + max(abs(y0), abs(n0)) * rtol))
        x1 = ((f1 * _E0 + v2 * _E2 + v3 * _E3 + v4 * _E4 + v5 * _E5 + v6 * _E6) * h
              / (atol + max(abs(y1), abs(n1)) * rtol))
        error_norm = math.sqrt(x0 * x0 + x1 * x1) / math.sqrt(2.0)
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            if rejected:
                factor = min(1.0, factor)
            return (t_new, n0, n1, h_abs * factor, (f0, u1, u2, u3, u4, u5, u6),
                    (f1, v1, v2, v3, v4, v5, v6), attempts)
        h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        rejected = True


def _shot_tolerances(beta: float) -> dict:
    """The RK45 tolerances of every shot at central value beta, classified or recorded."""
    return {"rtol": 1e-10, "atol": [1e-14 * beta, 1e-14 * beta]}


def _end_kind(phi_end: float, beta: float) -> str:
    """Kind of a shot that reached r_end without an event: 'done' once phi is tiny there."""
    return "done" if phi_end < 1e-6 * beta else "under"


def _interpolant(path: list[tuple], component: int = 0):
    """RK45's dense output of one component along recorded steps, as a function of rho.

    On the step (t, t_new, phi, F, k0, k1) it is y + h x (q0 + x (q1 + x (q2 +
    x q3))), with h = t_new - t, x = (rho - t) / h, y the component's value at
    t and q its stages times `_P`.  A point takes the step it lies in, the
    earlier one at a step's end, as scipy's OdeSolution does.
    """
    t, t_new, phi, flux, k0, k1 = (np.array(column) for column in zip(*path))
    h = t_new - t
    y = (phi, flux)[component]
    q = (k0, k1)[component] @ _P

    def value(rho):
        i = np.clip(np.searchsorted(t, rho) - 1, 0, t.size - 1)
        x = (rho - t[i]) / h[i]
        c = q[i].T
        return y[i] + h[i] * x * (c[0] + x * (c[1] + x * (c[2] + x * c[3])))
    return value


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float,
            maxiter: int) -> tuple[float, bool]:
    """A root of f between xa and xb by Brent's method, as scipy's `brentq`.

    A transcription of scipy 1.17's C brentq (Brent 1973): the same tests
    and arithmetic in the same order, so the same points are evaluated and
    the same root is returned.  Returns the root and whether the bracket
    closed to xtol + rtol |root| (or f hit 0) within maxiter steps; ends whose
    values share a sign, or a NaN from f, raise ValueError.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return fx

    xpre, xcur, xtol, rtol = float(xa), float(xb), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre, True
    if fcur == 0:
        return xcur, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:     # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:                # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:    # C's inf or nan, which the test below refuses
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    return xcur, False


def _event_root(step: tuple, component: int) -> float:
    """The root of one component of a recorded step's interpolant, as solve_ivp finds events."""
    eps = np.finfo(float).eps
    root, converged = _brentq(_interpolant([step], component), step[0], step[1],
                              4.0 * eps, 4.0 * eps, 100)
    if not converged:
        raise RuntimeError(f"event root search failed to converge on [{step[0]}, {step[1]}]")
    return root


def _initial_step(rhs, t0: float, y0: float, y1: float, t_bound: float,
                  rtol: float, atol: float) -> tuple[float, float, float]:
    """f = rhs(t0, y) and the first step of scipy's RK45 from it, on floats.

    The empirical choice of Hairer, Norsett and Wanner (sec. II.4) as scipy
    1.17's `select_initial_step` makes it for an error estimator of order
    4, a solver that steps toward larger t with no maximum step and one atol
    for both components, with its RMS norms.  Returns (f0, f1, h_abs).
    """
    f0, f1 = rhs(t0, (y0, y1))
    interval_length = abs(t_bound - t0)
    scale0, scale1 = atol + abs(y0) * rtol, atol + abs(y1) * rtol

    def norm(x0, x1):     # scipy's RMS norm: its BLAS dot can round x0^2 + x1^2 otherwise
        return float(np.linalg.norm((x0, x1))) / 2 ** 0.5

    d0 = norm(y0 / scale0, y1 / scale1)
    d1 = norm(f0 / scale0, f1 / scale1)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    g0, g1 = rhs(t0 + h0, (y0 + h0 * f0, y1 + h0 * f1))
    d2 = norm((g0 - f0) / scale0, (g1 - f1) / scale1) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return f0, f1, min(100 * h0, h1, interval_length)


def _classify_shot(params: ModelParams, beta: float, r0: float, r_end: float,
                   steps: list[int] | None = None, path: list[tuple] | None = None,
                   exits: list[float] | None = None) -> str:
    """Integrate the flux system outward from central value beta and classify the shot.

    `_initial_step` gives f and scipy's first step for the `_shot_tolerances`;
    every step is then `_rk45_step` on floats.
    Each step applies the sign tests of the two terminal events: phi falling
    to <= 0 from >= 0 is 'over', F rising to >= 0 from <= 0 is 'under'; a
    shot that reaches r_end with neither is classified by `_end_kind`.  A step
    on which both flip takes the event whose root on the step's interpolant
    comes first.  The shot's accepted steps are appended to `steps` when
    given, the radius at which it ended (the end of its last step) to
    `exits`, and each accepted step's (t, t_new, phi, F, k0, k1) to `path`:
    its ends, its start values and the seven stages of each component.  A
    step that overflows, or falls below 10 ulp of rho, raises
    StiffnessFailureError.
    """
    rhs = _shot_rhs(params)
    t, t_bound = float(r0), float(r_end)
    tolerances = _shot_tolerances(beta)
    rtol, atol = tolerances["rtol"], tolerances["atol"][0]     # one atol for both components
    phi, flux = (float(v) for v in _series_start(params, beta, r0))
    try:
        f0, f1, h_abs = _initial_step(rhs, t, phi, flux, t_bound, rtol, atol)
    except OverflowError as exc:
        raise StiffnessFailureError(
            f"integrator overflowed at rho = {t!r} for beta = {beta!r}") from exc
    for taken in itertools.count(1):
        try:
            step = _rk45_step(rhs, t, phi, flux, f0, f1, h_abs, t_bound, rtol, atol)
        except OverflowError as exc:
            raise StiffnessFailureError(
                f"integrator overflowed past rho = {t!r} for beta = {beta!r}") from exc
        if step is None:
            raise StiffnessFailureError(
                f"integrator failed at rho = {t!r} for beta = {beta!r}: its step fell below"
                " 10 ulp of rho")
        t_new, phi_new, flux_new, h_abs, k0, k1, _ = step
        recorded = (t, t_new, phi, flux, k0, k1)
        if path is not None:
            path.append(recorded)
        over = phi >= 0.0 and phi_new <= 0.0
        under = flux <= 0.0 and flux_new >= 0.0
        if over and under:
            over = _event_root(recorded, 0) <= _event_root(recorded, 1)
        if over or under:
            kind = "over" if over else "under"
            break
        if t_new >= t_bound:
            kind = _end_kind(phi_new, beta)
            break
        t, phi, flux, f0, f1 = t_new, phi_new, flux_new, k0[6], k1[6]
    if steps is not None:
        steps.append(taken)
    if exits is not None:
        exits.append(t_new)
    return kind


def shoot_profile(params: ModelParams, grid: RadialGrid, max_bisect: int = 200) -> Profile:
    """Profile by a root search on the central value beta = phi(0).

    Integrates (phi, F = rho^{d-1+2a} phi') outward from a two-term origin
    series; overshoot = phi crosses zero, undershoot = F turns positive.  A
    shot that reaches r_max without either is 'done' when phi < 1e-6 beta
    there and an undershoot otherwise (`_end_kind`).  Every shot is
    `_classify_shot`: RK45 stepped on floats, memoized by beta.

    The bracket's upper end doubles from 2 omega^{1/(p-1)}, twice the
    constant solution, until a shot overshoots (BracketInvalidError after 64
    doublings).  From the bracket, `_brentq` runs on the signed miss of each
    shot, +exp(-2 Lambda) for an overshoot, -exp(-2 Lambda) for an
    undershoot and 0 for 'done', with Lambda = sqrt(omega) rho^{1-a}/(1-a)
    at the radius where the shot ended.  A shot off beta* by delta leaves the
    decaying branch where delta e^{Lambda} meets e^{-Lambda}, so the miss is
    close to linear in beta - beta* and the secant converges fast.  Within a
    few ulp of beta* rounding sets a shot's class, so the root lies as close
    to beta* as the classes can tell.  A locate shot that fails leaves the
    search: the plain bisection then runs from the bracket, midpoint by
    midpoint, so it fails only where a bisection midpoint's shot fails.
    Either search stops at a 'done' shot ('hit'), when its bracket closes to
    4 eps of beta ('bracket closed'), or after max_bisect steps
    ('max_bisect'); Brent returns its root, the bisection its last midpoint.

    Bracket and search shots are only classified; the returned beta is shot
    once more with its steps recorded, and the returned samples follow RK45's
    dense output on those steps down to the graft point, the lowest positive
    sample of that output, and continue with the stretched-exponential tail
    exp(-sqrt(omega) rho^{1-a}/(1-a)) beyond.  The ODE is radial, so the grid
    must be too.  max_bisect must be a whole number at least 1.  One INFO
    line on this module's logger gives the locate shots (and whether the
    bisection took over), all shots, their accepted steps, the final bracket
    (the highest undershoot to the lowest overshoot shot) relative to beta
    and the stop reason.
    """
    if isinstance(grid, LineGrid):
        raise InvalidParameterError("shooting integrates the radial ODE; pass a radial grid")
    require_dimension(params, grid)
    if not (max_bisect >= 1 and float(max_bisect).is_integer()):
        raise InvalidParameterError(f"max_bisect = {max_bisect} must be a whole number >= 1")
    max_bisect = int(max_bisect)
    if not exists_window(params):
        raise InvalidWindowError(f"no solitary waves exist at {params}")
    omega, p = params.omega, params.p
    beta_fixed = omega ** (1.0 / (p - 1.0))
    r0 = 0.5 * grid.nodes[0]
    r_end = grid.r_max

    steps: list[int] = []                # accepted steps of each classified shot
    shots: dict[float, tuple[str, float]] = {}     # beta: (kind, exit radius)

    def shoot(beta: float) -> str:
        if beta not in shots:
            exits: list[float] = []
            kind = _classify_shot(params, beta, r0, r_end, steps, exits=exits)
            shots[beta] = kind, exits[0]
        return shots[beta][0]

    lo = beta_fixed * (1.0 + 1e-6)
    hi = 2.0 * beta_fixed
    for _ in range(64):
        if shoot(hi) == "over":
            break
        lo = hi
        hi *= 2.0
    else:
        raise BracketInvalidError("could not find an overshooting upper endpoint")

    bracket_shots = len(steps)
    rate = 2.0 * math.sqrt(omega) / (1.0 - params.a)

    def miss(beta: float) -> float:
        kind = shoot(beta)
        if kind == "done":
            return 0.0
        size = math.exp(-rate * shots[beta][1] ** (1.0 - params.a))
        return size if kind == "over" else -size

    eps = np.finfo(float).eps
    try:
        beta, converged = _brentq(miss, lo, hi, np.finfo(float).tiny, 4.0 * eps, max_bisect)
        how = f"{len(steps) - bracket_shots} locate shots, "
    except StiffnessFailureError:
        how = f"{len(steps) - bracket_shots} locate shots before one failed, then bisection: "
        converged = False
        for _ in range(max_bisect):
            beta = 0.5 * (lo + hi)
            kind = shoot(beta)
            if kind == "done":
                break
            if kind == "over":
                hi = beta
            else:
                lo = beta
            if hi - lo < 4.0 * eps * hi:
                converged = True
                break
    stop = "hit" if shots[beta][0] == "done" else "bracket closed" if converged else "max_bisect"
    lo = max((b for b, (k, _) in shots.items() if k == "under"), default=lo)
    hi = min((b for b, (k, _) in shots.items() if k == "over"), default=hi)

    path: list[tuple] = []
    _classify_shot(params, beta, r0, r_end, path=path)
    log.info("shooting at %s: %s%d shots (%d classified, 1 dense), %d accepted steps,"
             " final bracket %.1e of beta, stop: %s", params, how, len(steps) + 1,
             len(steps), sum(steps) + len(path), abs(hi - lo) / beta, stop)
    values = _sample_shot(params, grid, path)
    return Profile(grid=grid, values=values, omega=omega,
                   residual=el_residual(params, grid, values), phi0=beta)


def _sample_shot(params: ModelParams, grid: RadialGrid, path: list[tuple]) -> np.ndarray:
    """Sample a recorded shot at the nodes: its dense output, then the tail graft."""
    a, omega = params.a, params.omega
    phi = _interpolant(path)
    # Graft where the trajectory last sits at its minimum positive level.
    t_fine = np.linspace(path[0][0], path[-1][1], 4096)
    phi_fine = phi(t_fine)
    positive = phi_fine > 0
    idx = np.argmin(np.where(positive, phi_fine, np.inf))
    rho_graft = t_fine[idx]
    phi_graft = phi_fine[idx]

    nodes = grid.nodes
    values = np.empty(grid.n)
    dense = nodes <= rho_graft
    tail = ~dense
    if dense.any():
        values[dense] = phi(nodes[dense])
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
