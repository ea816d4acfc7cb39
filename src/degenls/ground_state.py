"""Solitary-wave profiles two independent ways: variational minimization and shooting."""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import RK45
from scipy.integrate import solve_ivp  # unused; bound here because perfbench traces it by name
from scipy.linalg import cho_solve_banded, cholesky_banded, solve_banded
from scipy.optimize import brentq

from . import functionals
from .discretization import (LineGrid, Profile, RadialGrid, SectorOperator, assemble_operator,
                             build_grid, build_line_grid, weighted_norm)
from .exceptions import (BracketInvalidError, InvalidParameterError, InvalidWindowError,
                         NonConvergenceError, StiffnessFailureError)
from .model import ModelParams, exists_window, omega_rescale
from .spectral import morse_index

log = logging.getLogger(__name__)


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
    """Right-hand side of the flux system for (phi, F = rho^{d-1+2a} phi'), on floats."""
    d, a, p, omega = params.d, float(params.a), float(params.p), float(params.omega)
    m = d - 1 + 2.0 * a

    def rhs(rho, y):
        phi, flux = y
        return flux / rho ** m, -rho ** (d - 1) * (abs(phi) ** (p - 1.0) * phi - omega * phi)
    return rhs


# The Dormand-Prince tableau of scipy's RK45, read once: C's nodes, A's lower
# triangle, B's weights, E's error weights and P, the weights of the quartic
# dense output in each step's stages.  B[1] and E[1] are zero, and
# `_rk45_step` leaves out their terms, which is exact for finite stages.
_C1, _C2, _C3, _C4, _C5 = RK45.C[1:].tolist()
((_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43),
 (_A50, _A51, _A52, _A53, _A54)) = (row[:s] for s, row in enumerate(RK45.A.tolist()) if s)
_B0, _B1, _B2, _B3, _B4, _B5 = RK45.B.tolist()
_E0, _E1, _E2, _E3, _E4, _E5, _E6 = RK45.E.tolist()
_P = np.array(RK45.P)
_ERROR_EXPONENT = -1.0 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def _rk45_step(rhs, t, y0, y1, f0, f1, h_abs, t_bound, direction, max_step,
               rtol, atol0, atol1):
    """One accepted step of scipy's RK45 for a two-component system, on Python floats.

    The step control is RK45's: h_abs clipped to [10 ulp of t, max_step],
    the RMS error norm, safety 0.9, factor bounds 0.2 and 10,
    `_ERROR_EXPONENT`, no growth right after a rejection, and a step that
    falls below 10 ulp of t fails.  Each stage sum runs over the tableau's
    nonzero entries in RK45's left-to-right order.  rhs(t, (y0, y1)) returns
    two floats and (f0, f1) is its value at (t, y).  Returns (t_new, y0, y1,
    h_abs, k0, k1, attempts): the new point, the next step size, the seven
    stages of each component (the last is the right-hand side at the new
    point) and the tries it took; None when the step failed.
    """
    min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
    if h_abs > max_step:
        h_abs = max_step
    elif h_abs < min_step:
        h_abs = min_step
    rejected = False
    attempts = 0
    while True:
        if h_abs < min_step:
            return None
        attempts += 1
        t_new = t + h_abs * direction
        if direction * (t_new - t_bound) > 0:
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
              / (atol0 + max(abs(y0), abs(n0)) * rtol))
        x1 = ((f1 * _E0 + v2 * _E2 + v3 * _E3 + v4 * _E4 + v5 * _E5 + v6 * _E6) * h
              / (atol1 + max(abs(y1), abs(n1)) * rtol))
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


def _event_root(step: tuple, component: int) -> float:
    """The root of one component of a recorded step's interpolant, as solve_ivp finds events."""
    eps = np.finfo(float).eps
    return brentq(_interpolant([step], component), step[0], step[1], xtol=4.0 * eps,
                  rtol=4.0 * eps)


def _classify_shot(params: ModelParams, beta: float, r0: float, r_end: float,
                   steps: list[int] | None = None, path: list[tuple] | None = None) -> str:
    """Integrate the flux system outward from central value beta and classify the shot.

    One plain RK45 with the `_shot_tolerances` and float end points gives
    scipy's initial step and f; every step is then `_rk45_step` on floats.
    Each step applies the sign tests of the two terminal events: phi falling
    to <= 0 from >= 0 is 'over', F rising to >= 0 from <= 0 is 'under'; a
    shot that reaches r_end with neither is classified by `_end_kind`.  A step
    on which both flip takes the event whose root on the step's interpolant
    comes first.  The shot's accepted steps are appended to `steps` when
    given, and each accepted step's (t, t_new, phi, F, k0, k1) to `path`:
    its ends, its start values and the seven stages of each component.
    """
    rhs = _shot_rhs(params)
    solver = RK45(rhs, float(r0), _series_start(params, beta, r0), float(r_end),
                  **_shot_tolerances(beta))
    t, t_bound, max_step = solver.t, solver.t_bound, solver.max_step
    direction, rtol = float(solver.direction), float(solver.rtol)
    atol0, atol1 = np.broadcast_to(solver.atol, 2).tolist()
    phi, flux = solver.y.tolist()
    f0, f1 = solver.f.tolist()
    h_abs = float(solver.h_abs)
    for taken in itertools.count(1):
        step = _rk45_step(rhs, t, phi, flux, f0, f1, h_abs, t_bound, direction, max_step,
                          rtol, atol0, atol1)
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
        if direction * (t_new - t_bound) >= 0:
            kind = _end_kind(phi_new, beta)
            break
        t, phi, flux, f0, f1 = t_new, phi_new, flux_new, k0[6], k1[6]
    if steps is not None:
        steps.append(taken)
    return kind


def shoot_profile(params: ModelParams, grid: RadialGrid,
                  beta_bracket: tuple[float, float] | None = None,
                  max_bisect: int = 200) -> Profile:
    """Profile by bisection on the central value beta = phi(0).

    Integrates (phi, F = rho^{d-1+2a} phi') outward from a two-term origin
    series; overshoot = phi crosses zero, undershoot = F turns positive.  A
    shot that reaches r_max without either is 'done' when phi < 1e-6 beta
    there and an undershoot otherwise (`_end_kind`); bisection stops at the
    first 'done' shot, when the bracket closes to rounding, or after
    max_bisect shots.  Every shot is `_classify_shot`: RK45 stepped on
    floats.  Bracket and bisection shots are only classified; the chosen beta
    is shot once more with its steps recorded, and the returned samples
    follow RK45's dense output on those steps down to the graft point, the
    lowest positive sample of that output, and continue with the
    stretched-exponential tail exp(-sqrt(omega) rho^{1-a}/(1-a)) beyond.  The
    ODE is radial, so the grid must be too.  A given beta_bracket, in either
    order, needs finite ends above the constant solution omega^{1/(p-1)}; it
    is checked before any shot.  One INFO line on this module's logger gives
    the shots, their accepted steps, the final bracket width relative to beta
    and the stop reason: 'hit' (a 'done' shot), 'bracket closed' or
    'max_bisect'.
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

    steps: list[int] = []                # accepted steps of each classified shot
    if beta_bracket is None:
        lo = beta_fixed * (1.0 + 1e-6)
        hi = 2.0 * beta_fixed
        for _ in range(64):
            if _classify_shot(params, hi, r0, r_end, steps) == "over":
                break
            lo = hi
            hi *= 2.0
        else:
            raise BracketInvalidError("could not find an overshooting upper endpoint")
    else:
        lo, hi = beta_bracket
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BracketInvalidError(f"beta_bracket = {beta_bracket} has a non-finite end")
        if min(lo, hi) <= beta_fixed:
            raise BracketInvalidError(
                f"beta_bracket = {beta_bracket} has an end at or below the constant-solution"
                f" value {beta_fixed} (phi^p(0) - omega phi(0) must be positive)")
        kind_lo = _classify_shot(params, lo, r0, r_end, steps)
        kind_hi = _classify_shot(params, hi, r0, r_end, steps)
        if kind_lo == kind_hi and not (kind_lo == "done" or kind_hi == "done"):
            raise BracketInvalidError(f"both endpoints classify as '{kind_lo}'")
        if kind_lo == "over" or kind_hi == "under":
            lo, hi = hi, lo

    stop = "max_bisect"
    for _ in range(max_bisect):
        beta = 0.5 * (lo + hi)
        kind = _classify_shot(params, beta, r0, r_end, steps)
        if kind == "done":
            stop = "hit"
            break
        if kind == "over":
            hi = beta
        else:
            lo = beta
        if hi - lo < 4.0 * np.finfo(float).eps * hi:
            stop = "bracket closed"
            break

    path: list[tuple] = []
    _classify_shot(params, beta, r0, r_end, path=path)
    log.info("shooting at %s: %d shots (%d classified, 1 dense), %d accepted steps,"
             " final bracket %.1e of beta, stop: %s", params, len(steps) + 1, len(steps),
             sum(steps) + len(path), abs(hi - lo) / beta, stop)
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
