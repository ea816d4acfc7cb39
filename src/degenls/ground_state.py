"""Solitary-wave profiles two independent ways: variational minimization and shooting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.linalg import cho_solve_banded, cholesky_banded

from . import functionals
from .discretization import (LineGrid, Profile, RadialGrid, SectorOperator, assemble_operator,
                             weighted_norm)
from .exceptions import (BracketInvalidError, InvalidParameterError, InvalidWindowError,
                         NonConvergenceError, StiffnessFailureError)
from .model import ModelParams, exists_window, omega_rescale


@dataclass
class MinimizerReport:
    """Outcome of the constrained Weinstein minimization (unit-frequency normalization)."""

    phi_normalized: np.ndarray   # minimizer with unit H^{1,a} norm
    j_min: float
    lam: float                   # integral of phi_normalized^{p+1}
    kappa: float                 # Lagrange multiplier, 1/lam at unit norm
    iterations: int
    residual: float              # Euler-Lagrange defect of phi_normalized, weighted norm
    grid: RadialGrid | LineGrid

    def profile(self, params: ModelParams) -> Profile:
        """Unit-frequency wave phi = kappa^{1/(p-1)} * minimizer."""
        scale = self.kappa ** (1.0 / (params.p - 1.0))
        return Profile(grid=self.grid, values=scale * self.phi_normalized,
                       omega=1.0, residual=scale * self.residual)


def el_residual(params: ModelParams, grid: RadialGrid | LineGrid, values: np.ndarray) -> float:
    """Full-space weighted norm of A0 u + omega u - |u|^{p-1} u."""
    return _defect_norm(assemble_operator(grid, params.a), grid.measure, values, params.omega,
                        np.abs(values) ** (params.p - 1.0) * values)


def _defect_norm(op: SectorOperator, measure: float, u: np.ndarray, omega: float,
                 nonlinear: np.ndarray) -> float:
    """The Euler-Lagrange defect sqrt(measure) |A0 u + omega u - nonlinear|_w."""
    return np.sqrt(measure) * weighted_norm(op.grid, op.apply(u) + omega * u - nonlinear)


def weinstein_gradient(params: ModelParams, grid: RadialGrid | LineGrid,
                       u: np.ndarray) -> np.ndarray:
    """Frechet derivative of the Weinstein quotient wrt the full-space L2 pairing.

    dJ[u;h] = <grad, h> with <f,g> = |S^{d-1}| sum_i w_i f_i g_i.
    """
    p = params.p
    op = assemble_operator(grid, params.a, sector=0)
    norm_sq = functionals.h_norm_sq(op, u, grid.measure)
    lam = functionals.lp_power_of(grid, u, p + 1.0)
    den = lam ** (2.0 / (p + 1.0))
    return (2.0 / den) * (op.apply(u) + u - (norm_sq / lam) * np.abs(u) ** (p - 1.0) * u)


# Centre of the seed of the full-line flow.  An even seed stays even under the
# flow, which then converges to the even saddle; an off-centre one breaks the
# symmetry the way the minimizer does.
LINE_SEED_SHIFT = 0.5


def minimize_weinstein(params: ModelParams, grid: RadialGrid | LineGrid, tol: float = 1e-8,
                       max_iter: int = 50000, tau: float = 0.1) -> MinimizerReport:
    """Minimize J[u] = |u|_{H^{1,a}}^2 / |u|_{p+1}^2 by a normalized semi-implicit flow.

    Each step solves (I + tau (A0 + I)) v = u + tau kappa_u u^p and renormalizes
    to unit H^{1,a} norm; tau is halved whenever J fails to decrease, so the
    recorded J sequence is monotone.  The implicit linear part damps the stiff
    weighted-Laplacian modes unconditionally, and the M-matrix structure of
    the solve keeps iterates positive.  Stops when the relative J change falls
    below 1e-12 and the Euler-Lagrange defect below tol (both required).

    On a radial grid the minimum is over radial functions.  On a `LineGrid`
    it is over all of H^{1,a}(R): the flow starts off centre.  Once a >= 1/2
    the two branches decouple, and a function spread over both has a larger
    quotient than the better of its two branches alone, so the minimizer
    lives on one branch (x > 0 here) and vanishes on the other; the flow then
    runs on that branch only.
    """
    if not exists_window(params):
        raise InvalidWindowError(f"no solitary waves exist at {params}")
    op = assemble_operator(grid, params.a, sector=0)
    branches = op.branches()
    if branches is not None:
        half = _weinstein_flow(params, branches[1], grid.measure,
                               np.exp(-grid.half.nodes ** 2), tol, max_iter, tau)
        u = np.zeros(grid.n)
        u[grid.branch(+1)] = half.phi_normalized
        return MinimizerReport(phi_normalized=u, j_min=half.j_min, lam=half.lam,
                               kappa=half.kappa, iterations=half.iterations,
                               residual=half.residual, grid=grid)
    centre = LINE_SEED_SHIFT if isinstance(grid, LineGrid) else 0.0
    return _weinstein_flow(params, op, grid.measure, np.exp(-(grid.nodes - centre) ** 2),
                           tol, max_iter, tau)


def _weinstein_flow(params: ModelParams, op: SectorOperator, measure: float,
                    seed: np.ndarray, tol: float, max_iter: int,
                    tau: float) -> MinimizerReport:
    """The flow of `minimize_weinstein` for the operator op, started from seed."""
    p = params.p
    n = op.grid.n
    sqw = np.sqrt(op.grid.volumes)
    diag_lin, off = op.sym_tridiagonal()
    diag_lin += 1.0                                # A0 + I

    def factorize(step):
        ab = np.zeros((2, n))
        ab[0, 1:] = step * off
        ab[1, :] = 1.0 + step * diag_lin
        return cholesky_banded(ab)

    # lam and u_p = u^p belong to the current iterate u; each is computed once
    # per accepted step and reused by the next one.
    u = seed / np.sqrt(functionals.h_norm_sq(op, seed, measure))
    j_curr, lam = functionals.weinstein_of(op, u, p, measure)
    u_p = u ** p
    chol = factorize(tau)
    tau_min = 1e-6
    accepted = 0

    for iteration in range(1, max_iter + 1):
        kappa = 1.0 / lam                          # unit H-norm Lagrange multiplier
        rhs = u + tau * kappa * u_p
        v = cho_solve_banded((chol, False), sqw * rhs, check_finite=False) / sqw
        v /= np.sqrt(functionals.h_norm_sq(op, v, measure))
        j_new, lam_new = functionals.weinstein_of(op, v, p, measure)
        if j_new > j_curr * (1.0 + 1e-15) and tau > tau_min:
            tau = 0.5 * tau
            chol = factorize(tau)
            continue
        dj = abs(j_curr - j_new)
        u, j_curr, lam = v, j_new, lam_new
        u_p = u ** p
        accepted += 1
        if accepted % 20 == 0 and tau < 10.0:
            tau = 1.5 * tau
            chol = factorize(tau)
        res = _defect_norm(op, measure, u, 1.0, (1.0 / lam) * u_p)
        if res < tol and dj <= 1e-12 * abs(j_curr):
            return MinimizerReport(phi_normalized=u, j_min=j_curr, lam=lam,
                                   kappa=1.0 / lam, iterations=iteration,
                                   residual=res, grid=op.grid)
    raise NonConvergenceError(
        f"Weinstein flow did not reach tol={tol} in {max_iter} iterations",
        residual=_defect_norm(op, measure, u, 1.0, (1.0 / lam) * u_p), iterations=max_iter)


def ground_state(params: ModelParams, grid: RadialGrid | LineGrid, tol: float = 1e-8,
                 max_iter: int = 50000) -> Profile:
    """Converged wave at params.omega on the given grid via minimization + rescaling."""
    return minimize_and_rescale(params, grid, tol, max_iter)[1]


def minimize_and_rescale(params: ModelParams, grid: RadialGrid | LineGrid, tol: float = 1e-8,
                         max_iter: int = 50000) -> tuple[MinimizerReport, Profile]:
    """The minimization behind `ground_state`, and the wave at params.omega it gives on grid.

    The minimization runs at the unit-frequency normalization on the grid
    stretched by omega^{1/(2(1-a))}, so the exact frequency rescaling lands
    back on `grid` without interpolation.
    """
    if params.omega == 1.0:
        report = minimize_weinstein(params, grid, tol=tol, max_iter=max_iter)
        return report, report.profile(params)
    stretch = params.omega ** (1.0 / (2.0 * (1.0 - params.a)))
    report = minimize_weinstein(params, grid.with_r_max(grid.r_max * stretch), tol=tol,
                                max_iter=max_iter)
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
    `_integrate_shot`.
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
                  tol: float = 1e-10, max_bisect: int = 200) -> Profile:
    """Profile by bisection on the central value beta = phi(0).

    Integrates (phi, F = rho^{d-1+2a} phi') outward from a two-term origin
    series; overshoot = phi crosses zero, undershoot = F turns positive while
    phi is above the tail level tol * beta.  The returned samples follow the
    integrated trajectory down to the tail level and continue with the
    stretched-exponential tail exp(-sqrt(omega) rho^{1-a}/(1-a)) beyond, so
    phi(r_max) is below tol * phi(0) by construction.  The ODE is radial, so
    the grid must be too.  Bracket and bisection shots are only classified;
    the chosen beta is integrated once more with dense output and sampled.
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


def reconcile(profile_a: Profile, profile_b: Profile,
              rel_tol: float = 1e-3) -> ReconcileReport:
    """Cross-validate two solver outputs; flags relative disagreement above rel_tol."""
    if profile_a.grid.nodes.shape != profile_b.grid.nodes.shape or \
            not np.allclose(profile_a.grid.nodes, profile_b.grid.nodes):
        raise InvalidWindowError("profiles must share a grid to be reconciled")
    diff = profile_a.values - profile_b.values
    max_abs = float(np.max(np.abs(diff)))
    scale = float(np.max(np.abs(profile_a.values)))
    rel_max = max_abs / scale
    rel_weighted = weighted_norm(profile_a.grid, diff) / weighted_norm(
        profile_a.grid, profile_a.values)
    return ReconcileReport(max_abs=max_abs, rel_max=rel_max,
                           rel_weighted=rel_weighted,
                           agree=bool(rel_max < rel_tol and rel_weighted < rel_tol))
