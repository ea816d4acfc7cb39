"""Radial time evolution, conservation monitoring, and blow-up detection.

The scheme is Crank-Nicolson with a midpoint nonlinearity: implicit in the
stiff weighted Laplacian (no transform exists for it, so splitting buys
nothing) and exactly mass-conserving up to the inner fixed-point tolerance.
The left-hand side i/dt - A0/2 is constant for a run, so the stepper factors
it once (`SectorOperator.factor`) and each inner sweep is one solve.  The
midpoint fixed point (Akrivis, Dougalis and Karakashian 1991) starts from an
extrapolation of the last states of the run and stops once its measured
contraction rate puts the iterate within tolerance of the fixed point, so a
smooth step takes two sweeps and a polishing pass.
Well-posedness of the underlying initial-value problem is not established;
the integrator is a formal discretization and reports conservation drift as
its trust metric.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded  # unused; bound here because perfbench traces it by name

from . import functionals
from .discretization import LineGrid, Profile, RadialGrid, assemble_operator, weighted_norm
from .exceptions import FixedPointDivergenceError, InvalidParameterError
from .model import ModelParams, require_dimension

CONTRACTION_TOL = 1e-12
MAX_INNER = 8
BLOWUP_GRAD_FACTOR = 1e3     # gradient growth over its initial value that flags blow-up
REFLECTION_GUARD = 1e-8      # relative mass beyond 0.9 r_max that halts a run
MAX_STEPS = 10 ** 8          # the most steps a run may ask for: 10^4 times the default run's

log = logging.getLogger(__name__)


class CrankNicolson:
    """One-step integrator for i u_t = A0 u - |u|^{p-1} u on a radial grid or the line.

    `step` iterates the midpoint m = (u + u_next)/2 to its fixed point.  The
    stepper keeps the last three states of its trajectory: the array a run
    of steps began from and the arrays it returned since.  When `step` is
    fed the array it returned last (the same object), the iteration starts
    from their extrapolation, 2 u_n - 1.5 u_{n-1} + 0.5 u_{n-2} (the mean of
    u_n and the quadratic extrapolation of u_{n+1}), or 1.5 u_n - 0.5 u_{n-1}
    with two states.  Any other input, a copy included, starts from u itself
    and begins a new trajectory.  No explicit predictor is used: it would
    amplify the stiff modes of A0.  The iteration stops when the sweep's
    change err falls below CONTRACTION_TOL, or, from the second sweep on with
    rate r = err/err_prev < 1/2, when Banach's bound err r/(1 - r) on the
    distance to the fixed point does; a polishing pass follows either stop.
    The start changes the sweeps taken, not the fixed point.

    `solves` counts the tridiagonal solves made so far, polishing passes included.
    """

    def __init__(self, params: ModelParams, grid: RadialGrid | LineGrid, dt: float):
        self.params = params
        self.grid = grid
        self.dt = dt
        self.op = assemble_operator(grid, params.a, sector=0)
        self._solve = self.op.factor(-0.5, 1j / dt)     # i/dt - A0/2
        self.solves = 0
        self._history: list[np.ndarray] = []     # last states of the trajectory, oldest first

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(i/dt - A0/2)^{-1} rhs from the stored factors."""
        x = self._solve(_finite(rhs))
        self.solves += 1
        return x

    def _start(self, u: np.ndarray) -> np.ndarray:
        """The first midpoint guess: the history's extrapolation when u is its last state."""
        history = self._history
        if not history or u is not history[-1]:
            self._history = [u]
        elif len(history) == 3:
            return 2.0 * u - 1.5 * history[1] + 0.5 * history[0]
        elif len(history) == 2:
            return 1.5 * u - 0.5 * history[0]
        return u

    def step(self, u: np.ndarray) -> np.ndarray:
        p = self.params.p
        rhs_linear = (1j / self.dt) * u + 0.5 * self.op.apply(u)
        mid = self._start(u)
        scale = max(weighted_norm(self.grid, u), 1e-300)
        err_prev = np.inf
        for sweep in range(MAX_INNER):
            nonlin = np.abs(mid) ** (p - 1.0) * mid
            u_next = self.solve(rhs_linear - nonlin)
            mid_next = 0.5 * (u_next + u)
            err = weighted_norm(self.grid, mid_next - mid) / scale
            mid = mid_next
            rate = err / err_prev
            if err < CONTRACTION_TOL or (
                    sweep and rate < 0.5 and err * rate / (1.0 - rate) < CONTRACTION_TOL):
                # One polishing pass so the committed step sits well below tol.
                nonlin = np.abs(mid) ** (p - 1.0) * mid
                u_next = self.solve(rhs_linear - nonlin)
                self._history = [*self._history[-2:], u_next]
                return u_next
            if err > 4.0 * err_prev or not np.isfinite(err):
                break
            err_prev = err
        raise FixedPointDivergenceError(
            f"midpoint iteration failed to contract (last error {err:.3e})")


def _finite(x: np.ndarray) -> np.ndarray:
    """x, after the check that `scipy.linalg.solve_banded` makes on its inputs."""
    if not np.isfinite(x).all():
        raise ValueError("array must not contain infs or NaNs")
    return x


@dataclass
class VirialTrace:
    """Per-step time series of the variance, virial value, and conserved quantities."""

    times: np.ndarray
    v: np.ndarray                # weighted variance | |x|^{1-a} u |_2^2
    p_values: np.ndarray         # virial functional P(u(t))
    mass: np.ndarray
    energy: np.ndarray
    gradnorm: np.ndarray         # integral |x|^{2a} |grad u|^2
    lp1_norm: np.ndarray         # integral |u|^{p+1}
    blowup_flag: bool = False
    blowup_time: float = float("nan")
    halt_reason: str = ""
    final_u: np.ndarray | None = None
    solves: int = 0              # tridiagonal solves of the run, polishing passes included

    def second_difference(self) -> tuple[np.ndarray, np.ndarray]:
        """Central second difference of the variance at interior sample times."""
        dt = np.diff(self.times)
        if self.times.size < 3 or not np.allclose(dt, dt[0]):
            raise ValueError("second difference needs at least 3 uniform samples")
        h = dt[0]
        d2 = (self.v[2:] - 2.0 * self.v[1:-1] + self.v[:-2]) / h ** 2
        return self.times[1:-1], d2


def evolve_and_trace(params: ModelParams, u0: Profile, t_final: float, dt: float,
                     record_every: int = 1) -> VirialTrace:
    """Evolve the profile u0 on its own grid and record the virial trace.

    Blow-up is declared when the gradient term grows by BLOWUP_GRAD_FACTOR
    over its initial value or the inner iteration diverges (finite-time
    singularities cannot be followed past grid resolution; concavity of the
    variance plus gradient growth is the accepted signature).  Runs are also
    halted when relative tail mass beyond 0.9 r_max exceeds REFLECTION_GUARD,
    since the outer boundary is reflecting.  dt must be positive and finite,
    t_final non-negative and finite, t_final / dt at most MAX_STEPS steps,
    and record_every a whole number at least 1.  One INFO line on this
    module's logger gives the steps taken, the solves and the halt reason.
    """
    if not isinstance(u0, Profile):
        raise InvalidParameterError(f"u0 must be a Profile, got {type(u0).__name__}")
    require_dimension(params, u0.grid)
    if not 0.0 < dt < np.inf:
        raise InvalidParameterError(f"dt = {dt} must be positive and finite")
    if not 0.0 <= t_final < np.inf:
        raise InvalidParameterError(f"t_final = {t_final} must be non-negative and finite")
    if not (record_every >= 1 and float(record_every).is_integer()):
        raise InvalidParameterError(f"record_every = {record_every} must be a whole number >= 1")
    if not t_final / dt <= MAX_STEPS:
        raise InvalidParameterError(
            f"t_final / dt = {t_final} / {dt} asks for more than MAX_STEPS = {MAX_STEPS} steps")
    grid = u0.grid
    u = u0.values.astype(complex)
    stepper = CrankNicolson(params, grid, dt)
    tail_mask = np.abs(grid.nodes) > 0.9 * grid.r_max

    times, vs, ps, ms, es, gs, ls = [], [], [], [], [], [], []

    def record(t, u):
        kin = grid.measure * stepper.op.gradient_energy(u)
        lp1 = functionals.lp_power_of(grid, u, params.p + 1.0)
        energy, virial = functionals.energy_and_virial(params, kin, lp1)
        times.append(t)
        vs.append(functionals.variance_of(params, grid, u))
        ps.append(virial)
        ms.append(functionals.mass_of(grid, u))
        es.append(energy)
        gs.append(kin)
        ls.append(lp1)

    record(0.0, u)
    grad0 = max(gs[0], 1e-300)
    mass0 = max(ms[0], 1e-300)
    n_steps = int(round(t_final / dt))
    blowup = False
    blowup_time = float("nan")
    halt = ""

    t = 0.0
    steps = 0
    for k in range(1, n_steps + 1):
        try:
            u = stepper.step(u)
        except FixedPointDivergenceError:
            blowup, blowup_time = True, t
            halt = "fixed-point divergence"
            break
        steps, t = k, k * dt
        if k % record_every == 0 or k == n_steps:
            record(t, u)
            if gs[-1] > BLOWUP_GRAD_FACTOR * grad0:
                blowup, blowup_time = True, t
                halt = "gradient growth"
                break
            tail = grid.measure * float(
                np.sum(grid.volumes[tail_mask] * np.abs(u[tail_mask]) ** 2))
            if tail > REFLECTION_GUARD * mass0:
                halt = "reflection guard"
                break

    log.info("evolution at %s, dt = %g: %d steps, %d solves (%.2f a step), halt: %s",
             params, dt, steps, stepper.solves, stepper.solves / max(steps, 1),
             halt or "t_final reached")
    return VirialTrace(times=np.asarray(times), v=np.asarray(vs),
                       p_values=np.asarray(ps), mass=np.asarray(ms),
                       energy=np.asarray(es), gradnorm=np.asarray(gs),
                       lp1_norm=np.asarray(ls), blowup_flag=blowup,
                       blowup_time=blowup_time, halt_reason=halt, final_u=u,
                       solves=stepper.solves)
