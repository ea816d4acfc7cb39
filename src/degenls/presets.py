"""The grid rule: every grid the toolkit lays out without being given one.

Two facts of the paper size a grid.  The wave decays like
exp(-sqrt(omega) rho^{1-a}/(1-a)), which fixes the domain (`default_r_max`),
and phi' carries a rho^{1-2a} layer at the origin, which fixes the grading.
In s = rho^{1-a}/(1-a) both are the map's: the radial wave is the smooth,
even radial wave of dimension D = d/(1-a), so a radial grid is graded to
equal cells in s (`sweep_grading`).  The full line, laid out where a caller
wants the Weinstein minimizer and the radial class misses it
(`needs_line`), is graded by `line_grading`.  `point_grid` lays out every
grid; `sweep_grid` is one call of it.

The domain keeps two lengths, each for a measured reason:

- `groundstate`, `spectrum` and `evolve` end it 12 decades down the
  predicted tail: on the sweep's 7 decades four of the five d = 1, a = 1/4
  line points raise NonConvergenceError at n = 131072 (floors
  1.00-1.25e-8 > tol), and an `evolve` run at (1, 0, 3), lambda = 0.5,
  N = 2048 halts on the reflection guard at t = 0.001 instead of 4.83;
- `sweep` and the acceptance lattice end it 7 decades down
  (SWEEP_TAIL_DECADES): its coarser cells pass the gate at 26 points at
  n = 16384, against 21 on 12 decades.

Of the 33 admissible lattice points (radial grids, omega = 1), these pass
the 1e-6 Pohozaev gate under the three-branch grading this rule replaced
(gamma 1 at a = 0, 1.5 up to a = 1/2, 3 above; in s its cells shrank toward
the peak at the origin at a = 1/4, gamma(1-a) = 1.125, and grew toward it at
1/2 and 3/4, gamma(1-a) = 0.75) and under this rule, on each domain:

                three-branch grading      gamma = 1/(1-a)
    n          12 decades   7 decades   12 decades   7 decades
    16384          19           25          21           26
    65536          29           32          33           33
    131072         32           28          33           33

Two points that passed at n = 16384 now miss: (2, .25, 3) on 12 decades
(5.6e-7 -> 1.2e-6) and (3, .25, 2.5) on 7 decades (6.2e-7 -> 1.2e-6): at
a = 1/4 the equal cells in s are coarser at the peak than the old ones.
From n = 65536 every point passes on both domains.
"""

from __future__ import annotations

import math

from .discretization import (MIN_CELLS, LineGrid, RadialGrid, build_grid,
                             build_line_grid)
from .exceptions import InvalidParameterError
from .model import ModelParams

# Decades the predicted tail falls over a sweep grid's domain; identity
# integrals see its square, so seven leave ~1e-14 truncation error.
SWEEP_TAIL_DECADES = 7.0


def default_r_max(params: ModelParams, tail: float = 1e-12) -> float:
    """Domain size with predicted boundary value exp(-sqrt(omega) R^{1-a}/(1-a)) < tail."""
    target = -math.log(tail)
    return ((1.0 - params.a) * target / math.sqrt(params.omega)) ** (1.0 / (1.0 - params.a))


def sweep_grading(a: float) -> float:
    """Grading of every radial grid whose gamma is left out: 1/(1-a).

    In s = rho^{1-a}/(1-a) the radial wave is Q(s), the smooth, even radial
    wave in D = d/(1-a) dimensions, and both the rho^{1-2a} layer of phi' at
    the origin and the tail exp(-sqrt(omega) s) are the map's.  Edges at
    (j/N)^gamma r_max sit at (j/N)^{gamma(1-a)} s_max in s, so this gamma
    spaces them equally in s: 1 at a = 0, 4/3 at 1/4, 2 at 1/2, 4 at 3/4.
    """
    return 1.0 / (1.0 - a)


def needs_line(params: ModelParams) -> bool:
    """True where the radial class misses the Weinstein minimizer: d = 1, a > 0.

    There the even wave is a saddle of the quotient; the minimizer breaks the
    symmetry and is solved and classified on the full line.
    """
    return params.d == 1 and params.a > 0.0


def line_grading(a: float, n: int) -> float:
    """Grading of the full-line sweep grid with n cells on each side.

    Once a >= 1/2 the wave lives on one branch, a radial problem, and the
    radial rule applies.  Below that the branches couple and the wave peaks
    off the origin, where cells equal in s are coarse: at n = 8192 (7
    decades) gamma = 4/3 misses the 1e-6 Pohozaev gate at p = 5 and 7
    (1.5e-6, 2.3e-6), and gamma = 1.5 at p = 7.  So the line is graded up to
    gamma = 2, but never so far that its first cell, n^{-gamma} r_max, is
    smaller than that of gamma = 1.5 at n = 65536: finer first cells raise
    the rounding floor eps * max|diag| of the minimizer residual and of the
    eigenvalues past their tolerances (at n = 65536, gamma = 1.75 the flow no
    longer reaches its tolerance).
    """
    if a >= 0.5:
        return sweep_grading(a)
    return min(2.0, max(1.5, 1.5 * math.log2(65536) / math.log2(n)))


def point_grid(params: ModelParams, n: int, r_max: float, gamma: float,
               minimizer: bool) -> RadialGrid | LineGrid:
    """The grid of n cells a side: the r_max and gamma given, the rule for the rest.

    0.0 leaves a value out: r_max then ends the domain 12 decades down the
    predicted tail, and gamma is `line_grading` on the line, else
    `sweep_grading`.  Any other r_max or gamma that is not positive and finite
    is refused.  With `minimizer` the grid holds the Weinstein minimizer: the
    full line (n cells on each side) where `needs_line`; without it, the
    radial (even) wave.
    """
    if n < MIN_CELLS:    # before line_grading takes log2(n)
        raise InvalidParameterError(f"need at least {MIN_CELLS} cells, got {n}")
    for name, value in (("r_max", r_max), ("gamma", gamma)):
        if value != 0.0 and not (value > 0.0 and math.isfinite(value)):
            raise InvalidParameterError(f"{name} must be positive and finite, got {value}")
    line = minimizer and needs_line(params)
    if r_max == 0.0:
        r_max = default_r_max(params)
    if gamma == 0.0:
        gamma = line_grading(params.a, n) if line else sweep_grading(params.a)
    if line:
        return build_line_grid(r_max, n, gamma)
    return build_grid(params.d, r_max, n, gamma)


def sweep_grid(params: ModelParams, n: int) -> RadialGrid | LineGrid:
    """The grid of a sweep point: the rule's grid, ending 10^-SWEEP_TAIL_DECADES down the tail.

    At d = 1, a > 0 the even wave is a saddle of the Weinstein quotient, so
    the grid is the full line (n cells on each side), where the minimizer
    lives.  At a = 0 the radial class already holds a minimizer (sech), and
    the full line would only add the translation zero mode.
    """
    return point_grid(params, n, default_r_max(params, tail=10.0 ** -SWEEP_TAIL_DECADES), 0.0,
                      minimizer=True)
