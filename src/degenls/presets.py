"""The grid rules: every grid the toolkit lays out without being given one.

Two facts of the paper size a grid.  The wave decays like
exp(-sqrt(omega) rho^{1-a}/(1-a)), which fixes the domain (`default_r_max`),
and phi' carries a rho^{1-2a} layer at the origin, which fixes the grading.
Two rules turn them into grids:

- the single-point rule (`point_grid`: `groundstate`, `spectrum`, `evolve`)
  ends the domain where the predicted tail has fallen 12 decades and grades
  at gamma = 2 once a > 1/2, else not at all; it only fills what the
  `[grid]` section leaves out;
- the sweep rule (`sweep_grid`: `sweep` and the acceptance lattice) ends it
  at 7 decades and grades by `sweep_grading`.

Where a caller wants the Weinstein minimizer and the radial class misses it
(`needs_line`), both lay out the full line, graded by `line_grading`.

The rules stay two because neither serves every n.  Of the 33 admissible
lattice points (radial grids, omega = 1), these pass the 1e-6 Pohozaev gate:

    n        single-point rule   sweep rule
    16384            9               25
    65536           21               32
    131072          24                9

At n = 131072 the sweep rule's flow stalls at all 24 points with a < 1/2:
its finer cells lift the rounding floor eps max|diag| of the Euler-Lagrange
defect above the absolute tol = 1e-8.  A stop that knows that floor would
let one rule serve every n.
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
    """Grading for identity/spectral sweeps.

    gamma = 1 keeps uniform cells at a = 0; mild grading resolves the
    rho^{1-2a} derivative layer for 0 < a <= 1/2 without inflating the
    stiffness of the near-origin rows (which costs eigenvalue accuracy);
    strong grading is needed once phi' blows up at the origin (a > 1/2).
    """
    if a == 0.0:
        return 1.0
    return 1.5 if a <= 0.5 else 3.0


def _point_grading(a: float) -> float:
    """Single-point grading: gamma = 2 resolves the rho^{1-2a} layer once phi' blows up at 0."""
    return 2.0 if a > 0.5 else 1.0


def needs_line(params: ModelParams) -> bool:
    """True where the radial class misses the Weinstein minimizer: d = 1, a > 0.

    There the even wave is a saddle of the quotient; the minimizer breaks the
    symmetry and is solved and classified on the full line.
    """
    return params.d == 1 and params.a > 0.0


def line_grading(a: float, n: int) -> float:
    """Grading of the full-line sweep grid with n cells on each side.

    Once a >= 1/2 the wave lives on one branch, a radial problem, and the
    radial policy applies.  Below that the wave peaks off the origin, where
    gamma = 1.5 cells are coarse: at n = 8192 the p = 7 wave misses the 1e-6
    Pohozaev gate.  So the line is graded up to gamma = 2, but never so far
    that its first cell, n^{-gamma} r_max, is smaller than that of gamma = 1.5
    at n = 65536: finer first cells raise the rounding floor eps * max|diag|
    of the minimizer residual and of the eigenvalues past their tolerances
    (at n = 65536, gamma = 1.75 the flow no longer reaches its tolerance).
    """
    if a >= 0.5:
        return sweep_grading(a)
    return min(2.0, max(1.5, 1.5 * math.log2(65536) / math.log2(n)))


def _grid(params: ModelParams, r_max: float, n: int, gamma: float, line: bool,
          radial_grading) -> RadialGrid | LineGrid:
    """The line (n cells a side) or the radial grid; gamma not > 0 takes the rule's grading."""
    if n < MIN_CELLS:    # before line_grading takes log2(n)
        raise InvalidParameterError(f"need at least {MIN_CELLS} cells, got {n}")
    if not gamma > 0:
        gamma = line_grading(params.a, n) if line else radial_grading(params.a)
    if line:
        return build_line_grid(r_max, n, gamma)
    return build_grid(params.d, r_max, n, gamma)


def point_grid(params: ModelParams, n: int, r_max: float, gamma: float,
               minimizer: bool) -> RadialGrid | LineGrid:
    """The single-point grid: the `[grid]` values given, the single-point rule for the rest.

    An r_max or gamma that is not positive was left out.  With `minimizer`
    the grid holds the Weinstein minimizer: the full line (n cells on each
    side) where `needs_line`; without it, the radial (even) wave.
    """
    r_max = r_max if r_max > 0 else default_r_max(params)
    return _grid(params, r_max, n, gamma, minimizer and needs_line(params), _point_grading)


def sweep_grid(params: ModelParams, n: int = 65536) -> RadialGrid | LineGrid:
    """Grid tuned for sub-1e-6 identity residuals at moderate cost.

    The domain ends at `default_r_max` for a predicted tail of
    10^-SWEEP_TAIL_DECADES.

    At d = 1, a > 0 the even wave is a saddle of the Weinstein quotient, so
    the grid is the full line (n cells on each side), where the minimizer
    lives.  At a = 0 the radial class already holds a minimizer (sech), and
    the full line would only add the translation zero mode.
    """
    r_max = default_r_max(params, tail=10.0 ** (-SWEEP_TAIL_DECADES))
    return _grid(params, r_max, n, 0.0, needs_line(params), sweep_grading)
