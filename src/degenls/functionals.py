"""Conserved quantities, Weinstein quotient, Pohozaev residuals, and scalings.

Reported integrals are full-space values: every radial quadrature carries the
surface-measure constant |S^{d-1}| exactly once.  The identities are
homogeneous in that constant, so residuals are convention-free; keeping it
explicit avoids the factor-of-2 trap in d = 1 (full line = 2 x half line).
The constant is the grid's `measure`, an operator's that of `op.grid`: on a
`LineGrid` the quadrature already covers the whole line and the measure is 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import (LineGrid, Profile, RadialGrid, SectorOperator, _require_fields,
                             assemble_operator, gradient_energy)
from .exceptions import InvalidParameterError
from .model import ModelParams, dilate, require_dimension


def mass_of(grid: RadialGrid, u: np.ndarray) -> float:
    """integral |u|^2 dx."""
    _require_fields(grid, u)
    return grid.measure * float(np.sum(grid.volumes * np.abs(u) ** 2))


def lp_power_of(grid: RadialGrid, u: np.ndarray, q: float) -> float:
    """integral |u|^q dx."""
    _require_fields(grid, u)
    return grid.measure * float(np.sum(grid.volumes * np.abs(u) ** q))


def kinetic_of(grid: RadialGrid, a: float, u: np.ndarray) -> float:
    """integral |x|^{2a} |grad u|^2 dx for radial or full-line samples."""
    return grid.measure * gradient_energy(grid, a, u)


def energy_and_virial(params: ModelParams, kin: float, lp1: float) -> tuple[float, float]:
    """E and P from kin = integral |x|^{2a}|grad u|^2 and lp1 = integral |u|^{p+1}.

    E = (1/2) kin - lp1/(p+1) and P = (1-a)/2 kin - alpha/(2(p+1)) lp1, with
    alpha = d(p-1)/2.
    """
    alpha = params.d * (params.p - 1.0) / 2.0
    return (0.5 * kin - lp1 / (params.p + 1.0),
            0.5 * (1.0 - params.a) * kin - alpha / (2.0 * (params.p + 1.0)) * lp1)


def energy_of(params: ModelParams, grid: RadialGrid, u: np.ndarray) -> float:
    """E = (1/2) integral |x|^{2a}|grad u|^2 - (1/(p+1)) integral |u|^{p+1}."""
    return energy_and_virial(params, kinetic_of(grid, params.a, u),
                             lp_power_of(grid, u, params.p + 1.0))[0]


def virial_of(params: ModelParams, grid: RadialGrid, u: np.ndarray) -> float:
    """P(u) = (1-a)/2 integral |x|^{2a}|grad u|^2 - alpha/(2(p+1)) integral |u|^{p+1}."""
    return energy_and_virial(params, kinetic_of(grid, params.a, u),
                             lp_power_of(grid, u, params.p + 1.0))[1]


def variance_of(params: ModelParams, grid: RadialGrid, u: np.ndarray) -> float:
    """Weighted variance integral |x|^{2(1-a)} |u|^2 dx."""
    _require_fields(grid, u)
    weight = np.abs(grid.nodes) ** (2.0 * (1.0 - params.a))
    return grid.measure * float(np.sum(grid.volumes * weight * np.abs(u) ** 2))


def h_norm_sq(op: SectorOperator, u: np.ndarray) -> float:
    """|u|_{H^{1,a}}^2 = measure <(A0 + I) u, u>_w for real u, Dirichlet closure included."""
    return op.grid.measure * (op.quad_form(u) + float(np.sum(op.grid.volumes * u * u)))


def weinstein_of(op: SectorOperator, u: np.ndarray, p: float) -> tuple[float, float]:
    """J[u] = |u|_{H^{1,a}}^2 / |u|_{p+1}^2 and integral |u|^{p+1}, for the sector-0 op."""
    lam = lp_power_of(op.grid, u, p + 1.0)
    return h_norm_sq(op, u) / lam ** (2.0 / (p + 1.0)), lam


@dataclass(frozen=True)
class IdentityReport:
    """Conserved quantities and identity residuals for one profile."""

    mass: float
    energy: float
    j: float
    pohozaev_1: float
    pohozaev_2: float
    p: float
    alpha: float


def pohozaev_coefficient(params: ModelParams) -> float:
    """d(p-1) / (2(p+1)(1-a)), the kinetic-to-potential ratio of converged waves."""
    return params.d * (params.p - 1.0) / (2.0 * (params.p + 1.0) * (1.0 - params.a))


def evaluate_identities(params: ModelParams, profile: Profile) -> IdentityReport:
    """Pohozaev residuals (relative to the kinetic term), virial value, invariants."""
    require_dimension(params, profile.grid)
    grid, u = profile.grid, profile.values
    op = assemble_operator(grid, params.a)
    kin = grid.measure * op.gradient_energy(u)
    mass = mass_of(grid, u)
    j, lp1 = weinstein_of(op, u, params.p)
    coeff = pohozaev_coefficient(params)
    energy, virial = energy_and_virial(params, kin, lp1)
    return IdentityReport(
        mass=mass,
        energy=energy,
        j=j,
        pohozaev_1=abs(kin - coeff * lp1) / kin,
        pohozaev_2=abs(params.omega * mass - (1.0 - coeff) * lp1) / kin,
        p=virial,
        alpha=params.d * (params.p - 1.0) / 2.0,
    )


def l2_scale(profile: Profile, lam: float,
             grid: RadialGrid | LineGrid | None = None) -> Profile:
    """Mass-invariant dilation u_lam(x) = lam^{d/2} u(lam x).

    With grid=None the samples ride on the exactly contracted grid (radii
    divided by lam), which conserves the discrete mass and every power norm
    to machine precision; passing a grid interpolates onto it instead.
    """
    if not (0.0 < lam < np.inf):
        raise InvalidParameterError(f"scale factor must be positive and finite, got {lam}")
    return dilate(profile, lam ** (profile.grid.d / 2.0), lam, profile.omega, grid)


def scaled_energy(params: ModelParams, profile: Profile, lam: float) -> tuple[float, float]:
    """E(u_lam) by the closed form and by direct evaluation, for cross-checking.

    Closed form: E(u_lam) = (alpha lam^{2-2a} - 2(1-a) lam^alpha)
    / (2(p+1)(1-a)) * |u|_{p+1}^{p+1}, valid for converged waves; the direct
    value evaluates E on the dilated samples.  Agreement of the two is
    equivalent to the first Pohozaev identity holding for the input.
    """
    a, p = params.a, params.p
    alpha = params.d * (p - 1.0) / 2.0
    lp1 = lp_power_of(profile.grid, profile.values, p + 1.0)
    closed = (alpha * lam ** (2.0 - 2.0 * a) - 2.0 * (1.0 - a) * lam ** alpha) \
        / (2.0 * (p + 1.0) * (1.0 - a)) * lp1
    scaled = l2_scale(profile, lam)
    direct = energy_of(params, scaled.grid, scaled.values)
    return closed, direct
