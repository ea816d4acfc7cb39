"""Parameter tuple, validity predicates, and the exact frequency-scaling laws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import LineGrid, Profile, RadialGrid
from .exceptions import GridRangeError, InvalidParameterError, InvalidWindowError

DEGENERATE_BAND = 1e-12
TAIL_REL = 1e-8     # boundary value, relative to the peak, below which a tail may be grafted


@dataclass(frozen=True)
class ModelParams:
    """The tuple (d, a, p, omega): dimension, degeneracy exponent, power, frequency."""

    d: int
    a: float
    p: float
    omega: float = 1.0

    def __post_init__(self):
        if not (self.d >= 1 and float(self.d).is_integer()):
            raise InvalidParameterError(f"dimension must be a positive integer, got {self.d}")
        if not (0.0 <= self.a < 1.0):
            raise InvalidParameterError(f"degeneracy exponent must satisfy 0 <= a < 1, got {self.a}")
        if not (1.0 < self.p < np.inf):
            raise InvalidParameterError(f"nonlinearity power must be finite and exceed 1, got {self.p}")
        if not (0.0 < self.omega < np.inf):
            raise InvalidParameterError(f"frequency must be positive and finite, got {self.omega}")
        object.__setattr__(self, "d", int(self.d))

    def with_omega(self, omega: float) -> "ModelParams":
        return ModelParams(self.d, self.a, self.p, omega)


@dataclass(frozen=True)
class StabilityVerdict:
    """Threshold classification: stable below p_c = 1 + 4(1-a)/d, unstable above."""

    threshold: float
    slope_sign: int
    verdict: str        # "Stable" | "Unstable" | "Degenerate"


def require_dimension(params: ModelParams, grid: RadialGrid | LineGrid) -> None:
    """Refuse a grid laid out in another dimension than params.d."""
    if grid.d != params.d:
        raise InvalidParameterError(
            f"grid dimension {grid.d} does not match params dimension {params.d}")


def exists_window(params: ModelParams) -> bool:
    """True iff 1/2 - 1/(p+1) < (1-a)/d, the sharp admissibility window."""
    return 0.5 - 1.0 / (params.p + 1.0) < (1.0 - params.a) / params.d


def critical_power(params: ModelParams) -> float:
    """Stability threshold p_c = 1 + 4(1-a)/d."""
    return 1.0 + 4.0 * (1.0 - params.a) / params.d


def is_degenerate(params: ModelParams) -> bool:
    """True where p sits at the threshold p_c, to relative precision DEGENERATE_BAND."""
    p_c = critical_power(params)
    return abs(params.p - p_c) < DEGENERATE_BAND * p_c


def mass_scaling_exponent(params: ModelParams) -> float:
    """Exponent of the squared-mass law |phi_omega|_2^2 = omega^e |phi_1|_2^2."""
    return 2.0 / (params.p - 1.0) - params.d / (2.0 * (1.0 - params.a))


def classify_by_threshold(params: ModelParams) -> StabilityVerdict:
    """Classify by p against p_c; the verdict does not depend on omega."""
    if not exists_window(params):
        raise InvalidWindowError(f"no solitary waves exist at {params}")
    p_c = critical_power(params)
    if is_degenerate(params):
        return StabilityVerdict(threshold=p_c, slope_sign=0, verdict="Degenerate")
    exponent = mass_scaling_exponent(params)
    sign = 1 if exponent > 0 else -1
    return StabilityVerdict(threshold=p_c, slope_sign=sign,
                            verdict="Stable" if sign > 0 else "Unstable")


def _pchip_end(h0: float, h1: float, m0: float, m1: float) -> float:
    """End slope of the PCHIP: the one-sided three-point estimate, kept in shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x: np.ndarray, y: np.ndarray):
    """Monotone piecewise cubic through (x, y), as scipy 1.17's PchipInterpolator.

    Fritsch-Carlson slopes: 0 at a node where the secants change sign or
    one is 0, else their weighted harmonic mean; the end slopes are
    `_pchip_end`.  Each cell holds the cubic Hermite coefficients c0..c3 of
    CubicHermiteSpline, and a point takes the cell [x_i, x_{i+1}) it lies
    in (the last cell up to and beyond x[-1], the first below x[0]) and sums
    c3 + c2 s + c1 s^2 + c0 s^3 in s = rho - x_i in PPoly's order.  So every
    value is the double scipy gives, with extrapolation.  Needs 3 nodes.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
    dk = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        dk[1:-1][same] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))[same]
    dk[0] = _pchip_end(h[0], h[1], m[0], m[1])
    dk[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (dk[:-1] + dk[1:] - 2 * m) / h
    c0, c1, c2, c3 = t / h, (m - dk[:-1]) / h - t, dk[:-1], y[:-1]

    def value(rho: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(x, rho, side="right") - 1, 0, x.size - 2)
        s = rho - x[i]
        s2 = s * s
        return c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)
    return value


def profile_evaluator(profile: Profile, a: float | None = None):
    """Pointwise evaluator for a positive decaying profile.

    Monotone cubic interpolation of log(phi) between the first and last node
    (preserves positivity and the decay tail; `_pchip`, scipy's PCHIP in
    numpy, so no SciPy subpackage loads); beyond the last node the
    stretched-exponential continuation exp(-c rho^{1-a}) is grafted, anchored
    at the boundary value.  With a=None the tail exponent is fitted from the
    outermost nodes instead.  Raises GridRangeError when the boundary value is
    not yet in the negligible-tail regime (> TAIL_REL of the peak), since
    extrapolation would then be unreliable.  Line profiles are not radial and
    are refused.
    """
    if isinstance(profile.grid, LineGrid):
        raise InvalidParameterError(
            "interpolation needs a radial profile; rescale a line profile on its own grid")
    phi = profile.values
    if np.any(phi <= 0.0):
        raise InvalidParameterError("log interpolation needs a strictly positive profile")
    nodes = profile.grid.nodes
    interp = _pchip(nodes, np.log(phi))
    r_last = nodes[-1]
    phi_last = phi[-1]
    peak = float(np.max(phi))
    if a is None:
        # Empirical log-linear tail rate from the outer 10% of nodes; only
        # values below TAIL_REL * peak ever use it.
        k = max(4, profile.grid.n // 10)
        slope = np.polyfit(nodes[-k:], np.log(phi[-k:]), 1)[0]
        rate, power = max(-slope, 0.0), 1.0
    else:
        rate, power = np.sqrt(profile.omega) / (1.0 - a), 1.0 - a

    def evaluate(rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        out = np.empty_like(rho)
        inside = rho <= r_last
        out[inside] = np.exp(interp(rho[inside]))
        beyond = ~inside
        if np.any(beyond):
            if phi_last > TAIL_REL * peak:
                raise GridRangeError(
                    "rescaled support falls outside the source grid "
                    f"(boundary value {phi_last:.3e} vs peak {peak:.3e})")
            out[beyond] = phi_last * np.exp(
                -rate * (rho[beyond] ** power - r_last ** power))
        return out

    return evaluate


def dilate(profile: Profile, amp: float, stretch: float, omega: float,
           grid: RadialGrid | LineGrid | None = None, a: float | None = None) -> Profile:
    """The samples of amp * u(stretch x), labelled with frequency omega.

    With grid=None they ride on the exactly rescaled grid (same cell layout,
    radii divided by stretch), which keeps every scaling law exact at the
    discrete level; passing a target grid interpolates onto it instead
    (`profile_evaluator`, tail exponent 1 - a, fitted when a is None), at
    stretch |x| on a line: the even extension of the radial wave.
    """
    if grid is None:
        src = profile.grid
        if amp == 1.0 and stretch == 1.0:
            return Profile(grid=src, values=profile.values.copy(), omega=omega,
                           residual=profile.residual)
        return Profile(grid=src.with_r_max(src.r_max / stretch), values=amp * profile.values,
                       omega=omega)
    values = amp * profile_evaluator(profile, a)(stretch * np.abs(grid.nodes))
    return Profile(grid=grid, values=values, omega=omega)


def omega_rescale(profile: Profile, params: ModelParams,
                  grid: RadialGrid | LineGrid | None = None) -> Profile:
    """Map a profile at its own frequency to the wave at params.omega.

    Uses phi_w(rho) = w^{1/(p-1)} phi_1(w^{1/(2(1-a))} rho) with w the
    frequency ratio, on the exactly rescaled grid or interpolated onto grid
    (`dilate`).
    """
    require_dimension(params, profile.grid)
    a, p = params.a, params.p
    ratio = params.omega / profile.omega
    return dilate(profile, ratio ** (1.0 / (p - 1.0)), ratio ** (1.0 / (2.0 * (1.0 - a))),
                  params.omega, grid, a)
