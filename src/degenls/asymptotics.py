"""Tail decay rates and near-origin behavior of computed profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import LineGrid, Profile
from .exceptions import InvalidParameterError, ResolutionInsufficientError, WindowTooShortError
from .model import ModelParams, _power, tail_rate


@dataclass(frozen=True)
class DecayFit:
    """Stretched-exponential tail fit log(phi) ~ c - delta rho^power."""

    delta: float            # rate fitted at the fixed exponent q_fixed = 1 - a
    power: float            # freely fitted exponent
    delta_free: float       # rate belonging to the free-exponent fit
    q_fixed: float          # the imposed exponent 1 - a
    r2: float               # quality of the fixed-exponent fit
    window: tuple[float, float]
    delta_pred: float       # `tail_rate`, sqrt(omega) / (1 - a)


@dataclass(frozen=True)
class OriginReport:
    """Extrapolated origin coefficients against their predicted values.

    slope_coeff is the limit of phi'(rho)/rho^{1-2a}, curv_coeff the limit of
    phi''(rho)/rho^{-2a}; predictions follow from the extrapolated phi(0):
    slope -> -(phi(0)^p - omega phi(0))/d and curvature carries the extra
    factor (2a - 1).
    """

    phi0: float
    slope_coeff: float
    curv_coeff: float
    predicted_slope: float
    predicted_curv: float


def _fit_at_power(log_rho: np.ndarray, ell_c: np.ndarray, ss_tot: float, q: float):
    """Least-squares line log phi ~ c - delta rho^q; returns (delta, residual sum, r2).

    ell_c is log phi less its mean and ss_tot its sum of squares.  With x =
    rho^q = exp(q log rho) centred on its mean, the slope is <x, ell_c>/<x, x>;
    the residual sum is summed from the residuals, which stays accurate when
    the line fits well, where ss_tot - <x, ell_c>^2/<x, x> would cancel.
    """
    x = np.exp(q * log_rho)
    x -= x.mean()
    slope = float(np.dot(x, ell_c) / np.dot(x, x))
    resid = ell_c - slope * x
    ss_res = float(np.dot(resid, resid))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return -slope, ss_res, r2


def fit_decay(profile: Profile, params: ModelParams) -> DecayFit:
    """Two-stage tail fit on the window [0.4, 0.9] r_max.

    Stage one scans the exponent q over a grid and refines the best value by
    parabolic interpolation of the misfit; stage two refits the rate at the
    fixed exponent q = 1 - a predicted by the Agmon weight.  Each fit is the
    closed-form least-squares line in x = rho^q, on log rho taken and log phi
    centred once for all of them.  The last 10% of the grid is excluded as
    Dirichlet-contaminated.  Fewer than 32 positive samples in the window
    raise WindowTooShortError.
    """
    grid = profile.grid
    lo, hi = 0.4 * grid.r_max, 0.9 * grid.r_max
    mask = (grid.nodes >= lo) & (grid.nodes <= hi) & (profile.values > 0.0)
    rho, logphi = grid.nodes[mask], np.log(profile.values[mask])
    if rho.size < 32:
        raise WindowTooShortError(
            f"only {rho.size} usable nodes in the fit window {(lo, hi)}")
    log_rho = np.log(rho)
    ell_c = logphi - logphi.mean()
    ss_tot = float(np.dot(ell_c, ell_c))

    qs = np.linspace(0.05, 1.6, 156)
    misfit = np.array([_fit_at_power(log_rho, ell_c, ss_tot, q)[1] for q in qs])
    k = int(np.argmin(misfit))
    if 0 < k < qs.size - 1:
        # parabolic refinement of the misfit minimum
        y0, y1, y2 = misfit[k - 1], misfit[k], misfit[k + 1]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
        q_free = qs[k] + shift * (qs[1] - qs[0])
    else:
        q_free = qs[k]
    delta_free = _fit_at_power(log_rho, ell_c, ss_tot, q_free)[0]

    q_fixed = 1.0 - params.a
    delta, _, r2 = _fit_at_power(log_rho, ell_c, ss_tot, q_fixed)
    return DecayFit(delta=delta, power=float(q_free), delta_free=delta_free,
                    q_fixed=q_fixed, r2=r2, window=(float(lo), float(hi)),
                    delta_pred=tail_rate(params))


def _shell_means(rho: np.ndarray, values: np.ndarray, base: float):
    """Mean radius/value over the dyadic shells [base, 2 base), [2 base, 4 base), [4 base, 8 base)."""
    radii, means = [], []
    for k in range(3):
        lo, hi = base * 2.0 ** k, base * 2.0 ** (k + 1)
        mask = (rho >= lo) & (rho < hi)
        if int(mask.sum()) < 4:
            raise ResolutionInsufficientError(
                f"shell [{lo:.3e}, {hi:.3e}) holds {int(mask.sum())} < 4 samples")
        radii.append(float(np.mean(rho[mask])))
        means.append(float(np.mean(values[mask])))
    return np.array(radii), np.array(means)


def _richardson(radii: np.ndarray, g: np.ndarray, q: float) -> float:
    """Eliminate the O(rho^q) correction from the two finest shells."""
    ratio = (radii[1] / radii[0]) ** q
    return (ratio * g[0] - g[1]) / (ratio - 1.0)


def origin_asymptotics(profile: Profile, params: ModelParams) -> OriginReport:
    """Extrapolate the origin coefficients over the three finest dyadic shells.

    phi' is evaluated at edge midpoints by differencing; phi'' comes from the
    radial equation solved for phi'' (second differences would amplify noise
    by rho^{-2a}).  Requires the normalized shell sequence to approach its
    limit monotonically, else the grid does not resolve the origin layer.
    The expansion is the radial one, so line profiles are refused.
    """
    if isinstance(profile.grid, LineGrid):
        raise InvalidParameterError("the origin expansion is radial; pass a radial profile")
    d, a, p, omega = params.d, params.a, params.p, params.omega
    grid = profile.grid
    phi = profile.values
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    dphi = np.diff(phi) / np.diff(grid.nodes)
    phi_mid = 0.5 * (phi[:-1] + phi[1:])

    # g -> -(phi(0)^p - omega phi(0))/d, h -> (2a-1)(...)/d as rho -> 0
    g = dphi / mids ** (1.0 - 2.0 * a)
    h = -(d - 1.0 + 2.0 * a) * g - (np.abs(phi_mid) ** (p - 1.0) * phi_mid - omega * phi_mid)

    # The core radius, `model.frequency_stretch` from omega to 1 (spelled here:
    # as that stretch it moves up to 121 ulp near a = 1), sets the shells where the
    # first correction, (rho/core)^{2-2a}, is ~1e-3, subject to the grid floor.
    core = _power(omega, -1.0 / (2.0 * (1.0 - a)), "the core radius")
    base_radius = max(8.0 * grid.nodes[0], core * 1e-3 ** (1.0 / (2.0 - 2.0 * a)))
    radii, g_shell = _shell_means(mids, g, base_radius)
    _, h_shell = _shell_means(mids, h, base_radius)
    _, phi_shell = _shell_means(mids, phi_mid, base_radius)

    # With the correction c2 rho^{2-2a}, the shell sequence approaches its
    # limit from one side with shrinking steps toward the finer shells; a
    # zigzag beyond noise level means the layer is unresolved.
    d1, d2 = g_shell[1] - g_shell[0], g_shell[2] - g_shell[1]
    noise = 1e-10 * max(np.max(np.abs(g_shell)), 1e-300)
    if d1 * d2 < 0.0 and min(abs(d1), abs(d2)) > noise:
        raise ResolutionInsufficientError("origin extrapolation sequence is non-monotone")

    q = 2.0 - 2.0 * a
    slope_fine = _richardson(radii, g_shell, q)
    curv_fine = _richardson(radii, h_shell, q)
    phi0_fine = _richardson(radii, phi_shell, q)

    drive = phi0_fine ** p - omega * phi0_fine
    return OriginReport(
        phi0=float(phi0_fine),
        slope_coeff=float(slope_fine),
        curv_coeff=float(curv_fine),
        predicted_slope=float(-drive / d),
        predicted_curv=float((2.0 * a - 1.0) * drive / d),
    )
