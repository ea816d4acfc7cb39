"""Linearized operators about a wave, Morse indices, and the stability classification.

The classification follows the Hamiltonian index count k = n(L) - n0(D):
with L- nonnegative the count reduces to n(L+) minus one whenever the slope
<L+^{-1} phi, phi> is nonpositive, and the wave is spectrally stable exactly
when the count vanishes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import functionals
from .discretization import (LineGrid, Profile, SectorOperator, assemble_operator, weighted_inner,
                             weighted_norm)
from .exceptions import EigensolverError, SingularLPlusError
from .model import ModelParams, critical_power, is_degenerate, mass_scaling_exponent


def assemble_linearized(params: ModelParams, profile: Profile, sector: int,
                        sign: int) -> SectorOperator:
    """L+ (sign=+1, potential omega - p phi^{p-1}) or L- (sign=-1, omega - phi^{p-1})."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (L+) or -1 (L-)")
    c = params.p if sign > 0 else 1.0
    potential = params.omega - c * np.abs(profile.values) ** (params.p - 1.0)
    return assemble_operator(profile.grid, params.a, sector=sector, potential=potential)


def _band(op: SectorOperator) -> float:
    """4 eps max|diag|: the accuracy of op's computed eigenvalues and Sturm counts.

    Bisection resolves eigenvalues to O(eps |T|), and strongly graded grids
    push |T| high enough that zero modes read as +-1e-7.
    """
    return 4.0 * np.finfo(float).eps * float(np.max(np.abs(op.diag)))


def _bisect(diag: np.ndarray, off: np.ndarray, lower: float, upper: float, tol: float,
            vectors: bool = False):
    """LAPACK bisection (`stebz`, then `stein` for vectors) on the eigenvalues in (lower, upper]."""
    try:
        return eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="v",
                                select_range=(lower, upper), tol=tol)
    except np.linalg.LinAlgError as exc:     # pragma: no cover - LAPACK breakdown
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc


def _count(diag: np.ndarray, off: np.ndarray, lower: float, upper: float) -> int:
    """Number of eigenvalues in (lower, upper], by Sturm count.

    A tolerance wider than the window marks it converged before any
    bisection step, so the call costs a few LDL^T sweeps.
    """
    if upper <= lower:
        return 0
    return int(_bisect(diag, off, lower, upper, tol=2.0 * (upper - lower)).size)


def _window(diag: np.ndarray, off: np.ndarray, lower: float, k: int, band: float,
            known: list[tuple[float, int]]) -> float:
    """Upper end of a window (lower, upper] that holds the k smallest eigenvalues
    and, where counts can tell, no others.

    Starts from the counts already known, (x, number of eigenvalues <= x)
    pairs, and from `lower`, below the whole spectrum; widens by doubling
    steps (the first 1/2, a fraction of the unit frequency; any start is
    correct) until the window holds k; then bisects its top by counts until it
    holds no more than k, or the candidates are closer than the band.  Each
    extra eigenvalue would cost a full bisection, a count only a few sweeps.
    """
    below = max([lower] + [x for x, held in known if held < k])
    enough = [(x, held) for x, held in known if held >= k]
    if enough:
        upper, held = min(enough)
    else:
        upper, held, step = below, 0, 0.5
        while held < k:
            below, upper, step = upper, upper + step, 2.0 * step
            held = _count(diag, off, lower, upper)
    while held > k and upper - below > band:
        mid = 0.5 * (below + upper)
        inside = _count(diag, off, lower, mid)
        if inside >= k:
            upper, held = mid, inside
        else:
            below = mid
    return upper


def _lower(op: SectorOperator) -> float:
    """min(V) less the band: below the spectrum, since the flux part A0 is positive
    semidefinite in the weighted inner product."""
    return (0.0 if op.potential is None else float(np.min(op.potential))) - _band(op)


def _spectrum(op: SectorOperator, k: int = 0, windows: tuple[tuple[float, float], ...] = (),
              vectors: bool = False):
    """Sturm counts on `windows` and the k smallest eigenpairs of op: the one eigen path.

    Returns (counts, vals, vecs): counts[i] is the number of eigenvalues in
    windows[i] = (lo, hi], where lo = -inf stands for the bottom of the
    spectrum; vals are the k smallest eigenvalues, ascending; vecs their
    weighted-orthonormal eigenvectors, or None unless asked for.  Every
    LAPACK call is a select="v" bisection on a window above `_lower`, and no
    eigenvalue the caller does not read is bisected.  A full-line operator
    whose branches decouple (a >= 1/2) has a centre link of exactly 0, where
    LAPACK splits the matrix: its spectrum is the union of the two branches',
    each eigenvector vanishing on the other branch.
    """
    diag, off = op.sym_tridiagonal()
    band, lower = _band(op), _lower(op)
    counts = [_count(diag, off, max(lo, lower), hi) for lo, hi in windows]
    known = [(hi, held) for (lo, hi), held in zip(windows, counts) if lo == -np.inf]
    k = min(k, op.grid.n)
    if k == 0:
        return counts, np.empty(0), np.empty((op.grid.n, 0)) if vectors else None
    out = _bisect(diag, off, lower, _window(diag, off, lower, k, band, known), tol=0.0,
                  vectors=vectors)
    vals = out[0] if vectors else out
    if vals.size < k:                            # pragma: no cover - inconsistent counts
        raise EigensolverError(f"bisection found {vals.size} of {k} eigenvalues in its window")
    if not vectors:
        return counts, vals[:k].copy(), None    # a view would keep LAPACK's length-n w alive
    vals, vecs = vals[:k], out[1][:, :k] / np.sqrt(op.grid.volumes)[:, None]
    norms = np.sqrt(np.sum(op.grid.volumes[:, None] * vecs ** 2, axis=0))
    return counts, vals, vecs / norms


def eigenpairs(op: SectorOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs; eigenvectors are orthonormal in the weighted inner product."""
    _, vals, vecs = _spectrum(op, k, vectors=True)
    return vals, vecs


def eigenvalues(op: SectorOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues alone: those of `eigenpairs`, without the vectors' cost."""
    return _spectrum(op, k)[1]


def morse_index(op: SectorOperator, tol_zero: float) -> int:
    """Number of eigenvalues at or below -tol_zero, by Sturm count."""
    return _spectrum(op, windows=((-np.inf, -tol_zero),))[0][0]


@dataclass
class SectorCounts:
    sector: int
    n_plus: int
    n_minus: int
    kernel_plus: int
    lowest_plus: float
    lowest_minus: float
    tol: float              # kernel band of the counts, also the accuracy of the eigenvalues


@dataclass
class SpectralReport:
    """Morse counts over all sectors, L- diagnostics, slope, and the index-count verdict."""

    n_plus: int
    n_minus: int
    kernel_dim_plus: int
    lmin_minus: float
    minus_cosine: float          # weighted cosine of the lowest L- mode against phi
    gap_minus: float
    slope: float
    slope_analytic: float
    k_ham: int
    verdict: str
    threshold: float
    sectors: list[SectorCounts] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def _tol_zero(params: ModelParams, profile: Profile) -> float:
    """tol_zero: the solver residual's shift of exact zeros, at least 1e-8 omega.

    Exact zeros (the L- phi mode, translational modes at a = 0) are shifted
    by the solver residual (Rayleigh bound |defect|_w/|phi|_w, above 1e-8
    omega once the profile is kappa-rescaled); the kernel band must cover
    that or zeros count as negatives.
    """
    tol_zero = 1e-8 * params.omega
    if np.isfinite(profile.residual):
        grid = profile.grid
        shift = profile.residual / (np.sqrt(grid.measure) * weighted_norm(grid, profile.values))
        tol_zero = max(tol_zero, 3.0 * shift)
    return tol_zero


def _require_regular(kernel: int, tol: float) -> None:
    """Refuse a sector-0 L+ with `kernel` eigenvalues in its kernel band (-tol, tol]."""
    if kernel:
        raise SingularLPlusError(
            f"L+ sector 0 has {kernel} eigenvalue(s) within its kernel band {tol:.3e} of zero")


def slope_solve(params: ModelParams, profile: Profile) -> tuple[np.ndarray, float]:
    """Solve L+ v = phi in sector 0 (radial, or the whole line); returns (v, relative residual).

    Raises SingularLPlusError when a Sturm count finds an eigenvalue of that
    L+ in its kernel band (-tol, tol], tol = max(tol_zero, 4 eps max|diag|),
    the band `slope_and_classify` counts against: proximity to the degenerate
    threshold, or an unexpected kernel.
    """
    op = assemble_linearized(params, profile, sector=0, sign=+1)
    tol = max(_tol_zero(params, profile), _band(op))
    _require_regular(_spectrum(op, windows=((-tol, tol),))[0][0], tol)
    v = op.solve(profile.values)
    res = weighted_norm(profile.grid, op.apply(v) - profile.values)
    return v, res / weighted_norm(profile.grid, profile.values)


def analytic_slope(params: ModelParams, profile: Profile) -> float:
    """-(1/2) d/domega of the squared mass along the exact frequency-scaling branch."""
    expo = mass_scaling_exponent(params)
    mass = functionals.mass_of(profile.grid, profile.values)
    mass_unit = mass / params.omega ** expo
    return -0.5 * expo * params.omega ** (expo - 1.0) * mass_unit


def _last_sector(params: ModelParams, profile: Profile, counts: SectorCounts,
                 tol_zero: float) -> bool:
    """Whether no sector after counts' has an L+ or L- eigenvalue at or below its band.

    The line has one sector and d = 1 two.  For d >= 2 sector l+1's operator is
    sector l's plus the positive barrier (2l+d-1) rho^{2a-2}: by Weyl's
    inequality, once the lowest L+ eigenvalue of a sector l >= 1 exceeds its tol
    every later sector's does, and L- = L+ + (p-1) phi^{p-1} >= L+.  For any
    finite input the sectors end where the barrier at the outermost node,
    l(l+d-2) rho_N^{2a-2}, lifts min(V+) above tol_zero.
    """
    grid, ell = profile.grid, counts.sector
    if grid.d == 1:
        return isinstance(grid, LineGrid) or ell == 1
    v_min = params.omega - params.p * float(np.max(np.abs(profile.values))) ** (params.p - 1.0)
    floor = v_min + ell * (ell + grid.d - 2) * grid.nodes[-1] ** (2.0 * params.a - 2.0)
    return ell >= 1 and (counts.lowest_plus > counts.tol or floor > tol_zero)


def slope_and_classify(params: ModelParams, profile: Profile) -> SpectralReport:
    """Aggregate Morse indices over sectors, verify the L- structure, classify.

    n0(D) is 1 when the slope <L+^{-1} phi, phi> is nonpositive and 0
    otherwise (the second diagonal entry of D is positive whenever it exists,
    so it never changes the count); k = n(L+) - n0(D) and the wave is
    spectrally stable iff k = 0.  Waves at the threshold power are flagged
    Degenerate.

    Counts are Sturm counts, exact and uncapped, taken against the sector's
    kernel band max(tol_zero, 4 eps max|diag(L+)|); the eigenvalues reported
    (the lowest of L+ and L- in each sector, the second of L- in sector 0)
    are bisected to within that band, and no others are computed.  A
    sector-0 L+ eigenvalue inside its band raises SingularLPlusError: the
    slope solve there would be ill-conditioned.  The sectors run l = 0, 1, ...
    until `_last_sector`, so the counts are complete across sectors.
    """
    grid, phi = profile.grid, profile.values
    tol_zero = _tol_zero(params, profile)
    sectors = []
    for sector in itertools.count():
        # One operator at a time: L+ is released before L- is assembled.
        op = assemble_linearized(params, profile, sector, +1)
        tol = max(tol_zero, _band(op))
        (n_plus, n_nonpositive), vals_p, _ = _spectrum(
            op, 1, windows=((-np.inf, -tol), (-np.inf, tol)))
        if sector == 0:
            _require_regular(n_nonpositive - n_plus, tol)
            slope = grid.measure * weighted_inner(grid, op.solve(phi), phi)
        del op
        # Sector 0 also needs the L- mode of phi (its lowest) and the gap past it.
        op = assemble_linearized(params, profile, sector, -1)
        (n_minus,), vals_m, vecs_m = _spectrum(op, 2 if sector == 0 else 1,
                                               windows=((-np.inf, -tol),), vectors=sector == 0)
        del op
        sectors.append(SectorCounts(
            sector=sector, n_plus=n_plus, n_minus=n_minus, kernel_plus=n_nonpositive - n_plus,
            lowest_plus=float(vals_p[0]), lowest_minus=float(vals_m[0]), tol=tol))
        if sector == 0:
            mode = vecs_m[:, 0]
            cosine = abs(weighted_inner(grid, mode, phi)) / (
                weighted_norm(grid, mode) * weighted_norm(grid, phi))
            gap_0 = float(vals_m[1])
        if _last_sector(params, profile, sectors[-1], tol_zero):
            break

    n_plus = sum(s.n_plus for s in sectors)
    gap_minus = min([gap_0] + [s.lowest_minus for s in sectors[1:]])
    k_ham = n_plus - (1 if slope <= 0.0 else 0)     # n(L+) - n0(D)
    verdict = "Degenerate" if is_degenerate(params) else "Stable" if k_ham == 0 else "Unstable"
    return SpectralReport(
        n_plus=n_plus, n_minus=sum(s.n_minus for s in sectors),
        kernel_dim_plus=sum(s.kernel_plus for s in sectors), lmin_minus=sectors[0].lowest_minus,
        minus_cosine=float(cosine), gap_minus=gap_minus, slope=slope,
        slope_analytic=analytic_slope(params, profile), k_ham=k_ham, verdict=verdict,
        threshold=critical_power(params), sectors=sectors)
