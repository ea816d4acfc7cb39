"""Linearized operators about a wave, Morse indices, and the stability classification.

The classification follows the Hamiltonian index count k = n(L) - n0(D):
with L- nonnegative the count reduces to n(L+) minus one whenever the slope
<L+^{-1} phi, phi> is nonpositive, and the wave is spectrally stable exactly
when the count vanishes.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, get_lapack_funcs

from . import functionals
from .discretization import (LineGrid, Profile, SectorOperator, assemble_operator, weighted_inner,
                             weighted_norm)
from .exceptions import EigensolverError, InvalidParameterError, SingularLPlusError
from .model import (ModelParams, critical_power, is_degenerate, mass_scaling_exponent,
                    require_dimension)

INVERSE_SOLVES = 3      # solves of inverse iteration a vector


def assemble_linearized(params: ModelParams, profile: Profile, sector: int,
                        sign: int) -> SectorOperator:
    """L+ (sign=+1, potential omega - p phi^{p-1}) or L- (sign=-1, omega - phi^{p-1})."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (L+) or -1 (L-)")
    c = params.p if sign > 0 else 1.0
    potential = params.omega - c * np.abs(profile.values) ** (params.p - 1.0)
    return assemble_operator(profile.grid, params.a, sector=sector, potential=potential)


def _bisect(diag: np.ndarray, off: np.ndarray, lower: float, upper: float,
            tol: float) -> np.ndarray:
    """LAPACK bisection (`stebz`) for the eigenvalues in (lower, upper], ascending."""
    try:
        return eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                select_range=(lower, upper), tol=tol)
    except np.linalg.LinAlgError as exc:     # pragma: no cover - LAPACK breakdown
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc


def _inverse_iteration(op: SectorOperator, vals: np.ndarray, band: float) -> np.ndarray:
    """Weighted-orthonormal eigenvectors of op at its eigenvalues vals, one a column.

    A vector is INVERSE_SOLVES solves from a seeded random start with the
    factors of op - lambda I (`SectorOperator.factor`), or of
    op - (lambda + band) I where that has a zero pivot.  Each iterate is made
    orthogonal, in the weighted inner product, to the vectors before it:
    that keeps the vectors of near-equal eigenvalues apart and costs the
    others nothing.  A decoupled line's vector is cut to the branch that
    holds most of it.  The sign is LAPACK `stein`'s: the largest component of
    W^{1/2} v is positive.  An iterate that overflows raises EigensolverError.
    """
    grid = op.grid
    w, root_w = grid.volumes, np.sqrt(grid.volumes)
    rng = np.random.default_rng(1)
    vecs = np.empty((grid.n, vals.size))
    for j, lam in enumerate(vals):
        try:
            solve = op.factor(1.0, -lam)
        except LinAlgError:     # a pivot of exactly 0: shift off it, as `stein` does
            solve = op.factor(1.0, -(lam + band))
        x, done = rng.uniform(-1.0, 1.0, grid.n), vecs[:, :j]
        for _ in range(INVERSE_SOLVES):
            x = solve(x)
            x -= done @ (done.T @ (w * x))
            x /= np.sqrt(np.dot(w * x, x))
        if op.decoupled:
            x[min(grid.branch(-1), grid.branch(+1),
                  key=lambda side: np.dot(w[side] * x[side], x[side]))] = 0.0
            x /= np.sqrt(np.dot(w * x, x))
        if not np.isfinite(x).all():
            raise EigensolverError(f"inverse iteration at {lam:.6e} overflowed")
        top = np.argmax(np.abs(root_w * x))
        vecs[:, j] = -x if x[top] < 0.0 else x
    return vecs


def _count_below(diag: np.ndarray, off: np.ndarray, x: float) -> int:
    """Number of eigenvalues <= x of the symmetric tridiagonal (diag, off): the
    nonpositive pivots of T - xI = LDL^T (Sylvester's law of inertia).

    LAPACK ?pttrf factors up to its first nonpositive pivot D_k; the sweep
    resumes past it from the Schur complement d_{k+1} - x - e_k^2 / D_k, a
    zero pivot read as -pivmin as LAPACK's `dlaebz` reads it.  So a count
    costs one sweep and one ?pttrf call per eigenvalue at or below x, and
    allocates two length-n arrays.  Pivots are read from the array ?pttrf
    returns, which f2py may have copied.
    """
    pttrf = get_lapack_funcs("pttrf", dtype=float)
    d, e = diag - x, off.copy()
    start, held = 0, 0
    while start < d.size - 1:          # f2py refuses the empty off-diagonal of a 1x1
        pivots, _, info = pttrf(d[start:], e[start:], overwrite_d=1, overwrite_e=1)
        if info == 0:
            return held
        held, k = held + 1, start + info - 1
        if k == d.size - 1:
            return held
        pivot = pivots[info - 1]
        if pivot == 0.0:
            pivot = -np.finfo(float).tiny * max(1.0, float(np.max(off ** 2)))
        d[k + 1] = (diag[k + 1] - x) - off[k] ** 2 / pivot
        start = k + 1
    return held + int(d[-1] <= 0.0)


class _Sturm:
    """Sturm counts and bisections on one operator's symmetric tridiagonal: the one eigen path.

    `band`, 4 eps max|diag|, is the accuracy of the computed eigenvalues and
    counts: bisection resolves eigenvalues to O(eps |T|), and strongly
    graded grids push |T| high enough that zero modes read as +-1e-7.
    `lower`, min(V) less the band, lies below the spectrum, since the flux
    part A0 is positive semidefinite in the weighted inner product.  A count
    is one LDL^T sweep (`_count_below`) from the bottom of the spectrum, none
    at or below `lower`, where no eigenvalue lies; a bisection is a
    select="v" `stebz` call (`_bisect`, tol 0) that resolves the eigenvalues
    in its window above `lower` to the band.  `known` keeps every count the
    caller took as an (x, number of eigenvalues <= x) pair, (lower, 0) among
    them; `work` tallies the sweeps as "sturm_counts" and the LAPACK calls as
    "bisections", and may be shared by several operators' paths.  A
    full-line operator whose branches decouple (a >= 1/2) has a centre link
    of exactly 0, where the pivots restart and LAPACK splits the matrix: its
    spectrum is the union of the two branches', and each eigenvector is cut
    to vanish on the other branch.  A non-finite entry raises
    InvalidParameterError: a sweep would read a NaN pivot as positive and
    count too few.
    """

    def __init__(self, op: SectorOperator, work: Counter | None = None):
        self.op, self.grid = op, op.grid
        self.diag, self.off = op.sym_tridiagonal()
        if not (np.isfinite(self.diag).all() and np.isfinite(self.off).all()):
            raise InvalidParameterError("the operator has a non-finite entry")
        self.band = 4.0 * np.finfo(float).eps * float(np.max(np.abs(self.diag)))
        self.lower = (0.0 if op.potential is None else float(np.min(op.potential))) - self.band
        self.known = [(self.lower, 0)]
        self.work = Counter() if work is None else work

    def count(self, x: float) -> int:
        """Number of eigenvalues <= x; the count joins `known`."""
        held = self._count(x)
        self.known.append((x, held))
        return held

    def _count(self, x: float) -> int:
        if x <= self.lower:
            return 0
        self.work["sturm_counts"] += 1
        return _count_below(self.diag, self.off, x)

    def _window(self, k: int) -> float:
        """Upper end of a window that holds the k smallest eigenvalues and, where
        counts can tell, no others.

        Starts from the known counts; widens by doubling steps (the first 1/2,
        a fraction of the unit frequency; any start is correct) until the
        window holds k; then bisects its top by counts until it holds no more
        than k, or the candidates are closer than the band.  Each extra
        eigenvalue would cost a full bisection, a count one LDL^T sweep.
        """
        below = max(x for x, held in self.known if held < k)
        enough = [(x, held) for x, held in self.known if held >= k]
        if enough:
            upper, held = min(enough)
        else:
            upper, held, step = below, 0, 0.5
            while held < k:
                below, upper, step = upper, upper + step, 2.0 * step
                held = self._count(upper)
        while held > k and upper - below > self.band:
            mid = 0.5 * (below + upper)
            inside = self._count(mid)
            if inside >= k:
                upper, held = mid, inside
            else:
                below = mid
        return upper

    def values(self, k: int, first: int = 0, vectors: bool = False):
        """Eigenvalues first+1..k of op, ascending, and their weighted-orthonormal
        eigenvectors (`_inverse_iteration`), or None unless asked for.

        One bisection on (bottom, upper]: `upper` from `_window`, `bottom` the
        highest point in `known` with at most `first` eigenvalues at or below
        it, so the bisection covers the eigenvalues asked for and, where the
        counts cannot pin them, the few below.  The window search's own
        counts only place `upper`: `eigenpairs` and `eigenvalues`, which count
        nothing first, bisect from `lower`.  `stebz` counts again by its own
        recurrence, so an eigenvalue within rounding of a window end can fall
        outside the window by its count and inside by ours.  A bracket that
        returns fewer eigenvalues than the counts say it holds is bisected
        once more with both ends widened by the band, the bottom recounted
        unless it is `lower`; still short, it raises EigensolverError.
        """
        k = min(k, self.grid.n)
        if k <= first:
            return np.empty(0), np.empty((self.grid.n, 0)) if vectors else None
        upper = self._window(k)
        bottom, held = max((x, held) for x, held in self.known if held <= first)
        for retry in (False, True):
            if retry:
                if bottom > self.lower:
                    bottom -= self.band
                    held = self._count(bottom)
                upper += self.band
            vals = _bisect(self.diag, self.off, bottom, upper, tol=0.0)
            self.work["bisections"] += 1
            if vals.size >= k - held:
                break
        else:
            raise EigensolverError(
                f"bisection found {vals.size} eigenvalues on ({bottom:.6e}, {upper:.6e}], "
                f"where counts put {k - held} of those asked for")
        # A copy: a view would keep LAPACK's length-n w alive.
        vals = vals[first - held:k - held].copy()
        return vals, _inverse_iteration(self.op, vals, self.band) if vectors else None


def eigenpairs(op: SectorOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs; eigenvectors are orthonormal in the weighted inner product."""
    return _Sturm(op).values(k, vectors=True)


def eigenvalues(op: SectorOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues alone: those of `eigenpairs`, without the vectors' cost."""
    return _Sturm(op).values(k)[0]


def morse_index(op: SectorOperator, tol_zero: float) -> int:
    """Number of eigenvalues at or below -tol_zero, by Sturm count."""
    return _Sturm(op).count(-tol_zero)


@dataclass
class SectorCounts:
    sector: int
    n_plus: int
    n_minus: int
    kernel_plus: int
    lowest_plus: float
    lowest_minus: float
    tol: float              # kernel band of the counts, also the accuracy of the eigenvalues
    sturm_counts: int       # Sturm counts (?pttrf sweeps) made on the sector's L+ and L-
    bisections: int         # LAPACK bisections made on the sector's L+ and L-


@dataclass
class SpectralReport:
    """Morse counts over all sectors, L- diagnostics, slope, and the index-count verdict."""

    n_plus: int
    n_minus: int
    kernel_dim_plus: int
    lmin_minus: float
    minus_cosine: float          # certified lower bound on the weighted cosine of the
                                 # lowest L- mode against phi; 0.0 when uncertified
    minus_residual: float        # |L- phi - rho phi|_w / |phi|_w, rho phi's Rayleigh quotient
    minus_certified: bool        # one L- eigenvalue in (-tol, tol], none below, rho <= tol
    gap_minus: float
    slope: float
    slope_analytic: float
    k_ham: int
    verdict: str
    threshold: float
    sectors: list[SectorCounts] = field(default_factory=list)


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
    sturm = _Sturm(op)
    tol = max(_tol_zero(params, profile), sturm.band)
    _require_regular(sturm.count(tol) - sturm.count(-tol), tol)
    v = op.factor()(profile.values)
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


def _minus_mode(op: SectorOperator, sturm: _Sturm, phi: np.ndarray, tol: float, n_minus: int):
    """The lowest sector-0 L- eigenvalue, the second, and phi's certificate for the first.

    Returns (certified, lowest, second, residual, cosine).  phi's Rayleigh
    quotient rho and residual eps = |L- phi - rho phi|_w / |phi|_w take one
    `apply`.  The certificate holds when none of the eigenvalues lies at or
    below -tol (n_minus = 0), a Sturm count puts exactly one, lambda_1, in
    (-tol, tol], and rho <= tol.  Then the lowest is reported as rho and only
    lambda_2 is bisected: Kato-Temple puts lambda_1 in
    [rho - eps^2 / (lambda_2 - rho), rho], and Davis-Kahan bounds the angle
    between phi and the mode by sin <= eps / (lambda_2 - rho), so
    sqrt(1 - sin^2) is a lower bound on their cosine (Parlett, The Symmetric
    Eigenvalue Problem, ch. 10-11).  Otherwise lambda_1 and lambda_2 are
    both bisected and the cosine is 0.0.
    """
    grid = op.grid
    l_phi = op.apply(phi)
    norm_sq = weighted_inner(grid, phi, phi)
    rho = weighted_inner(grid, l_phi, phi) / norm_sq
    residual = weighted_norm(grid, l_phi - rho * phi) / np.sqrt(norm_sq)
    certified = n_minus == 0 and sturm.count(tol) == 1 and rho <= tol
    if not certified:
        (lowest, second), _ = sturm.values(2)
        return False, float(lowest), float(second), residual, 0.0
    (second,), _ = sturm.values(2, first=1)
    sine = residual / (second - rho)            # second > tol >= rho
    return True, rho, float(second), residual, float(np.sqrt(max(0.0, 1.0 - sine ** 2)))


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
    are bisected to within that band, and no others are computed.  Each
    bisection starts at the highest counted point below the eigenvalues it
    reports.  The lowest sector-0 L- eigenvalue is not bisected where phi
    certifies it (`_minus_mode`): it is phi's Rayleigh quotient, and
    `minus_cosine` is the Davis-Kahan lower bound on phi's cosine with its
    mode.  A sector-0 L+ eigenvalue inside its band raises
    SingularLPlusError: the slope solve there would be ill-conditioned.  The
    sectors run l = 0, 1, ... until `_last_sector`, so the counts are
    complete across sectors.
    """
    require_dimension(params, profile.grid)
    grid, phi = profile.grid, profile.values
    tol_zero = _tol_zero(params, profile)
    sectors = []
    for sector in itertools.count():
        # One operator at a time: L+ is released before L- is assembled.
        op = assemble_linearized(params, profile, sector, +1)
        work = Counter()
        plus = _Sturm(op, work)
        tol = max(tol_zero, plus.band)
        n_plus, n_nonpositive = plus.count(-tol), plus.count(tol)
        (lowest_plus,), _ = plus.values(1)
        if sector == 0:
            _require_regular(n_nonpositive - n_plus, tol)
            slope = grid.measure * weighted_inner(grid, op.factor()(phi), phi)
        del op, plus
        op = assemble_linearized(params, profile, sector, -1)
        minus = _Sturm(op, work)
        n_minus = minus.count(-tol)
        if sector == 0:
            certified, lowest_minus, gap_0, residual, cosine = _minus_mode(
                op, minus, phi, tol, n_minus)
        else:
            (lowest_minus,), _ = minus.values(1)
        del op, minus
        sectors.append(SectorCounts(
            sector=sector, n_plus=n_plus, n_minus=n_minus, kernel_plus=n_nonpositive - n_plus,
            lowest_plus=float(lowest_plus), lowest_minus=float(lowest_minus), tol=tol,
            sturm_counts=work["sturm_counts"], bisections=work["bisections"]))
        if _last_sector(params, profile, sectors[-1], tol_zero):
            break

    n_plus = sum(s.n_plus for s in sectors)
    gap_minus = min([gap_0] + [s.lowest_minus for s in sectors[1:]])
    k_ham = n_plus - (1 if slope <= 0.0 else 0)     # n(L+) - n0(D)
    verdict = "Degenerate" if is_degenerate(params) else "Stable" if k_ham == 0 else "Unstable"
    return SpectralReport(
        n_plus=n_plus, n_minus=sum(s.n_minus for s in sectors),
        kernel_dim_plus=sum(s.kernel_plus for s in sectors), lmin_minus=sectors[0].lowest_minus,
        minus_cosine=cosine, minus_residual=residual, minus_certified=certified,
        gap_minus=gap_minus, slope=slope, slope_analytic=analytic_slope(params, profile),
        k_ham=k_ham, verdict=verdict, threshold=critical_power(params), sectors=sectors)
