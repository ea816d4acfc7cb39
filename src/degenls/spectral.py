"""Linearized operators about a wave, Morse indices, and the stability classification.

The classification follows the Hamiltonian index count k = n(L) - n0(D):
with L- nonnegative the count reduces to n(L+) minus one whenever the slope
<L+^{-1} phi, phi> is nonpositive, and the wave is spectrally stable exactly
when the count vanishes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import functionals
from .discretization import (LineGrid, Profile, SectorOperator, assemble_operator, weighted_inner,
                             weighted_norm)
from .exceptions import EigensolverError, SingularLPlusError
from .model import ModelParams, critical_power, is_degenerate, mass_scaling_exponent


def sector_list(d: int, l_max: int = 3) -> list[int]:
    """Angular sectors to aggregate: l = 0..l_max for d >= 2, parities for d = 1."""
    return [0, 1] if d == 1 else list(range(l_max + 1))


def assemble_linearized(params: ModelParams, profile: Profile, sector: int,
                        sign: int) -> SectorOperator:
    """L+ (sign=+1, potential omega - p phi^{p-1}) or L- (sign=-1, omega - phi^{p-1})."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 (L+) or -1 (L-)")
    c = params.p if sign > 0 else 1.0
    potential = params.omega - c * np.abs(profile.values) ** (params.p - 1.0)
    return assemble_operator(profile.grid, params.a, sector=sector, potential=potential)


def _eigh(op: SectorOperator, k: int, vectors: bool):
    """k smallest eigenvalues, with weighted-orthonormal eigenvectors when asked for."""
    branches = op.branches()
    if branches is not None:
        # Block diagonal: solve each branch at half the size and keep the k
        # smallest pairs of the union, each vector zero off its branch.
        n = op.grid.half.n
        (vals_l, vecs_l), (vals_r, vecs_r) = (_eigh(b, k, vectors) for b in branches)
        vals = np.concatenate((vals_l, vals_r))
        order = np.argsort(vals, kind="stable")[:k]
        if not vectors:
            return vals[order], None
        vecs = np.zeros((op.grid.n, order.size))
        for j, i in enumerate(order):
            if i < vals_l.size:
                vecs[:n, j] = vecs_l[::-1, i]            # the left branch is mirrored
            else:
                vecs[n:, j] = vecs_r[:, i - vals_l.size]
        return vals[order], vecs
    diag, off = op.sym_tridiagonal()
    try:
        out = eigh_tridiagonal(diag, off, eigvals_only=not vectors, select="i",
                               select_range=(0, min(k, op.grid.n) - 1))
    except np.linalg.LinAlgError as exc:     # pragma: no cover - LAPACK breakdown
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    if not vectors:
        return out, None
    vals, vecs = out
    vecs = vecs / np.sqrt(op.grid.volumes)[:, None]
    norms = np.sqrt(np.sum(op.grid.volumes[:, None] * vecs ** 2, axis=0))
    return vals, vecs / norms


def eigenpairs(op: SectorOperator, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k smallest eigenpairs; eigenvectors are orthonormal in the weighted inner product.

    A full-line operator whose branches decouple (a >= 1/2) is block diagonal
    and is solved branch by branch.
    """
    return _eigh(op, k, vectors=True)


def eigenvalues(op: SectorOperator, k: int) -> np.ndarray:
    """The k smallest eigenvalues alone: those of `eigenpairs`, without the vectors' cost."""
    return _eigh(op, k, vectors=False)[0]


def morse_index(op: SectorOperator, tol_zero: float = 0.0) -> int:
    """Number of eigenvalues below -tol_zero."""
    diag, off = op.sym_tridiagonal()
    try:
        vals = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                                select_range=(-np.inf, -tol_zero))
    except np.linalg.LinAlgError as exc:     # pragma: no cover
        raise EigensolverError(f"tridiagonal eigensolver failed: {exc}") from exc
    return int(vals.size)


@dataclass
class SectorCounts:
    sector: int
    n_plus: int
    n_minus: int
    kernel_plus: int
    lowest_plus: float
    lowest_minus: float


@dataclass
class SpectralReport:
    """Morse counts, L- diagnostics, slope, and the index-count verdict."""

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
        payload = asdict(self)
        payload["sectors"] = [asdict(s) for s in self.sectors]
        return json.dumps(payload, indent=2, sort_keys=True)


def slope_solve(params: ModelParams, profile: Profile, op: SectorOperator | None = None,
                lplus_vals: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Solve L+ v = phi in sector 0 (radial, or the whole line); returns (v, relative residual).

    Raises SingularLPlusError when L+ carries an eigenvalue within 1e-10 of
    zero in that sector (proximity to the degenerate threshold, or an
    unexpected kernel).  op, that L+, and lplus_vals, its smallest
    eigenvalues, spare the assembly and the eigen-solve when the caller has
    them already.
    """
    if op is None:
        op = assemble_linearized(params, profile, sector=0, sign=+1)
    vals = eigenvalues(op, 4) if lplus_vals is None else lplus_vals
    if np.min(np.abs(vals)) < 1e-10:
        raise SingularLPlusError(
            f"L+ sector 0 has a near-zero eigenvalue {vals[np.argmin(np.abs(vals))]:.3e}")
    v = op.solve(profile.values)
    res = weighted_norm(profile.grid, op.apply(v) - profile.values)
    return v, res / weighted_norm(profile.grid, profile.values)


def analytic_slope(params: ModelParams, profile: Profile) -> float:
    """-(1/2) d/domega of the squared mass along the exact frequency-scaling branch."""
    expo = mass_scaling_exponent(params)
    mass = functionals.mass_of(profile.grid, profile.values)
    mass_unit = mass / params.omega ** expo
    return -0.5 * expo * params.omega ** (expo - 1.0) * mass_unit


def slope_and_classify(params: ModelParams, profile: Profile, l_max: int = 3,
                       tol_zero: float | None = None, k_eigs: int = 6) -> SpectralReport:
    """Aggregate Morse indices over sectors, verify the L- structure, classify.

    n0(D) is 1 when the slope <L+^{-1} phi, phi> is nonpositive and 0
    otherwise (the second diagonal entry of D is positive whenever it exists,
    so it never changes the count); k = n(L+) - n0(D) and the wave is
    spectrally stable iff k = 0.  Waves at the threshold power are flagged
    Degenerate.
    """
    grid, phi = profile.grid, profile.values
    if tol_zero is None:
        # Exact zeros (the L- phi mode, translational modes at a = 0) are
        # shifted by the solver residual (Rayleigh bound |defect|_w/|phi|_w,
        # above 1e-8 omega once the profile is kappa-rescaled); the kernel
        # band must cover that or zeros count as negatives.
        tol_zero = 1e-8 * params.omega
        if np.isfinite(profile.residual):
            shift = profile.residual / (np.sqrt(grid.measure) * weighted_norm(grid, phi))
            tol_zero = max(tol_zero, 3.0 * shift)
    sectors = []
    gap_candidates = []
    # The full line is a single sector.
    for sector in [0] if isinstance(grid, LineGrid) else sector_list(grid.d, l_max):
        op_p = assemble_linearized(params, profile, sector, +1)
        op_m = assemble_linearized(params, profile, sector, -1)
        vals_p = eigenvalues(op_p, k_eigs)
        vals_m = eigenvalues(op_m, k_eigs)
        # The tridiagonal eigensolver resolves eigenvalues to O(eps |T|);
        # strongly graded grids push |T| high enough that zero modes read
        # as +-1e-7, so the band widens with the sector's stiffness.
        tol_sector = max(tol_zero,
                         4.0 * np.finfo(float).eps * float(np.max(np.abs(op_p.diag))))
        counts = SectorCounts(
            sector=sector,
            n_plus=int(np.sum(vals_p < -tol_sector)),
            n_minus=int(np.sum(vals_m < -tol_sector)),
            kernel_plus=int(np.sum(np.abs(vals_p) <= tol_sector)),
            lowest_plus=float(vals_p[0]),
            lowest_minus=float(vals_m[0]),
        )
        sectors.append(counts)
        if sector == 0:
            v = slope_solve(params, profile, op=op_p, lplus_vals=vals_p[:4])[0]
            slope = grid.measure * weighted_inner(grid, v, phi)
            lmin_minus = float(vals_m[0])
            mode = eigenpairs(op_m, 1)[1][:, 0]
            cosine = abs(weighted_inner(grid, mode, phi)) / (
                weighted_norm(grid, mode) * weighted_norm(grid, phi))
            gap_candidates.append(float(vals_m[1]))
        else:
            gap_candidates.append(float(vals_m[0]))

    n_plus = sum(s.n_plus for s in sectors)
    n_minus = sum(s.n_minus for s in sectors)
    kernel_plus = sum(s.kernel_plus for s in sectors)
    gap_minus = min(gap_candidates)

    n0_d = 1 if slope <= 0.0 else 0
    k_ham = n_plus - n0_d
    if is_degenerate(params):
        verdict = "Degenerate"
    else:
        verdict = "Stable" if k_ham == 0 else "Unstable"
    return SpectralReport(
        n_plus=n_plus,
        n_minus=n_minus,
        kernel_dim_plus=kernel_plus,
        lmin_minus=lmin_minus,
        minus_cosine=float(cosine),
        gap_minus=gap_minus,
        slope=slope,
        slope_analytic=analytic_slope(params, profile),
        k_ham=k_ham,
        verdict=verdict,
        threshold=critical_power(params),
        sectors=sectors,
    )
