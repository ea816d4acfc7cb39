"""Graded radial grids and the conservative discretization of -div(|x|^{2a} grad).

All radial integrals here are plain half-line quadratures against the cell
volumes w_i = (rho_{i+1/2}^d - rho_{i-1/2}^d)/d, i.e. they approximate
integral f(|x|) dx divided by the surface area of the unit sphere.  The
functionals module reinstates that constant (the grid's `measure`) where
full-space values are reported.

A `LineGrid` lays the d = 1 problem out on the whole line instead: a radial
grid and its mirror image, coupled through the origin, for fields that need
not be even.  Its integrals are plain integrals over R (measure 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .exceptions import InvalidParameterError

MIN_CELLS = 16      # fewest cells a grid (or each side of a line) may have


def sphere_area(d: int) -> float:
    """|S^{d-1}| = 2 pi^{d/2} / Gamma(d/2); equals 2 for d = 1."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass(frozen=True)
class RadialGrid:
    """Cell-centered radial mesh on (0, r_max] with a power-law edge layout.

    Edges sit at (j/N)^gamma * r_max, so the first edge is exactly 0 and the
    last exactly r_max; nodes are arithmetic cell centers.  gamma > 1
    concentrates cells near the origin.
    """

    d: int
    nodes: np.ndarray
    edges: np.ndarray
    volumes: np.ndarray
    gamma: float
    r_max: float

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def measure(self) -> float:
        """Factor that turns a cell-volume quadrature into a full-space integral."""
        return sphere_area(self.d)

    def with_r_max(self, r_max: float) -> "RadialGrid":
        """The same cell layout with all radii scaled to the new domain size."""
        return build_grid(self.d, r_max, self.n, self.gamma)

    def spacings(self) -> np.ndarray:
        """Node-to-node gaps, length N+1: [rho_1 - 0, rho_2 - rho_1, ..., r_max - rho_N]."""
        full = np.empty(self.n + 1)
        full[0] = self.nodes[0]
        full[1:-1] = np.diff(self.nodes)
        full[-1] = self.r_max - self.nodes[-1]
        return full


@dataclass(frozen=True)
class LineGrid:
    """The d = 1 full line (-r_max, r_max): a radial grid and its mirror image.

    Cells run left to right, x = -rho_N, ..., -rho_1, rho_1, ..., rho_N, so a
    field has 2N samples and `branch` picks out the cells on one side of the
    origin.  Nodes are signed positions; integrals carry measure 1.
    """

    half: RadialGrid
    nodes: np.ndarray
    volumes: np.ndarray

    d = 1
    measure = 1.0

    @classmethod
    def mirror(cls, half: RadialGrid) -> "LineGrid":
        """The line made of a d = 1 radial grid and its mirror image."""
        if half.d != 1:
            raise InvalidParameterError(f"a line grid mirrors a d = 1 grid, got d = {half.d}")
        return cls(half=half, nodes=np.concatenate((-half.nodes[::-1], half.nodes)),
                   volumes=np.concatenate((half.volumes[::-1], half.volumes)))

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_max(self) -> float:
        return self.half.r_max

    @property
    def gamma(self) -> float:
        return self.half.gamma

    def branch(self, side: int) -> slice:
        """Cells with sign(x) = side (+1 or -1)."""
        return slice(self.half.n, None) if side > 0 else slice(None, self.half.n)

    def with_r_max(self, r_max: float) -> "LineGrid":
        return LineGrid.mirror(self.half.with_r_max(r_max))


@dataclass
class Profile:
    """Real field sampled on a grid (radial or full line); candidate or converged wave."""

    grid: RadialGrid | LineGrid
    values: np.ndarray
    omega: float
    residual: float = field(default=np.nan)
    phi0: float | None = None    # central value, when the solver knows it


def build_grid(d: int, r_max: float, n: int, gamma: float = 1.0) -> RadialGrid:
    """Build the graded radial grid; rejects degenerate inputs."""
    if not (d >= 1 and float(d).is_integer()):
        raise InvalidParameterError(f"dimension must be a positive integer, got {d}")
    if not (r_max > 0.0):
        raise InvalidParameterError(f"r_max must be positive, got {r_max}")
    if not (n >= MIN_CELLS and float(n).is_integer()):
        raise InvalidParameterError(f"need a whole number of at least {MIN_CELLS} cells, got {n}")
    if not (gamma >= 1.0):
        raise InvalidParameterError(f"grading exponent must be >= 1, got {gamma}")
    edges = (np.arange(n + 1, dtype=float) / n) ** gamma * r_max
    nodes = 0.5 * (edges[:-1] + edges[1:])
    volumes = (edges[1:] ** d - edges[:-1] ** d) / d
    if not (np.all(np.diff(edges) > 0.0) and np.all(volumes > 0.0)):
        raise InvalidParameterError("degenerate grid: edges must strictly increase")
    return RadialGrid(d=int(d), nodes=nodes, edges=edges, volumes=volumes,
                      gamma=float(gamma), r_max=float(r_max))


def build_line_grid(r_max: float, n: int, gamma: float = 1.0) -> LineGrid:
    """Full-line grid on (-r_max, r_max) from n graded cells on each side."""
    return LineGrid.mirror(build_grid(1, r_max, n, gamma))


def _radial_flux(grid: RadialGrid, a: float, sector: int) -> np.ndarray:
    """Edge coefficients of the radial operator, closures included (length N+1).

    Entry j belongs to edge j+1/2 (j = 0..N).  Interior edges carry
    s_{i+1/2} = rho_{i+1/2}^m / (rho_{i+1} - rho_i), m = d-1+2a; the outer
    closure is homogeneous Dirichlet, ghost value 0 at r_max.  The origin
    closure is zero flux (the proven limit of rho^{d+2a-1} phi'), except in
    the d = 1 odd parity sector, where the value is pinned to 0 at rho = 0:
    the exact steady flux through (0, rho_1), s = (1-m) / rho_1^{1-m}, for
    m < 1 (the standard ghost-node 1/rho_1 at a = 0).  For m >= 1 the origin
    carries no capacity and the pinned value is invisible (zero flux).
    """
    m = grid.d - 1 + 2.0 * a
    gaps = grid.spacings()
    s = np.zeros(grid.n + 1)
    s[1:-1] = grid.edges[1:-1] ** m / gaps[1:-1]
    s[-1] = grid.r_max ** m / gaps[-1]
    if grid.d == 1 and sector == 1 and m < 1.0:
        s[0] = (1.0 - m) / grid.nodes[0] ** (1.0 - m)
    return s


def _line_flux(grid: LineGrid, a: float) -> np.ndarray:
    """Edge coefficients of the full-line operator, closures included (length 2N+1).

    The centre link between -rho_1 and rho_1 is the exact steady flux through
    (-rho_1, rho_1) for the weight |x|^m, m = 2a: (1-m) / (2 rho_1^{1-m}) for
    m < 1.  There the other edges are exact steady fluxes too, the harmonic
    means 1 / integral |x|^{-m} dx over each gap: unlike the radial edge value
    rho_{i+1/2}^m / gap they stay exact across the |x|^{-2a} derivative layer
    that the transmitted flux leaves at the origin.  For m >= 1 the origin has
    no transmission capacity: the centre link is zero, nothing crosses, and
    each branch carries the coefficients of the radial (even) operator, so a
    wave on one branch is the radial wave.  The outer closures are
    homogeneous Dirichlet at +-r_max.
    """
    m = 2.0 * a
    if m >= 1.0:
        side = _radial_flux(grid.half, a, 0)[1:]
        return np.concatenate((side[::-1], [0.0], side))
    rho = np.append(grid.half.nodes, grid.r_max)
    ratio = np.log1p(np.diff(rho) / rho[:-1])          # log(rho_{i+1} / rho_i)
    side = (1.0 - m) / (rho[:-1] ** (1.0 - m) * np.expm1((1.0 - m) * ratio))
    centre = (1.0 - m) / (2.0 * rho[0] ** (1.0 - m))
    return np.concatenate((side[::-1], [centre], side))


def _require_fields(grid: RadialGrid | LineGrid, *fields: np.ndarray) -> None:
    """Refuse a field not sampled at the grid's nodes, where NumPy would broadcast or raise."""
    for u in fields:
        if np.shape(u) != grid.nodes.shape:
            raise InvalidParameterError(
                f"field of shape {np.shape(u)} does not match the grid's {grid.nodes.shape}")


@dataclass
class SectorOperator:
    """Tridiagonal form of -div(|x|^{2a} grad) + potential on one sector.

    Row i reads (A u)_i = (1/w_i)[s_{i-1/2}(u_i - u_{i-1}) + s_{i+1/2}(u_i - u_{i+1})]
    + V_i u_i, with ghost values 0 beyond both boundary edges; V, the
    potential, includes the angular barrier l(l+d-2) rho^{2a-2} of sector l.
    Self-adjoint in the volume-weighted inner product.  Full-space integrals
    against op take their constant from its grid, `op.grid.measure`.
    """

    grid: RadialGrid | LineGrid
    flux: np.ndarray            # s_{j+1/2}, length N+1; [0] and [-1] are the closures
    diag: np.ndarray            # (s_{i-1/2} + s_{i+1/2}) / w_i + V_i
    potential: np.ndarray | None = None     # V at nodes; None where it vanishes

    @property
    def decoupled(self) -> bool:
        """Whether op is a line operator whose centre link is 0: its branches do not couple."""
        return isinstance(self.grid, LineGrid) and self.flux[self.grid.half.n] == 0.0

    def apply(self, u: np.ndarray) -> np.ndarray:
        # Flux form: differencing u first avoids the catastrophic cancellation
        # the row form suffers in the stiff near-origin cells.
        w = self.grid.volumes
        s = self.flux
        t = np.empty(self.grid.n + 1, dtype=np.result_type(u, float))
        t[0] = s[0] * u[0]
        t[1:-1] = s[1:-1] * np.diff(u)
        t[-1] = -s[-1] * u[-1]
        out = (t[:-1] - t[1:]) / w
        if self.potential is not None:
            out += self.potential * u
        return out

    def quad_form(self, u: np.ndarray) -> float:
        """<A u, u>_w, valid for real or complex samples."""
        s = self.flux
        du = np.diff(u)
        val = np.sum(s[1:-1] * np.abs(du) ** 2)
        val += s[0] * abs(u[0]) ** 2 + s[-1] * abs(u[-1]) ** 2
        if self.potential is not None:
            val += np.sum(self.grid.volumes * self.potential * np.abs(u) ** 2)
        return float(val)

    def gradient_energy(self, u: np.ndarray) -> float:
        """Discrete integral rho^{d-1+2a} |u'|^2 d rho over interior edges.

        Matches the quadratic form of the sector-0 operator whenever the field
        vanishes at the outer boundary (the Dirichlet term s_{N+1/2} |u_N|^2 is
        the only difference, and it is dropped here so constants carry zero
        gradient energy).  On a line grid the interior edges include the centre
        link, so this is integral |x|^{2a} |u'|^2 dx over R.
        """
        _require_fields(self.grid, u)
        return float(np.sum(self.flux[1:-1] * np.abs(np.diff(u)) ** 2))

    def sym_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Similarity transform W^{1/2} A W^{-1/2}: symmetric (diag, offdiag) pair.

        diag is op's own array, not a copy, so that a spectral call holds one
        length-n array less: read it, do not write it.
        """
        w = self.grid.volumes
        off = -self.flux[1:-1] / np.sqrt(w[:-1] * w[1:])
        return self.diag, off

    def factor(self, scale: complex = 1.0, shift: complex | np.ndarray = 0.0):
        """Factor scale A + shift I once (LAPACK ?gttrf, partial pivoting); returns its solve.

        The solve, rhs -> x, is one ?gttrs on the factors and leaves rhs as it
        was.  shift may be an array, one entry a row.  A singular factor
        raises LinAlgError.
        """
        w, off = self.grid.volumes, -self.flux[1:-1]
        dtype = np.result_type(scale, shift, float)
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), dtype=dtype)
        *lu, info = gttrf(scale * (off / w[1:]), scale * self.diag + shift, scale * (off / w[:-1]))
        if info != 0:
            raise LinAlgError("singular matrix")
        return lambda rhs: gttrs(*lu, rhs)[0]


def assemble_operator(grid: RadialGrid | LineGrid, a: float, sector: int = 0,
                      potential: np.ndarray | None = None) -> SectorOperator:
    """Assemble the sector operator with zero-flux origin and Dirichlet outer closure.

    For d = 1 the sectors are parity classes: sector 0 is even (zero flux at
    the origin), sector 1 is odd (value pinned to 0 at the origin).  For
    d >= 2, sector is the angular index l >= 0 and the barrier l(l+d-2)
    rho^{2a-2} joins the potential.  A `LineGrid` has a single sector, 0: the
    whole line, its branches coupled through the origin (`_line_flux`).
    """
    if not (0.0 <= a < 1.0):
        raise InvalidParameterError(f"degeneracy exponent must satisfy 0 <= a < 1, got {a}")
    if not (sector >= 0 and float(sector).is_integer()):
        raise InvalidParameterError(f"sector index must be a nonnegative integer, got {sector}")
    if grid.d == 1 and sector > 1:
        raise InvalidParameterError("d = 1 has only parity sectors; use sector 0 (even) or 1 (odd)")
    if isinstance(grid, LineGrid) and sector != 0:
        raise InvalidParameterError("the full line has a single sector; use sector 0")
    if potential is not None:
        potential = np.asarray(potential, dtype=float)
        if potential.shape != grid.nodes.shape:
            raise InvalidParameterError("potential length does not match the grid")
    flux = _line_flux(grid, a) if isinstance(grid, LineGrid) else _radial_flux(grid, a, sector)
    ell = int(sector)
    coeff = ell * (ell + grid.d - 2)
    barrier = coeff * grid.nodes ** (2.0 * a - 2.0) if coeff else None
    diag = (flux[:-1] + flux[1:]) / grid.volumes
    for term in (barrier, potential):
        if term is not None:
            diag += term
    if barrier is not None:
        potential = barrier if potential is None else barrier + potential
    return SectorOperator(grid=grid, flux=flux, diag=diag, potential=potential)


def weighted_inner(grid: RadialGrid | LineGrid, u: np.ndarray, v: np.ndarray) -> float:
    """<u, v>_w = sum_i w_i u_i conj(v_i) (real result for real inputs)."""
    _require_fields(grid, u, v)
    val = np.sum(grid.volumes * u * np.conjugate(v))
    return float(val.real) if np.iscomplexobj(val) else float(val)


def weighted_norm(grid: RadialGrid | LineGrid, u: np.ndarray) -> float:
    """|u|_w = sqrt(sum_i w_i |u_i|^2)."""
    _require_fields(grid, u)
    return float(np.sqrt(np.sum(grid.volumes * np.abs(u) ** 2)))


def gradient_energy(grid: RadialGrid | LineGrid, a: float, u: np.ndarray) -> float:
    """Discrete integral rho^{d-1+2a} |u'|^2 d rho: see `SectorOperator.gradient_energy`."""
    return assemble_operator(grid, a).gradient_energy(u)
