import numpy as np
import pytest
from scipy.linalg import solve_banded

import degenls as dl
from degenls.exceptions import InvalidParameterError
from tests.conftest import band, sech_values


def test_uniform_grid_layout():
    g = dl.build_grid(1, 10.0, 20, 1.0)
    assert np.allclose(g.edges, 0.5 * np.arange(21))
    assert np.allclose(g.nodes, 0.25 + 0.5 * np.arange(20))
    assert g.volumes.sum() == pytest.approx(10.0, abs=1e-14)


@pytest.mark.parametrize("d,gamma", [(1, 1.0), (2, 2.0), (3, 1.0), (3, 2.5)])
def test_volume_telescoping(d, gamma):
    g = dl.build_grid(d, 7.0, 64, gamma)
    assert g.volumes.sum() == pytest.approx(7.0 ** d / d, rel=1e-14)
    assert np.all(np.diff(g.edges) > 0)
    assert np.all((g.nodes > g.edges[:-1]) & (g.nodes < g.edges[1:]))


def test_graded_nodes_cluster_at_origin():
    g = dl.build_grid(1, 10.0, 1024, 2.0)
    # power-law edges with centered nodes: rho_1/rho_2 = 1/5 for gamma = 2
    assert g.nodes[0] / g.nodes[1] == pytest.approx(0.2, rel=1e-12)
    assert g.nodes[0] < 1e-4 * g.r_max


@pytest.mark.parametrize("bad", [
    dict(d=1, r_max=-1.0, n=32, gamma=1.0),
    dict(d=1, r_max=10.0, n=8, gamma=1.0),
    dict(d=1, r_max=10.0, n=32, gamma=0.5),
    dict(d=0, r_max=10.0, n=32, gamma=1.0),
])
def test_build_grid_rejects_degenerate_inputs(bad):
    with pytest.raises(InvalidParameterError):
        dl.build_grid(**bad)


def test_build_grid_rejects_an_edge_that_underflows():
    # (1/16)^400 underflows: the first two edges are both 0
    with pytest.raises(InvalidParameterError, match="degenerate grid"):
        dl.build_grid(1, 10.0, 16, 400.0)


def test_assemble_operator_rejects_a_out_of_range():
    with pytest.raises(InvalidParameterError, match="degeneracy exponent"):
        dl.assemble_operator(dl.build_grid(1, 10.0, 32), 1.0)


@pytest.mark.parametrize("d,a,sector", [
    (1, 0.0, 0), (1, 0.5, 1), (2, 0.25, 0), (2, 0.75, 2), (3, 0.5, 3), (3, 0.0, 1),
])
def test_self_adjointness_random_pairs(d, a, sector):
    rng = np.random.default_rng(7)
    g = dl.build_grid(d, 12.0, 256, 1.5)
    op = dl.assemble_operator(g, a, sector)
    for _ in range(5):
        u, v = rng.standard_normal(256), rng.standard_normal(256)
        lhs = dl.weighted_inner(g, op.apply(u), v)
        rhs = dl.weighted_inner(g, u, op.apply(v))
        scale = dl.weighted_norm(g, u) * dl.weighted_norm(g, v) * np.max(np.abs(op.diag))
        assert abs(lhs - rhs) < 1e-12 * scale


@pytest.mark.parametrize("d,a,sector", [(1, 0.3, 0), (2, 0.5, 1), (3, 0.25, 2)])
def test_quadratic_form_nonnegative(d, a, sector):
    rng = np.random.default_rng(3)
    g = dl.build_grid(d, 12.0, 128, 1.5)
    op = dl.assemble_operator(g, a, sector)
    for _ in range(10):
        u = rng.standard_normal(128)
        q = op.quad_form(u)
        assert q >= 0.0
        assert q == pytest.approx(dl.weighted_inner(g, op.apply(u), u),
                                  rel=1e-10, abs=1e-10 * abs(q))


def test_constant_annihilated_on_interior_rows():
    g = dl.build_grid(1, 10.0, 64, 1.0)
    op = dl.assemble_operator(g, 0.3, 0)
    out = op.apply(np.ones(64))
    assert np.max(np.abs(out[:-1])) < 1e-12   # last row carries the Dirichlet closure


def test_a0_reduces_to_standard_second_difference():
    g = dl.build_grid(1, 10.0, 64, 1.0)
    h = g.nodes[1] - g.nodes[0]
    op = dl.assemble_operator(g, 0.0, 0)
    # interior row: (-u_{i-1} + 2 u_i - u_{i+1})/h^2; first row has the
    # zero-flux closure (one-sided difference)
    u = np.sin(g.nodes)
    expect = (-np.roll(u, 1) + 2.0 * u - np.roll(u, -1)) / h ** 2
    out = op.apply(u)
    assert np.allclose(out[1:-1], expect[1:-1], rtol=1e-12)
    assert out[0] == pytest.approx((u[0] - u[1]) / h ** 2, rel=1e-12)


def test_sech_residual_and_convergence_order(anchor_grid):
    res = []
    for n in (512, 1024, 2048):
        g = dl.build_grid(1, 20.0, n, 1.0)
        phi = sech_values(g.nodes)
        op = dl.assemble_operator(g, 0.0, 0)
        defect = op.apply(phi) + phi - phi ** 3
        res.append(dl.weighted_norm(g, defect))
    order = np.log2(res[0] / res[1]), np.log2(res[1] / res[2])
    assert min(order) > 1.7                     # second-order decrease
    # oracle residual at the anchor resolution
    g = dl.build_grid(1, 20.0, 4096, 1.0)
    phi = sech_values(g.nodes)
    op = dl.assemble_operator(g, 0.0, 0)
    assert dl.weighted_norm(g, op.apply(phi) + phi - phi ** 3) < 1e-4


def test_weighted_inner_examples():
    g = dl.build_grid(3, 5.0, 64, 1.0)
    one = np.ones(64)
    assert dl.weighted_inner(g, one, one) == pytest.approx(5.0 ** 3 / 3, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        dl.weighted_inner(g, one, np.ones(32))


_FIELD_FUNCTIONS = {
    "weighted_inner": lambda g, u: dl.weighted_inner(g, np.ones(g.n), u),
    "weighted_inner-first": lambda g, u: dl.weighted_inner(g, u, np.ones(g.n)),
    "weighted_norm": dl.weighted_norm,
    "gradient_energy": lambda g, u: dl.assemble_operator(g, 0.25).gradient_energy(u),
    "mass_of": dl.functionals.mass_of,
    "lp_power_of": lambda g, u: dl.functionals.lp_power_of(g, u, 4.0),
    "variance_of": lambda g, u: dl.functionals.variance_of(dl.ModelParams(3, 0.25, 2.0), g, u),
}


@pytest.mark.parametrize("length", [1, 10])
@pytest.mark.parametrize("name", _FIELD_FUNCTIONS)
def test_field_off_the_grid_is_refused(name, length):
    # a length-1 field would broadcast over the 64 nodes, a length-10 one
    # would reach NumPy's own shape error
    g = dl.build_grid(3, 5.0, 64, 1.0)
    with pytest.raises(InvalidParameterError, match="does not match the grid"):
        _FIELD_FUNCTIONS[name](g, np.full(length, 2.0))
    assert np.isfinite(_FIELD_FUNCTIONS[name](g, np.full(g.n, 2.0)))


def test_gradient_energy_examples(anchor_grid):
    g = anchor_grid
    assert dl.gradient_energy(g, 0.4, np.full(g.n, 2.5)) == 0.0
    phi = sech_values(g.nodes)
    assert dl.gradient_energy(g, 0.0, phi) == pytest.approx(2.0 / 3.0, abs=1e-4)
    # equals the operator quadratic form once the boundary term vanishes
    phi[-1] = 0.0
    op = dl.assemble_operator(g, 0.0, 0)
    assert dl.gradient_energy(g, 0.0, phi) == pytest.approx(op.quad_form(phi), rel=1e-13)


def test_parity_closure_coefficients():
    g = dl.build_grid(1, 10.0, 64, 1.0)
    even = dl.assemble_operator(g, 0.0, 0)
    odd = dl.assemble_operator(g, 0.0, 1)
    assert even.flux[0] == 0.0
    assert odd.flux[0] == pytest.approx(1.0 / g.nodes[0], rel=1e-14)
    # origin capacity vanishes once d - 1 + 2a >= 1
    odd_heavy = dl.assemble_operator(g, 0.5, 1)
    assert odd_heavy.flux[0] == 0.0


def test_sector_validation():
    g = dl.build_grid(1, 10.0, 32, 1.0)
    with pytest.raises(InvalidParameterError):
        dl.assemble_operator(g, 0.0, sector=2)      # d = 1 has only parities
    with pytest.raises(InvalidParameterError):
        dl.assemble_operator(g, 0.0, potential=np.ones(16))


def test_strict_positivity_with_dirichlet_closure():
    from scipy.linalg import eigh_tridiagonal
    for d, a in ((1, 0.0), (2, 0.5), (3, 0.25)):
        g = dl.build_grid(d, 10.0, 256, 1.5)
        op = dl.assemble_operator(g, a, 0)
        diag, off = op.sym_tridiagonal()
        lowest = eigh_tridiagonal(diag, off, eigvals_only=True,
                                  select="i", select_range=(0, 0))[0]
        assert lowest > 0.0


@pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
def test_line_operator_layout_and_self_adjointness(a):
    g = dl.build_line_grid(12.0, 128, 1.5)
    assert g.n == 256 and g.measure == 1.0
    assert np.array_equal(g.nodes[:128], -g.nodes[128:][::-1])
    assert g.volumes.sum() == pytest.approx(24.0, rel=1e-14)
    op = dl.assemble_operator(g, a)
    rho1 = g.half.nodes[0]
    centre = (1.0 - 2.0 * a) / (2.0 * rho1 ** (1.0 - 2.0 * a)) if a < 0.5 else 0.0
    assert op.flux[128] == pytest.approx(centre, rel=1e-14, abs=0.0)
    assert op.decoupled == (a >= 0.5)
    rng = np.random.default_rng(7)
    for _ in range(5):
        u, v = rng.standard_normal(256), rng.standard_normal(256)
        lhs = dl.weighted_inner(g, op.apply(u), v)
        rhs = dl.weighted_inner(g, u, op.apply(v))
        scale = dl.weighted_norm(g, u) * dl.weighted_norm(g, v) * np.max(np.abs(op.diag))
        assert abs(lhs - rhs) < 1e-12 * scale
        assert op.quad_form(u) == pytest.approx(dl.weighted_inner(g, op.apply(u), u), rel=1e-9)


def test_line_edges_exact_for_steady_flux():
    # u = sign(x) |x|^{1-2a} / (1-2a) carries the constant flux |x|^{2a} u' = 1
    # through the origin; exact edge coefficients pass it unchanged, so the
    # discrete divergence vanishes in every cell but the two outermost
    a = 0.25
    g = dl.build_line_grid(12.0, 128, 1.5)
    op = dl.assemble_operator(g, a)
    u = np.sign(g.nodes) * np.abs(g.nodes) ** (1.0 - 2.0 * a) / (1.0 - 2.0 * a)
    net_flux = op.apply(u) * g.volumes
    assert np.max(np.abs(net_flux[1:-1])) < 1e-12
    # and its discrete energy is the exact integral of |x|^{-2a} over the nodes' span
    exact = 2.0 * g.half.nodes[-1] ** (1.0 - 2.0 * a) / (1.0 - 2.0 * a)
    assert dl.gradient_energy(g, a, u) == pytest.approx(exact, rel=1e-12)


def test_line_operator_rejects_other_sectors():
    g = dl.build_line_grid(12.0, 64, 1.0)
    with pytest.raises(InvalidParameterError):
        dl.assemble_operator(g, 0.25, 1)
    with pytest.raises(InvalidParameterError):
        dl.LineGrid.mirror(dl.build_grid(2, 12.0, 64, 1.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("make", [
    lambda x: dl.ModelParams(x, 0.0, 3.0),
    lambda x: dl.build_grid(x, 10.0, 64),
    lambda x: dl.build_grid(1, 10.0, x),
    lambda x: dl.assemble_operator(dl.build_grid(1, 10.0, 64), 0.0, sector=x),
], ids=["model-d", "grid-d", "grid-n", "sector"])
def test_integer_checks_refuse_non_finite_numbers(make, bad):
    with pytest.raises(InvalidParameterError):
        make(bad)


_RADIAL = dl.build_grid(2, 10.0, 512, 1.5)
_LINE = dl.build_line_grid(10.0, 256, 1.5)


@pytest.mark.parametrize("scale, shift", [(0.7, 1.3), (-0.5, 20j), (1.0, "array")],
                         ids=["real", "complex", "array"])
@pytest.mark.parametrize("op", [
    dl.assemble_operator(_RADIAL, 0.25, sector=1, potential=1.0 - np.exp(-_RADIAL.nodes)),
    dl.assemble_operator(_LINE, 0.25),      # coupled through the origin
    dl.assemble_operator(_LINE, 0.75),      # centre link exactly 0
], ids=["radial-sector-1", "line-coupled", "line-decoupled"])
def test_factor_matches_solve_banded(op, scale, shift):
    if shift == "array":        # a Newton Jacobian's diagonal shift, one entry a row
        shift = 1.0 - 3.0 * np.exp(-op.grid.nodes ** 2)
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(op.grid.n)
    if np.iscomplexobj(shift):
        rhs = rhs + 1j * rng.standard_normal(op.grid.n)
    kept = rhs.copy()
    out = op.factor(scale, shift)(rhs)
    ref = solve_banded((1, 1), band(op, scale, shift), rhs)
    assert np.array_equal(rhs, kept)
    assert out.dtype == ref.dtype
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
