import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

import degenls as dl
import degenls.spectral as spectral
from degenls.exceptions import EigensolverError, SingularLPlusError
from degenls.presets import sweep_grid
from degenls.spectral import analytic_slope, slope_solve


def test_linearized_potentials(anchor_wave, anchor_params):
    plus = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    minus = dl.assemble_linearized(anchor_params, anchor_wave, 0, -1)
    phi2 = anchor_wave.values ** 2
    assert np.allclose(plus.potential, 1.0 - 3.0 * phi2)
    assert np.allclose(minus.potential, 1.0 - phi2)
    with pytest.raises(ValueError):
        dl.assemble_linearized(anchor_params, anchor_wave, 0, 0)


def test_minus_annihilates_wave(anchor_wave, anchor_params):
    minus = dl.assemble_linearized(anchor_params, anchor_wave, 0, -1)
    res = dl.weighted_norm(anchor_wave.grid, minus.apply(anchor_wave.values))
    assert res < 1e-6 * dl.weighted_norm(anchor_wave.grid, anchor_wave.values)


def test_poeschl_teller_spectrum(anchor_wave, anchor_params):
    # potential -6 sech^2: even ground state at -3; -2 sech^2: ground state 0
    plus = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    vals_p, _ = dl.eigenpairs(plus, 2)
    assert vals_p[0] == pytest.approx(-3.0, abs=1e-4)
    minus = dl.assemble_linearized(anchor_params, anchor_wave, 0, -1)
    vals_m, vecs_m = dl.eigenpairs(minus, 2)
    assert abs(vals_m[0]) < 1e-6
    sech = 1.0 / np.cosh(anchor_wave.grid.nodes)
    cos = abs(dl.weighted_inner(anchor_wave.grid, vecs_m[:, 0], sech)) / (
        dl.weighted_norm(anchor_wave.grid, vecs_m[:, 0])
        * dl.weighted_norm(anchor_wave.grid, sech))
    assert cos > 0.9999


def test_morse_indices_at_anchor(anchor_wave, anchor_params):
    plus_even = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    assert dl.morse_index(plus_even, 1e-8) == 1
    # the translational zero mode is odd and sits at 0, not below it
    plus_odd = dl.assemble_linearized(anchor_params, anchor_wave, 1, +1)
    assert dl.morse_index(plus_odd, 1e-6) == 0
    minus_even = dl.assemble_linearized(anchor_params, anchor_wave, 0, -1)
    assert dl.morse_index(minus_even, 1e-8) == 0


def test_shifted_positive_operator_has_empty_index(anchor_grid):
    op = dl.assemble_operator(anchor_grid, 0.0, 0, potential=np.ones(anchor_grid.n))
    assert dl.morse_index(op, 1e-10) == 0


def test_eigenvectors_weighted_orthonormal(anchor_wave, anchor_params):
    op = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    vals, vecs = dl.eigenpairs(op, 4)
    gram = vecs.T @ (anchor_wave.grid.volumes[:, None] * vecs)
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    # and they satisfy the eigenproblem in the weighted setting
    for k in range(4):
        res = op.apply(vecs[:, k]) - vals[k] * vecs[:, k]
        assert dl.weighted_norm(anchor_wave.grid, res) < 1e-7 * max(1.0, abs(vals[k]))


def test_slope_anchor(anchor_wave, anchor_params):
    report = dl.slope_and_classify(anchor_params, anchor_wave)
    assert report.slope == pytest.approx(-1.0, abs=1e-2)
    assert report.slope_analytic == pytest.approx(-1.0, abs=1e-3)
    assert report.n_plus == 1 and report.n_minus == 0
    assert report.k_ham == 0 and report.verdict == "Stable"
    assert abs(report.lmin_minus) < 1e-6
    assert report.minus_cosine > 0.999
    assert report.gap_minus > 0.5


def test_slope_solve_residual(anchor_wave, anchor_params):
    _, rel_res = slope_solve(anchor_params, anchor_wave)
    assert rel_res < 1e-8


def test_unstable_point_classified(wave_cache):
    params, wave = wave_cache(1, 0.0, 7.0, n=8192)
    report = dl.slope_and_classify(params, wave)
    assert report.slope > 0 and report.k_ham == 1 and report.verdict == "Unstable"
    assert np.sign(report.slope) == np.sign(report.slope_analytic)


def test_slope_sign_matches_analytic_across_points(wave_cache):
    for d, a, p in ((1, 0.0, 3.0), (2, 0.0, 7.0), (3, 0.0, 2.0), (2, 0.25, 2.0)):
        params, wave = wave_cache(d, a, p, n=8192)
        report = dl.slope_and_classify(params, wave)
        expected = np.sign(params.d / (2.0 * (1.0 - params.a)) - 2.0 / (params.p - 1.0))
        assert np.sign(report.slope) == expected
        assert np.sign(report.slope_analytic) == expected


def test_degenerate_power_flagged(wave_cache):
    params, wave = wave_cache(1, 0.0, 5.0, n=8192)   # p_c = 5 exactly
    report = dl.slope_and_classify(params, wave)
    assert report.verdict == "Degenerate"
    assert abs(report.slope) < 1e-3


def test_angular_barrier_monotone_in_sector(wave_cache):
    # lowest eigenvalue increases with l; negative directions exist only at l = 0
    params, wave = wave_cache(2, 0.25, 2.0, n=8192)
    lows = []
    for ell in range(4):
        op = dl.assemble_linearized(params, wave, ell, +1)
        vals, _ = dl.eigenpairs(op, 1)
        lows.append(vals[0])
    assert all(x < y for x, y in zip(lows, lows[1:]))
    assert lows[0] < 0 < lows[1]


def test_singular_lplus_guard(anchor_wave, anchor_params):
    op = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    vals, _ = dl.eigenpairs(op, 1)
    shifted = dl.Profile(grid=anchor_wave.grid, values=anchor_wave.values,
                         omega=anchor_wave.omega)
    params_shifted = dl.ModelParams(1, 0.0, 3.0, anchor_params.omega - vals[0] - 1e-13)
    # shifting omega by the lowest eigenvalue parks an eigenvalue at zero
    with pytest.raises(SingularLPlusError):
        slope_solve(params_shifted, shifted)


def test_singular_guard_reads_the_kernel_band(anchor_wave, anchor_params):
    # an L+ eigenvalue parked at about 1e-9: outside +-1e-10, but inside the
    # kernel band the counts use, where its sign is not resolved
    op = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    vals, _ = dl.eigenpairs(op, 1)
    shifted = dl.Profile(grid=anchor_wave.grid, values=anchor_wave.values,
                         omega=anchor_wave.omega)
    params_shifted = dl.ModelParams(1, 0.0, 3.0, anchor_params.omega - vals[0] + 1e-9)
    parked = dl.eigenvalues(dl.assemble_linearized(params_shifted, shifted, 0, +1), 1)[0]
    assert 5e-10 < parked < 2e-9
    with pytest.raises(SingularLPlusError):
        slope_solve(params_shifted, shifted)
    with pytest.raises(SingularLPlusError):
        dl.slope_and_classify(params_shifted, shifted)


def test_analytic_slope_value(anchor_wave, anchor_params):
    # mass law 4 sqrt(omega): slope = -(1/2) d/domega (4 sqrt(omega)) = -1 at 1
    assert analytic_slope(anchor_params, anchor_wave) == pytest.approx(-1.0, rel=1e-3)


def test_one_dimensional_weight_breaks_evenness(wave_cache):
    """d = 1, a > 0: the even wave is a saddle, not the quotient minimizer.

    The odd parity sector of L+ about the even profile carries a genuine
    negative eigenvalue (the origin's transmission capacity degenerates as
    a -> 1/2), and the Weinstein quotient strictly decreases along that
    direction.
    """
    params, wave = wave_cache(1, 0.25, 3.0, n=8192)
    grid = wave.grid
    op_odd = dl.assemble_linearized(params, wave, sector=1, sign=+1)
    vals, vecs = dl.eigenpairs(op_odd, 1)
    assert vals[0] < -0.5                      # converged value is about -0.98

    # a two-sided trial phi +- eps * mode drops J below the even value
    mode = vecs[:, 0]
    op0 = dl.assemble_operator(grid, params.a, 0)

    def half_line_j(eps):
        right = wave.values + eps * mode
        left = wave.values - eps * mode
        kin = op0.quad_form(right) + op0.quad_form(left)
        mass = float(np.sum(grid.volumes * (right ** 2 + left ** 2)))
        lp1 = float(np.sum(grid.volumes * (np.abs(right) ** 4 + np.abs(left) ** 4)))
        return (kin + mass) / np.sqrt(lp1)

    assert half_line_j(0.2) < half_line_j(0.0) - 1e-3

    # at a >= 1/2 the two half-lines decouple outright: the odd operator
    # coincides with the even one and duplicates its spectrum
    params5, wave5 = wave_cache(1, 0.5, 2.0, n=8192)
    even5 = dl.assemble_linearized(params5, wave5, sector=0, sign=+1)
    odd5 = dl.assemble_linearized(params5, wave5, sector=1, sign=+1)
    assert odd5.flux[0] == 0.0
    v_even, _ = dl.eigenpairs(even5, 1)
    v_odd, _ = dl.eigenpairs(odd5, 1)
    assert v_odd[0] == pytest.approx(v_even[0], rel=1e-12)


_LINE_GRID = dl.build_line_grid(12.0, 1024, 1.5)


def test_decoupled_line_spectrum_is_union_of_branches():
    # a >= 1/2: the full-line operator splits at the origin, where its
    # centre link is exactly 0; the result must be that of the whole matrix
    g = dl.build_line_grid(12.0, 64, 1.5)
    potential = np.random.default_rng(2).standard_normal(g.n)
    op = dl.assemble_operator(g, 0.75, 0, potential=potential)
    assert op.decoupled
    vals, vecs = dl.eigenpairs(op, 5)
    diag, off = op.sym_tridiagonal()
    reference = eigh_tridiagonal(diag, off, eigvals_only=True)[:5]
    scale = np.max(np.abs(diag))
    assert np.allclose(vals, reference, rtol=0.0, atol=1e-12 * scale)
    assert np.array_equal(dl.eigenvalues(op, 5), vals)
    gram = vecs.T @ (g.volumes[:, None] * vecs)
    assert np.allclose(gram, np.eye(5), atol=1e-10)
    for k in range(5):
        res = op.apply(vecs[:, k]) - vals[k] * vecs[:, k]
        assert dl.weighted_norm(g, res) < 1e-9 * scale
        assert not vecs[g.branch(-1), k].any() or not vecs[g.branch(+1), k].any()


@pytest.mark.parametrize("a", [0.75, 0.25], ids=["decoupled", "coupled"])
def test_eigenvectors_of_near_equal_eigenvalues_stay_apart(a):
    # two deep wells at x = +-6: on the decoupled line every eigenvalue is
    # double, and on the coupled line the lowest pair splits by less than the
    # band; the vectors of the pair are still weighted-orthonormal
    g = _LINE_GRID
    potential = 1.0 - 30.0 / np.cosh(2.0 * (np.abs(g.nodes) - 6.0)) ** 2
    op = dl.assemble_operator(g, a, potential=potential)
    vals, vecs = dl.eigenpairs(op, 4)
    assert vals[1] - vals[0] < 4.0 * np.finfo(float).eps * np.max(np.abs(op.diag))
    assert np.allclose(vecs.T @ (g.volumes[:, None] * vecs), np.eye(4), atol=1e-9)
    for k in range(4):
        res = op.apply(vecs[:, k]) - vals[k] * vecs[:, k]
        assert dl.weighted_norm(g, res) < 1e-9


@pytest.mark.parametrize("op", [
    dl.assemble_operator(dl.build_grid(2, 20.0, 4096, 1.5), 0.25, 1,
                         potential=1.0 - 3.0 / np.cosh(dl.build_grid(2, 20.0, 4096, 1.5).nodes)),
    dl.assemble_operator(_LINE_GRID, 0.25, potential=1.0 - 3.0 / np.cosh(_LINE_GRID.nodes - 2.0)),
    dl.assemble_operator(_LINE_GRID, 0.75, potential=1.0 - 3.0 / np.cosh(_LINE_GRID.nodes - 2.0)),
], ids=["radial-sector-1", "line-coupled", "line-decoupled"])
def test_eigenvectors_match_lapack_stein(op):
    # inverse iteration on the operator's own factors gives LAPACK stein's
    # vectors, sign included (the largest entry of W^{1/2} v is positive)
    vals, vecs = dl.eigenpairs(op, 4)
    diag, off = op.sym_tridiagonal()
    ref_vals, ref = eigh_tridiagonal(diag, off, select="i", select_range=(0, 3))
    root_w = np.sqrt(op.grid.volumes)[:, None]
    band = 4.0 * np.finfo(float).eps * np.max(np.abs(diag))
    assert np.allclose(vals, ref_vals, rtol=0.0, atol=band)
    assert np.max(np.abs(root_w * vecs - ref)) < 1e-9


@pytest.mark.parametrize("a,p,verdict", [
    (0.25, 3.0, "Stable"), (0.25, 7.0, "Unstable"), (0.5, 2.0, "Stable"), (0.75, 2.5, "Unstable"),
])
def test_line_minimizer_spectrum(a, p, verdict):
    # d = 1, a > 0 on the full line: the counts the variational construction
    # gives a minimizer (n(L+) = 1, ker L- = span phi, gap_- > 0), one sector
    params = dl.ModelParams(1, a, p, 1.0)
    wave = dl.ground_state(params, sweep_grid(params, n=8192))
    report = dl.slope_and_classify(params, wave)
    assert len(report.sectors) == 1
    assert report.n_plus == 1 and report.n_minus == 0 and report.kernel_dim_plus == 0
    assert abs(report.lmin_minus) < 1e-6 and report.minus_cosine > 0.999
    assert report.gap_minus > 0.5
    assert report.verdict == verdict == dl.classify_by_threshold(params).verdict
    assert np.sign(report.slope) == np.sign(report.slope_analytic)
    assert report.slope == pytest.approx(report.slope_analytic, rel=1e-2)


def test_morse_counts_are_exact_past_six():
    # a wide, deep well binds 17 even and 16 odd L+ modes, more than the six
    # smallest eigenvalues a fixed-size eigen-solve would see
    grid = dl.build_grid(1, 20.0, 2048)
    params = dl.ModelParams(1, 0.0, 3.0, 1.0)
    profile = dl.Profile(grid=grid, values=6.0 * np.exp(-(grid.nodes / 6.0) ** 2), omega=1.0)
    report = dl.slope_and_classify(params, profile)
    for counts in report.sectors:
        op = dl.assemble_linearized(params, profile, counts.sector, +1)
        diag, off = op.sym_tridiagonal()
        dense = int(np.sum(eigh_tridiagonal(diag, off, eigvals_only=True) < -1e-8))
        assert counts.n_plus == dl.morse_index(op, 1e-8) == dense
    assert [s.n_plus for s in report.sectors] == [17, 16]
    assert report.n_plus == 33


def test_counts_are_complete_across_sectors():
    # the wide, deep well in d = 2: its angular sectors bind L+ modes far past
    # l = 3, and the counts run until a sector's L+ lies above its band
    grid = dl.build_grid(2, 20.0, 2048)
    params = dl.ModelParams(2, 0.0, 3.0, 1.0)
    profile = dl.Profile(grid=grid, values=6.0 * np.exp(-(grid.nodes / 6.0) ** 2), omega=1.0)
    report = dl.slope_and_classify(params, profile)
    assert [s.sector for s in report.sectors] == list(range(len(report.sectors)))
    counts = [dl.morse_index(dl.assemble_linearized(params, profile, s.sector, +1), s.tol)
              for s in report.sectors]
    assert counts == [s.n_plus for s in report.sectors]
    assert report.n_plus == sum(counts) == 239
    last = report.sectors[-1]
    assert last.n_plus == last.kernel_plus == 0 and last.lowest_plus > last.tol


@pytest.mark.parametrize("d,a,p,n,kept", [
    (2, 0.0, 2.0, 65536, 3),      # the translation mode puts sector 1's lowest in its band
    (3, 0.25, 2.5, 16384, 2),
])
def test_sectors_stop_where_weyl_says(d, a, p, n, kept):
    # sector l+1 is sector l plus a positive barrier: the first l >= 1 whose
    # L+ lies above its band is the last one counted, and an explicit
    # aggregation over l = 0..5 gives the same report
    params = dl.ModelParams(d, a, p, 1.0)
    wave = dl.ground_state(params, sweep_grid(params, n=n))
    report = dl.slope_and_classify(params, wave)
    assert [s.sector for s in report.sectors] == list(range(kept))
    assert all(s.lowest_plus <= s.tol for s in report.sectors[1:-1])
    assert report.sectors[-1].lowest_plus > report.sectors[-1].tol
    if kept == 3:
        assert report.sectors[1].kernel_plus == 1

    tol_zero = spectral._tol_zero(params, wave)
    n_plus = n_minus = kernel = 0
    minus_lows = []
    for ell in range(6):
        plus = dl.assemble_linearized(params, wave, ell, +1)
        tol = max(tol_zero, 4.0 * np.finfo(float).eps * np.max(np.abs(plus.diag)))
        n_plus += dl.morse_index(plus, tol)
        kernel += dl.morse_index(plus, -tol) - dl.morse_index(plus, tol)
        minus = dl.assemble_linearized(params, wave, ell, -1)
        n_minus += dl.morse_index(minus, tol)
        minus_lows.append(dl.eigenvalues(minus, 2 if ell == 0 else 1))
    assert (report.n_plus, report.n_minus, report.kernel_dim_plus) == (n_plus, n_minus, kernel)
    band = max(s.tol for s in report.sectors)
    assert report.lmin_minus == pytest.approx(minus_lows[0][0], abs=band)
    gap = min([minus_lows[0][1]] + [vals[0] for vals in minus_lows[1:]])
    assert report.gap_minus == pytest.approx(gap, abs=band)
    assert report.k_ham == n_plus - (1 if report.slope <= 0.0 else 0)


def test_classification_bisects_only_by_value(anchor_wave, anchor_params, monkeypatch):
    # every eigen call is a select="v" window: no index search over the
    # whole Gershgorin interval
    selects = []
    original = spectral.eigh_tridiagonal

    def spy(*args, **kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        selects.append(bound.arguments["select"])
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", spy)
    report = dl.slope_and_classify(anchor_params, anchor_wave)
    assert report.verdict == "Stable"
    assert selects and set(selects) == {"v"}


@pytest.mark.parametrize("point", ["anchor", "decoupled line", "d = 3"])
def test_wave_certifies_its_minus_mode(point, anchor_wave, anchor_params, wave_cache):
    # phi certifies the lowest L- eigenvalue: counts put one in (-tol, tol]
    # and none below, lmin_minus is phi's Rayleigh quotient, and minus_cosine,
    # a Davis-Kahan lower bound, does not exceed the cosine of phi with the
    # bisected eigenvector
    if point == "anchor":
        params, wave = anchor_params, anchor_wave
    elif point == "decoupled line":
        params = dl.ModelParams(1, 0.75, 2.5, 1.0)
        wave = dl.ground_state(params, sweep_grid(params, n=8192))
    else:
        params, wave = wave_cache(3, 0.0, 2.0, n=8192)
    report = dl.slope_and_classify(params, wave)
    g, phi = wave.grid, wave.values
    minus = dl.assemble_linearized(params, wave, 0, -1)
    l_phi = minus.apply(phi)
    norm_sq = dl.weighted_inner(g, phi, phi)
    rho = dl.weighted_inner(g, l_phi, phi) / norm_sq
    assert report.minus_certified
    assert report.lmin_minus == report.sectors[0].lowest_minus == rho
    assert report.minus_residual == dl.weighted_norm(g, l_phi - rho * phi) / np.sqrt(norm_sq)
    band = report.sectors[0].tol
    assert report.lmin_minus == pytest.approx(dl.eigenvalues(minus, 1)[0], abs=band)
    _, vecs = dl.eigenpairs(minus, 1)
    cosine = abs(dl.weighted_inner(g, vecs[:, 0], phi)) / (
        dl.weighted_norm(g, vecs[:, 0]) * dl.weighted_norm(g, phi))
    assert 0.999 < report.minus_cosine <= cosine + 1e-12


def test_non_wave_minus_mode_is_bisected():
    # the wide-well profile is no wave: L- has negative eigenvalues, the
    # certificate fails, the lowest is bisected and no cosine is claimed
    grid = dl.build_grid(1, 20.0, 2048)
    params = dl.ModelParams(1, 0.0, 3.0, 1.0)
    profile = dl.Profile(grid=grid, values=6.0 * np.exp(-(grid.nodes / 6.0) ** 2), omega=1.0)
    report = dl.slope_and_classify(params, profile)
    assert not report.minus_certified
    minus = dl.assemble_linearized(params, profile, 0, -1)
    lowest = dl.eigenvalues(minus, 1)[0]
    assert report.lmin_minus == pytest.approx(lowest, abs=report.sectors[0].tol)
    assert report.minus_cosine == 0.0


def test_classification_work_is_counted(anchor_wave, anchor_params, monkeypatch):
    # no eigenvectors, one bisection per operator, each returning only the
    # eigenvalue it reports, and no count through LAPACK's bisection; the
    # per-sector tallies are the calls made
    calls, sweeps = [], []
    original, count_below = spectral.eigh_tridiagonal, spectral._count_below

    def spy(*args, **kwargs):
        bound = inspect.signature(original).bind(*args, **kwargs)
        bound.apply_defaults()
        out = original(*args, **kwargs)
        calls.append((bound.arguments["eigvals_only"], bound.arguments["tol"], out.size))
        return out

    def sweep_spy(diag, off, x):
        sweeps.append(x)
        return count_below(diag, off, x)

    monkeypatch.setattr(spectral, "eigh_tridiagonal", spy)
    monkeypatch.setattr(spectral, "_count_below", sweep_spy)
    report = dl.slope_and_classify(anchor_params, anchor_wave)
    assert all(only for only, _, _ in calls)
    assert all(tol == 0.0 for _, tol, _ in calls)
    bisections = [size for _, tol, size in calls if tol == 0.0]
    assert len(bisections) == 2 * len(report.sectors)
    assert set(bisections) == {1}
    assert sum(s.bisections for s in report.sectors) == len(bisections)
    assert sum(s.sturm_counts for s in report.sectors) == len(sweeps)


def test_inconsistent_bisection_raises(anchor_wave, anchor_params, monkeypatch):
    # a bisection that returns fewer eigenvalues than its bracket's counts
    # hold is a solver failure, never a reported eigenvalue
    original = spectral._bisect

    def slipping(diag, off, lower, upper, tol):
        out = original(diag, off, lower, upper, tol)
        return out[:-1] if tol == 0.0 else out

    monkeypatch.setattr(spectral, "_bisect", slipping)
    plus = dl.assemble_linearized(anchor_params, anchor_wave, 0, +1)
    with pytest.raises(EigensolverError):
        dl.eigenvalues(plus, 1)
    with pytest.raises(EigensolverError):
        dl.slope_and_classify(anchor_params, anchor_wave)


def test_sector_band_reported(anchor_wave, anchor_params):
    report = dl.slope_and_classify(anchor_params, anchor_wave)
    for counts in report.sectors:
        op = dl.assemble_linearized(anchor_params, anchor_wave, counts.sector, +1)
        band = 4.0 * np.finfo(float).eps * np.max(np.abs(op.diag))
        assert counts.tol >= max(1e-8, band)


@st.composite
def small_operators(draw):
    """A random-potential operator on a small grid: a radial sector for d = 1-3,
    or the d = 1 line, coupled (a < 1/2) or decoupled (a >= 1/2) at the origin."""
    kind = draw(st.sampled_from(["radial", "coupled line", "decoupled line"]))
    n = draw(st.integers(16, 48))
    r_max = draw(st.floats(2.0, 30.0))
    gamma = draw(st.floats(1.0, 3.0))
    if kind == "radial":
        d = draw(st.integers(1, 3))
        a = draw(st.floats(0.0, 0.95))
        sector = draw(st.integers(0, 1 if d == 1 else 3))
        grid = dl.build_grid(d, r_max, n, gamma)
    else:
        a = draw(st.floats(0.0, 0.45) if kind == "coupled line" else st.floats(0.5, 0.95))
        sector = 0
        grid = dl.build_line_grid(r_max, n, gamma)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    potential = draw(st.floats(0.0, 50.0)) * rng.standard_normal(grid.n)
    return dl.assemble_operator(grid, a, sector, potential=potential)


@given(op=small_operators(), k=st.integers(1, 6), data=st.data())
@settings(max_examples=150, deadline=None)
def test_eigen_path_matches_dense_reference(op, k, data):
    diag, off = op.sym_tridiagonal()
    # The whole spectrum by bisection over the Gershgorin interval: within a
    # fraction of the band of the exact values, where divide and conquer
    # (the default, stevd) errs by several bands once a large potential
    # dominates the diagonal.
    dense = eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stebz")
    band = 4.0 * np.finfo(float).eps * np.max(np.abs(diag))

    vals = dl.eigenvalues(op, k)
    assert np.allclose(vals, dense[:k], rtol=0.0, atol=band)

    vals, vecs = dl.eigenpairs(op, k)
    assert np.allclose(vals, dense[:k], rtol=0.0, atol=band)
    w = op.grid.volumes
    assert np.allclose(vecs.T @ (w[:, None] * vecs), np.eye(k), atol=1e-9)
    for j in range(k):
        res = op.apply(vecs[:, j]) - vals[j] * vecs[:, j]
        assert dl.weighted_norm(op.grid, res) < 1e-8 * np.max(np.abs(diag))

    # morse_index(op, t) counts the eigenvalues below -t; take -t among the lowest few
    x = data.draw(st.floats(float(dense[0]) - 1.0, float(dense[min(8, dense.size - 1)]) + 1.0))
    assume(np.min(np.abs(dense - x)) > band)
    assert dl.morse_index(op, -x) == int(np.sum(dense < x))


@pytest.mark.parametrize("d, a, p", [(2, 0.25, 2.0), (2, 0.25, 2.5), (2, 0.25, 3.0), (2, 0.25, 5.0),
                                     (2, 0.5, 2.0), (2, 0.5, 2.5), (3, 0.25, 2.0), (3, 0.25, 2.5)])
def test_sector_one_lies_above_its_band(wave_cache, d, a, p):
    # Sector 1 of (d, a) is the D = d/(1-a) radial operator with barrier
    # c_1 = (d-1)/(1-a)^2 in s, where barrier D-1 holds Q' in its kernel; the
    # excess c_1 - (D-1) = a(d-2+a)/(1-a)^2 > 0 lifts the lowest eigenvalue
    # off zero at every lattice point with d >= 2, a > 0.
    params, wave = wave_cache(d, a, p)
    sector = dl.slope_and_classify(params, wave).sectors[1]
    assert (sector.n_plus, sector.kernel_plus) == (0, 0)
    assert sector.lowest_plus > sector.tol


def test_non_finite_operator_raises(anchor_wave, anchor_params):
    # a NaN pivot compares as positive, so a sweep would count too few:
    # the operator is refused before any count
    values = anchor_wave.values.copy()
    values[values.size // 2] = np.nan
    profile = dataclasses.replace(anchor_wave, values=values)
    op = dl.assemble_linearized(anchor_params, profile, 0, +1)
    with pytest.raises(ValueError):
        dl.morse_index(op, 1e-8)
    with pytest.raises(ValueError):
        dl.eigenvalues(op, 1)
    with pytest.raises(ValueError):
        dl.slope_and_classify(anchor_params, profile)


def _dense_spectrum(op):
    diag, off = op.sym_tridiagonal()
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _dense_count(op, x):
    """morse_index(op, -x), checked against the dense spectrum with x more
    than the band away from every eigenvalue."""
    dense = _dense_spectrum(op)
    assert np.min(np.abs(dense - x)) > 4.0 * np.finfo(float).eps * np.max(np.abs(op.diag))
    held = int(np.sum(dense < x))
    assert dl.morse_index(op, -x) == held
    return held


def test_count_through_a_zero_pivot():
    # the shift equals a diagonal entry: the first pivot, and on a decoupled
    # line the first one past the zero centre link, is exactly 0
    potential = 5.0 * np.random.default_rng(3).standard_normal(64)
    op = dl.assemble_operator(dl.build_grid(1, 10.0, 64), 0.0, 0, potential=potential)
    _dense_count(op, op.diag[0])
    line = dl.assemble_operator(dl.build_line_grid(12.0, 64, 1.5), 0.75, 0,
                                potential=np.concatenate([potential[::-1], potential]))
    _, off = line.sym_tridiagonal()
    (centre,) = np.flatnonzero(off == 0.0)
    _dense_count(line, line.diag[0])
    _dense_count(line, line.diag[centre + 1])


@pytest.mark.parametrize("wells, held", [([-1], 1), ([-2], 1), ([-2, -1], 2)])
def test_count_with_a_nonpositive_last_pivot(wells, held):
    # deep wells in the outermost cells make the last pivots nonpositive: the
    # sweep resumes onto a 1x1 remainder, or ends on its last pivot
    potential = np.zeros(32)
    potential[wells] = -1e3
    op = dl.assemble_operator(dl.build_grid(1, 20.0, 32), 0.0, 0, potential=potential)
    assert _dense_count(op, -1.0) == held


def test_count_on_the_decoupled_line():
    # the zero centre link restarts the pivots: the count is the two branches'
    g = dl.build_line_grid(12.0, 64, 1.5)
    potential = 20.0 * np.random.default_rng(2).standard_normal(g.n)
    op = dl.assemble_operator(g, 0.75, 0, potential=potential)
    assert op.decoupled
    dense = _dense_spectrum(op)
    for k in (1, 4, 9):
        assert _dense_count(op, 0.5 * (dense[k - 1] + dense[k])) == k


def test_count_past_a_hundred_eigenvalues():
    # a wide, deep well: one ?pttrf call per eigenvalue below the shift
    grid = dl.build_grid(1, 20.0, 512)
    op = dl.assemble_operator(grid, 0.0, 0, potential=np.where(grid.nodes < 10.0, -1e4, 0.0))
    dense = _dense_spectrum(op)
    assert _dense_count(op, 0.5 * (dense[149] + dense[150])) == 150


@pytest.fixture(scope="module")
def translation_mode_wave():
    params = dl.ModelParams(2, 0.0, 3.0, 1.0)
    return params, dl.ground_state(params, sweep_grid(params, n=65536))


@pytest.mark.parametrize("k", [-1, 1, 4])
def test_eigenvalue_at_a_window_end_is_bisected(translation_mode_wave, k):
    # sector 1's a = 0 translation mode lies within rounding of its kernel
    # band's upper end; scaled by 1 + k 1e-12 the wave moves it across, and
    # stebz's own count can then put it outside the window ours puts it in
    params, wave = translation_mode_wave
    profile = dataclasses.replace(wave, values=wave.values * (1.0 + k * 1e-12))
    report = dl.slope_and_classify(params, profile)
    assert (report.n_plus, report.verdict) == (1, "Degenerate")


def test_bisection_after_counts_at_eigenvalues():
    # a count taken within a few hundred ulp of each of the lowest three
    # eigenvalues puts a window end there, where stebz's count and ours can
    # disagree; the bisection that follows still returns the eigenvalues
    # asked for, within three bands of the dense ones (each errs by a band)
    rng = np.random.default_rng(0)
    for _ in range(40):
        n, d = int(rng.integers(32, 401)), int(rng.integers(1, 4))
        gamma, a, r_max = rng.uniform(1.0, 3.0), rng.uniform(0.0, 0.9), rng.uniform(5.0, 40.0)
        potential = rng.uniform(0.1, 20.0) * rng.standard_normal(n)
        op = dl.assemble_operator(dl.build_grid(d, r_max, n, gamma), a, 0, potential=potential)
        dense = _dense_spectrum(op)
        for i in range(3):
            for j in range(-6, 7):
                sturm = spectral._Sturm(op)
                sturm.count(dense[i] + j * 64 * np.spacing(dense[i]))
                vals, _ = sturm.values(i + 1)
                assert np.allclose(vals, dense[:i + 1], rtol=0.0, atol=3.0 * sturm.band)
