import numpy as np
import pytest

import degenls as dl
from degenls.exceptions import ResolutionInsufficientError, WindowTooShortError
from degenls.presets import default_r_max
from tests.conftest import sech_values


@pytest.fixture(scope="module")
def decay_wave_a0():
    params = dl.ModelParams(1, 0.0, 3.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params), 8192, 1.0)
    return params, dl.ground_state(params, grid)


def test_decay_fit_sech(decay_wave_a0):
    params, wave = decay_wave_a0
    fit = dl.fit_decay(wave, params)
    assert fit.power == pytest.approx(1.0, rel=0.05)
    assert fit.delta == pytest.approx(1.0, rel=0.1)
    assert fit.delta_pred == 1.0
    assert fit.r2 > 0.99


def test_decay_rate_scales_with_omega(decay_wave_a0):
    params, wave = decay_wave_a0
    fit1 = dl.fit_decay(wave, params)
    p4 = params.with_omega(4.0)
    wave4 = dl.omega_rescale(wave, p4)
    fit4 = dl.fit_decay(wave4, p4)
    assert fit4.delta / fit1.delta == pytest.approx(2.0, rel=0.1)


def test_decay_window_too_short():
    # 60 cells leave 30 nodes in [0.4, 0.9] r_max, below the 32 a fit needs
    params = dl.ModelParams(1, 0.0, 3.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params), 60, 1.0)
    inside = (grid.nodes >= 0.4 * grid.r_max) & (grid.nodes <= 0.9 * grid.r_max)
    assert inside.sum() == 30
    wave = dl.Profile(grid=grid, values=sech_values(grid.nodes), omega=1.0)
    with pytest.raises(WindowTooShortError):
        dl.fit_decay(wave, params)


def _polyfit_decay(profile, params):
    """fit_decay's scan and refinement with one np.polyfit line per exponent."""
    grid = profile.grid
    mask = (grid.nodes >= 0.4 * grid.r_max) & (grid.nodes <= 0.9 * grid.r_max) \
        & (profile.values > 0.0)
    rho, logphi = grid.nodes[mask], np.log(profile.values[mask])
    ss_tot = np.sum((logphi - logphi.mean()) ** 2)

    def fit(q):
        coeffs, ss_res = np.polyfit(rho ** q, logphi, 1, full=True)[:2]
        return -coeffs[0], ss_res[0], 1.0 - ss_res[0] / ss_tot

    qs = np.linspace(0.05, 1.6, 156)
    misfit = [fit(q)[1] for q in qs]
    k = int(np.argmin(misfit))
    assert 0 < k < qs.size - 1
    y0, y1, y2 = misfit[k - 1:k + 2]
    q_free = qs[k] + 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2) * (qs[1] - qs[0])
    delta, _, r2 = fit(1.0 - params.a)
    return delta, q_free, fit(q_free)[0], r2


@pytest.mark.parametrize("a, n", [(0.0, 8192), (0.5, 16384)])
def test_closed_form_fit_matches_polyfit(a, n):
    # the criterion-9 waves: the closed-form lines give the polyfit scan's figures
    params = dl.ModelParams(1, a, 3.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params), n, 1.0 if a == 0.0 else 1.5)
    wave = dl.ground_state(params, grid)
    fit = dl.fit_decay(wave, params)
    ref = _polyfit_decay(wave, params)
    ours = (fit.delta, fit.power, fit.delta_free, fit.r2)
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0.0)


def test_decay_fit_half_weight():
    params = dl.ModelParams(1, 0.5, 3.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params), 16384, 1.5)
    wave = dl.ground_state(params, grid)
    fit = dl.fit_decay(wave, params)
    assert fit.power == pytest.approx(0.5, rel=0.05)
    assert fit.delta == pytest.approx(2.0, rel=0.1)


def test_origin_asymptotics_quarter_weight():
    params = dl.ModelParams(1, 0.25, 2.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params, 1e-7), 8192, 2.0)
    wave = dl.ground_state(params, grid)
    rep = dl.origin_asymptotics(wave, params)
    assert rep.phi0 ** params.p - rep.phi0 > 0          # positive drive at the center
    assert rep.slope_coeff == pytest.approx(rep.predicted_slope, rel=0.02)
    assert rep.curv_coeff == pytest.approx(rep.predicted_curv, rel=0.05)


def test_origin_smooth_case_slope(decay_wave_a0):
    # a = 0: phi'(rho)/rho -> phi''(0) = -(phi0^3 - phi0) = -sqrt(2) for sech
    params = dl.ModelParams(1, 0.0, 3.0, 1.0)
    grid = dl.build_grid(1, 20.0, 8192, 1.0)
    wave = dl.ground_state(params, grid)
    rep = dl.origin_asymptotics(wave, params)
    assert rep.slope_coeff == pytest.approx(-np.sqrt(2.0), rel=1e-3)
    assert rep.phi0 == pytest.approx(np.sqrt(2.0), abs=1e-5)


def test_origin_half_weight_finite_slope():
    # a = 1/2: phi'(rho)/rho^0 tends to a finite nonzero limit
    params = dl.ModelParams(1, 0.5, 2.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params, 1e-7), 8192, 2.0)
    wave = dl.ground_state(params, grid)
    rep = dl.origin_asymptotics(wave, params)
    assert rep.slope_coeff == pytest.approx(rep.predicted_slope, rel=0.02)
    assert abs(rep.slope_coeff) > 0.1


def test_origin_heavy_weight_derivative_blowup():
    # a = 3/4: |phi'| grows like rho^{-1/2} approaching the origin
    params = dl.ModelParams(1, 0.75, 2.0, 1.0)
    grid = dl.build_grid(1, default_r_max(params, 1e-7), 16384, 3.0)
    wave = dl.ground_state(params, grid)
    rep = dl.origin_asymptotics(wave, params)
    assert rep.slope_coeff == pytest.approx(rep.predicted_slope, rel=0.02)
    mids = 0.5 * (grid.nodes[:-1] + grid.nodes[1:])
    dphi = np.diff(wave.values) / np.diff(grid.nodes)
    sel = (mids > 1e-7) & (mids < 1e-5)
    scaled = np.abs(dphi[sel]) * np.sqrt(mids[sel])
    assert scaled.max() / scaled.min() < 1.1            # clean rho^{-1/2} growth
    inner, outer = np.abs(dphi[mids < 1e-5]).mean(), np.abs(dphi[(mids > 1e-2) & (mids < 1e-1)]).mean()
    assert inner > 10.0 * outer


def test_origin_resolution_guard():
    # a bump across the extrapolation shells breaks the one-sided approach
    params = dl.ModelParams(1, 0.75, 2.0, 1.0)
    grid = dl.build_grid(1, 50.0, 256, 1.0)
    rho = grid.nodes
    junk = dl.Profile(grid=grid,
                      values=2.0 * np.exp(-rho) + 0.4 * np.exp(-((rho - 3.1) / 0.5) ** 2),
                      omega=1.0)
    with pytest.raises(ResolutionInsufficientError):
        dl.origin_asymptotics(junk, params)
