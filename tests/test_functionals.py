import numpy as np
import pytest

import degenls as dl
from degenls.exceptions import InvalidParameterError
from degenls.functionals import energy_of, kinetic_of, lp_power_of, mass_of, virial_of
from tests.conftest import sech_values


def test_sphere_area_values():
    assert dl.sphere_area(1) == pytest.approx(2.0)
    assert dl.sphere_area(2) == pytest.approx(2.0 * np.pi)
    assert dl.sphere_area(3) == pytest.approx(4.0 * np.pi)


def test_sech_integrals(anchor_grid):
    phi = sech_values(anchor_grid.nodes)
    assert kinetic_of(anchor_grid, 0.0, phi) == pytest.approx(4.0 / 3.0, abs=2e-4)
    assert lp_power_of(anchor_grid, phi, 4.0) == pytest.approx(16.0 / 3.0, rel=1e-5)
    assert mass_of(anchor_grid, phi) == pytest.approx(4.0, rel=1e-5)
    assert energy_of(dl.ModelParams(1, 0.0, 3.0), anchor_grid, phi) == \
        pytest.approx(-2.0 / 3.0, abs=2e-4)


def test_identities_on_converged_wave(anchor_wave, anchor_params):
    rep = dl.evaluate_identities(anchor_params, anchor_wave)
    # coefficient d(p-1)/(2(p+1)(1-a)) = 1/4 makes both residuals vanish
    assert dl.functionals.pohozaev_coefficient(anchor_params) == pytest.approx(0.25)
    assert rep.pohozaev_1 < 5e-6
    assert rep.pohozaev_2 < 5e-6
    assert rep.alpha == pytest.approx(1.0)
    kin = kinetic_of(anchor_wave.grid, 0.0, anchor_wave.values)
    assert abs(rep.p) < 1e-5 * kin              # P(phi) = 0 is forced by the identity
    assert rep.energy == pytest.approx(-2.0 / 3.0, abs=1e-3)


def test_identities_large_for_non_solution(anchor_wave, anchor_params):
    junk = dl.Profile(grid=anchor_wave.grid, values=anchor_wave.values ** 2,
                      omega=1.0)
    rep = dl.evaluate_identities(anchor_params, junk)
    assert rep.pohozaev_1 > 0.1 or rep.pohozaev_2 > 0.1


def test_l2_scale_identity(anchor_wave):
    out = dl.l2_scale(anchor_wave, 1.0)
    assert np.array_equal(out.values, anchor_wave.values)


def test_l2_scale_mass_invariance(anchor_wave):
    m0 = mass_of(anchor_wave.grid, anchor_wave.values)
    out = dl.l2_scale(anchor_wave, 1.1)
    assert mass_of(out.grid, out.values) == pytest.approx(m0, rel=1e-12)


def test_l2_scale_power_norm_law(anchor_wave, anchor_params):
    # |u_lam|_{p+1}^{p+1} = lam^{alpha} |u|_{p+1}^{p+1}, alpha = d(p-1)/2
    lam = 1.3
    alpha = anchor_params.d * (anchor_params.p - 1.0) / 2.0
    l0 = lp_power_of(anchor_wave.grid, anchor_wave.values, 4.0)
    out = dl.l2_scale(anchor_wave, lam)
    assert lp_power_of(out.grid, out.values, 4.0) == \
        pytest.approx(lam ** alpha * l0, rel=1e-12)


def test_l2_scale_onto_grid(anchor_wave):
    target = dl.build_grid(1, 15.0, 2048, 1.0)
    out = dl.l2_scale(anchor_wave, 1.1, grid=target)
    exact = np.sqrt(1.1) * sech_values(1.1 * target.nodes)
    assert np.max(np.abs(out.values - exact)) < 1e-4


def test_l2_scale_refuses_infinite_factor(anchor_wave):
    # onto a grid, lam = inf would sample u at infinity and return non-finite values
    with pytest.raises(InvalidParameterError):
        dl.l2_scale(anchor_wave, np.inf, grid=anchor_wave.grid)


def test_scaled_energy_closed_form_vs_direct(wave_cache):
    params, wave = wave_cache(1, 0.0, 3.0, n=16384)
    a, p, d = params.a, params.p, params.d
    alpha = d * (p - 1.0) / 2.0
    lp1 = lp_power_of(wave.grid, wave.values, p + 1.0)
    for lam in (0.5, 0.8, 1.0, 1.3, 2.0):
        closed, direct = dl.scaled_energy(params, wave, lam)
        # scale by the sum of term magnitudes: lam = 2 is an exact root of
        # the closed form at these parameters
        scale = (alpha * lam ** (2 - 2 * a) + 2 * (1 - a) * lam ** alpha) \
            / (2 * (p + 1) * (1 - a)) * lp1
        assert abs(direct - closed) < 1e-6 * scale


def test_scaled_energy_at_unit_scale(anchor_wave, anchor_params):
    closed, direct = dl.scaled_energy(anchor_params, anchor_wave, 1.0)
    assert closed == pytest.approx(-2.0 / 3.0, rel=1e-4)     # (1-2)/8 * 16/3
    assert direct == pytest.approx(-2.0 / 3.0, rel=1e-4)


def test_scaled_energy_stationary_at_unit_scale():
    # f(lam) = alpha lam^{2-2a} - 2(1-a) lam^alpha has f'(1) = 0 identically
    for d, a, p in ((1, 0.0, 3.0), (2, 0.5, 2.5), (1, 0.25, 7.0)):
        alpha = d * (p - 1.0) / 2.0
        eps = 1e-6

        def f(lam):
            return alpha * lam ** (2.0 - 2.0 * a) - 2.0 * (1.0 - a) * lam ** alpha

        deriv = (f(1.0 + eps) - f(1.0 - eps)) / (2.0 * eps)
        assert abs(deriv) < 1e-8


def test_supercritical_scaling_lowers_energy(wave_cache):
    params, wave = wave_cache(1, 0.0, 7.0, n=4096)
    e0 = energy_of(params, wave.grid, wave.values)
    closed, direct = dl.scaled_energy(params, wave, 1.1)
    assert direct < e0 and closed < e0


def test_virial_vanishes_on_waves_only(anchor_wave, anchor_params):
    kin = kinetic_of(anchor_wave.grid, 0.0, anchor_wave.values)
    assert abs(virial_of(anchor_params, anchor_wave.grid, anchor_wave.values)) < 1e-5 * kin
    bad = 1.3 * anchor_wave.values
    assert abs(virial_of(anchor_params, anchor_wave.grid, bad)) > 1e-2 * kin
