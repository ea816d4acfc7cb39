import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degenls as dl
from degenls.exceptions import GridRangeError, InvalidParameterError, InvalidWindowError
from degenls.model import (DEGENERATE_BAND, effective_dimension, is_degenerate,
                           pohozaev_coefficient, profile_evaluator, tail_rate)
from degenls.presets import default_r_max


def test_exists_window_examples():
    assert dl.exists_window(dl.ModelParams(1, 0.0, 3.0)) is True       # 0.25 < 1
    assert dl.exists_window(dl.ModelParams(3, 0.5, 5.0)) is False      # 1/3 > 1/6
    assert dl.exists_window(dl.ModelParams(2, 0.5, 2.5)) is True       # 0.2143 < 0.25


@pytest.mark.parametrize("kwargs", [
    dict(d=0, a=0.0, p=3.0), dict(d=1, a=-0.1, p=3.0), dict(d=1, a=1.0, p=3.0),
    dict(d=1, a=0.0, p=1.0), dict(d=1, a=0.0, p=3.0, omega=0.0),
    dict(d=1, a=0.0, p=3.0, omega=-2.0),
])
def test_invalid_parameters_rejected(kwargs):
    with pytest.raises(InvalidParameterError):
        dl.ModelParams(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(p=np.inf), dict(omega=np.inf)], ids=["p", "omega"])
def test_infinite_power_and_frequency_rejected(kwargs):
    # p = inf divides by zero in the minimizer; omega = inf stretches its grid to nothing
    with pytest.raises(InvalidParameterError, match="finite"):
        dl.ModelParams(**{"d": 1, "a": 0.0, "p": 3.0, **kwargs})


def test_classify_by_threshold_examples():
    v = dl.classify_by_threshold(dl.ModelParams(1, 0.0, 3.0))
    assert v.verdict == "Stable" and v.threshold == 5.0 and v.slope_sign > 0
    v = dl.classify_by_threshold(dl.ModelParams(1, 0.0, 7.0))
    assert v.verdict == "Unstable" and v.threshold == 5.0 and v.slope_sign < 0
    v = dl.classify_by_threshold(dl.ModelParams(1, 0.0, 5.0))
    assert v.verdict == "Degenerate" and v.slope_sign == 0


def test_classify_requires_window():
    with pytest.raises(InvalidWindowError):
        dl.classify_by_threshold(dl.ModelParams(3, 0.5, 5.0))


@given(omega=st.floats(0.05, 20.0))
@settings(max_examples=30, deadline=None)
def test_verdict_invariant_under_omega(omega):
    base = dl.classify_by_threshold(dl.ModelParams(2, 0.25, 2.0, 1.0))
    other = dl.classify_by_threshold(dl.ModelParams(2, 0.25, 2.0, omega))
    assert other.verdict == base.verdict and other.threshold == base.threshold


@given(d=st.integers(1, 4), a=st.floats(0.0, 0.99),
       p1=st.floats(1.01, 30.0), p2=st.floats(1.01, 30.0))
@settings(max_examples=200, deadline=None)
def test_window_monotone_in_p(d, a, p1, p2):
    lo, hi = sorted((p1, p2))
    if not dl.exists_window(dl.ModelParams(d, a, lo)):
        assert not dl.exists_window(dl.ModelParams(d, a, hi))
    # above the critical exponent the window is closed whenever d > 2(1-a)
    if d > 2.0 * (1.0 - a):
        p_star = (d + 2.0 * (1.0 - a)) / (d - 2.0 * (1.0 - a))
        assert not dl.exists_window(dl.ModelParams(d, a, p_star + 1e-9))


def _laws_in_d_and_a(d, a, p):
    """The window, p_c, Pohozaev coefficient and mass exponent as the paper spells them."""
    p_c = 1.0 + 4.0 * (1.0 - a) / d
    return (0.5 - 1.0 / (p + 1.0) < (1.0 - a) / d, p_c,
            d * (p - 1.0) / (2.0 * (p + 1.0) * (1.0 - a)), 2.0 / (p - 1.0) - d / (2.0 * (1.0 - a)),
            abs(p - p_c) < DEGENERATE_BAND * p_c)


# The lattice's points on the window's edge, p = (D+2)/(D-2): D = 4 at p = 3, D = 6
# at p = 2, D = 8/3 at p = 7 and D = 3 at p = 5.
@example(d=2, a=0.5, p=3.0, omega=1.0, tail=1e-12)
@example(d=1, a=0.75, p=3.0, omega=1.0, tail=1e-12)
@example(d=3, a=0.25, p=3.0, omega=1.0, tail=1e-7)
@example(d=3, a=0.5, p=2.0, omega=1.0, tail=1e-7)
@example(d=2, a=0.25, p=7.0, omega=1.5, tail=1e-12)
@example(d=3, a=0.0, p=5.0, omega=1.0, tail=1e-7)
@given(d=st.integers(1, 6), a=st.floats(0.0, 0.99), p=st.floats(1.001, 50.0),
       omega=st.floats(1e-3, 1e3), tail=st.floats(1e-16, 1e-3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_laws_in_D_are_the_laws_in_d_and_a(d, a, p, omega, tail):
    params = dl.ModelParams(d, a, p, omega)
    window, p_c, coeff, exponent, degenerate = _laws_in_d_and_a(d, a, p)
    assert effective_dimension(params) == d / (1.0 - a)
    assert dl.exists_window(params) is window
    assert is_degenerate(params) is degenerate
    for value, reference in ((dl.critical_power(params), p_c),
                             (pohozaev_coefficient(params), coeff),
                             (dl.mass_scaling_exponent(params), exponent)):
        assert abs(value - reference) <= 4.0 * math.ulp(reference)
    if window:
        verdict = "Degenerate" if degenerate else "Stable" if exponent > 0 else "Unstable"
        assert dl.classify_by_threshold(params).verdict == verdict
    else:
        with pytest.raises(InvalidWindowError):
            dl.classify_by_threshold(params)
    r_max = default_r_max(params, tail)     # a normal double over these ranges
    assert math.exp(-tail_rate(params) * r_max ** (1.0 - a)) == pytest.approx(tail, rel=1e-12)


def test_omega_rescale_identity(anchor_wave, anchor_params):
    out = dl.omega_rescale(anchor_wave, anchor_params)
    assert np.array_equal(out.values, anchor_wave.values)
    assert out.grid is anchor_wave.grid


def test_omega_rescale_mass_law_sech(anchor_wave, anchor_params):
    # squared mass 4 sqrt(omega): 4 at omega=1 -> 8 at omega=4
    m1 = dl.functionals.mass_of(anchor_wave.grid, anchor_wave.values)
    assert m1 == pytest.approx(4.0, rel=1e-5)
    p4 = anchor_params.with_omega(4.0)
    out = dl.omega_rescale(anchor_wave, p4)
    m4 = dl.functionals.mass_of(out.grid, out.values)
    assert m4 == pytest.approx(8.0, rel=1e-5)
    assert m4 / m1 == pytest.approx(2.0, rel=1e-12)   # exact on the scaled grid


@pytest.mark.parametrize("d,a,p,omega", [
    (1, 0.0, 3.0, 4.0), (1, 0.5, 2.0, 0.3), (2, 0.25, 2.5, 7.5), (3, 0.0, 2.0, 2.0),
])
def test_mass_scaling_exponent_law(wave_cache, d, a, p, omega):
    params, wave = wave_cache(d, a, p, n=4096)
    out = dl.omega_rescale(wave, params.with_omega(omega))
    ratio = dl.functionals.mass_of(out.grid, out.values) / \
        dl.functionals.mass_of(wave.grid, wave.values)
    assert ratio == pytest.approx(omega ** dl.mass_scaling_exponent(params), rel=1e-6)


@pytest.mark.parametrize("lam", [1.0, 2.0 ** 0.5], ids=["l2_scale", "l2_scale-stretched"])
def test_rescale_onto_a_line_is_even(anchor_wave, lam):
    # a line target reads the radial wave at |x|: the right branch is the
    # rescale onto the line's radial half, the left branch that mirrored
    line = dl.build_line_grid(20.0, 1024)
    on_line = dl.l2_scale(anchor_wave, lam, grid=line).values
    on_half = dl.l2_scale(anchor_wave, lam, grid=line.half).values
    assert on_line[line.branch(+1)].tolist() == on_half.tolist()
    assert on_line[line.branch(-1)].tolist() == on_half[::-1].tolist()


def test_l2_scale_range_error():
    # a source truncated before its tail decays cannot cover a wider target
    src_grid = dl.build_grid(1, 5.0, 256, 1.0)
    src = dl.Profile(grid=src_grid, values=np.sqrt(2.0) / np.cosh(src_grid.nodes),
                     omega=1.0)
    target = dl.build_grid(1, 10.0, 256, 1.0)
    with pytest.raises(GridRangeError):
        dl.l2_scale(src, 1.5 ** 0.5, grid=target)


@pytest.mark.parametrize("entry", [
    lambda params, wave: dl.omega_rescale(wave, params),
    lambda params, wave: dl.evaluate_identities(params, wave),
    lambda params, wave: dl.slope_and_classify(params, wave),
    lambda params, wave: dl.evolve_and_trace(params, wave, 0.01, 0.001),
    lambda params, wave: dl.minimize_weinstein(params, wave.grid),
    lambda params, wave: dl.shoot_profile(params, wave.grid),
], ids=["omega_rescale", "evaluate_identities", "slope_and_classify", "evolve_and_trace",
        "minimize_weinstein", "shoot_profile"])
def test_entry_points_refuse_a_grid_of_another_dimension(entry):
    # The d = 1 sech wave read with d = 2 params: without the check
    # evaluate_identities reports pohozaev_1 = 1.0001 and slope_and_classify
    # the verdict "Degenerate", as if they were physics.
    grid = dl.build_grid(1, 20.0, 1024, 1.0)
    wave = dl.Profile(grid=grid, values=np.sqrt(2.0) / np.cosh(grid.nodes), omega=1.0)
    with pytest.raises(InvalidParameterError, match="dimension"):
        entry(dl.ModelParams(2, 0.0, 3.0, 1.0), wave)


def test_profile_evaluator_refuses_a_line_or_a_nonpositive_profile():
    line = dl.build_line_grid(20.0, 256)
    with pytest.raises(InvalidParameterError, match="radial"):
        profile_evaluator(dl.Profile(grid=line, values=np.exp(-np.abs(line.nodes)), omega=1.0))
    grid = dl.build_grid(1, 20.0, 256)
    values = np.exp(-grid.nodes)
    values[-1] = 0.0
    with pytest.raises(InvalidParameterError, match="strictly positive"):
        profile_evaluator(dl.Profile(grid=grid, values=values, omega=1.0))
