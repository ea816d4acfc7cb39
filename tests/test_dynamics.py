import dataclasses
import logging

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

import degenls as dl
import degenls.discretization
import degenls.dynamics
from degenls.dynamics import CrankNicolson
from degenls.exceptions import FixedPointDivergenceError, InvalidParameterError
from degenls.functionals import lp_power_of, mass_of, variance_of
from tests.conftest import band


@pytest.fixture(scope="module")
def evo_setup():
    params = dl.ModelParams(1, 0.0, 3.0, 1.0)
    grid = dl.build_grid(1, 20.0, 2048, 1.0)
    wave = dl.ground_state(params, grid)
    return params, grid, wave


def test_zero_field_stays_zero(evo_setup):
    params, grid, _ = evo_setup
    stepper = CrankNicolson(params, grid, 1e-3)
    out = stepper.step(np.zeros(grid.n, dtype=complex))
    assert np.all(out == 0.0)


def test_single_step_conserves_mass(evo_setup):
    params, grid, wave = evo_setup
    u = wave.values.astype(complex)
    new = CrankNicolson(params, grid, 1e-3).step(u)
    m0 = mass_of(grid, u)
    m1 = mass_of(grid, new)
    assert abs(m1 - m0) / m0 < 1e-10


def test_standing_wave_short_horizon(evo_setup):
    params, grid, wave = evo_setup
    trace = dl.evolve_and_trace(params, wave, t_final=0.5, dt=1e-3)
    assert not trace.blowup_flag and trace.halt_reason == ""
    assert np.max(np.abs(trace.mass - trace.mass[0])) / trace.mass[0] < 1e-10
    assert np.max(np.abs(trace.energy - trace.energy[0])) / abs(trace.energy[0]) < 1e-8
    dev = np.sqrt(np.sum(grid.volumes * (np.abs(trace.final_u) - wave.values) ** 2))
    assert dev / np.sqrt(np.sum(grid.volumes * wave.values ** 2)) < 1e-5
    # P(u(t)) stays at the wave's Pohozaev level; V stays flat
    assert np.max(np.abs(trace.p_values)) < 1e-4
    assert (trace.v.max() - trace.v.min()) / trace.v[0] < 1e-5


def test_virial_identity_second_difference(evo_setup):
    # d^2/dt^2 V = 16 (1-a) P(u) on a run with P decisively nonzero
    params, grid, wave = evo_setup
    u0 = dl.l2_scale(wave, 1.2, grid=grid)
    errs = []
    for dt in (0.02, 0.01):
        trace = dl.evolve_and_trace(params, u0, t_final=0.4, dt=dt)
        times, d2v = trace.second_difference()
        target = 16.0 * (1.0 - params.a) * trace.p_values[1:-1]
        scale = np.max(np.abs(target))
        errs.append(np.max(np.abs(d2v - target)) / scale)
    assert errs[0] < 0.01
    assert errs[1] < 0.6 * errs[0]     # shrinks under dt refinement


@pytest.mark.parametrize("a, grid", [(0.0, dl.build_grid(1, 20.0, 2048, 1.0)),
                                     (0.25, dl.build_line_grid(12.0, 512, 1.5))],
                         ids=["radial", "line"])
def test_record_returns_the_functionals(a, grid):
    # the trace records each state from one |u| and |u|^2: the same doubles
    # as the public functionals, at t = 0 and at the last record
    params = dl.ModelParams(1, a, 3.0, 1.0)
    u0 = dl.Profile(grid=grid, values=1.2 * np.sqrt(2.0) / np.cosh(np.abs(grid.nodes)),
                    omega=1.0)
    trace = dl.evolve_and_trace(params, u0, t_final=0.01, dt=1e-3)
    assert trace.times[-1] == pytest.approx(0.01)
    for k, u in ((0, u0.values.astype(complex)), (-1, trace.final_u)):
        assert trace.mass[k] == mass_of(grid, u)
        assert trace.v[k] == variance_of(params, grid, u)
        assert trace.lp1_norm[k] == lp_power_of(grid, u, params.p + 1.0)
        assert trace.gradnorm[k] == grid.measure * dl.gradient_energy(grid, a, u)


def test_second_difference_refuses_uneven_times():
    samples = np.ones(4)
    trace = dl.VirialTrace(times=np.array([0.0, 0.1, 0.2, 0.4]), v=samples, p_values=samples,
                           mass=samples, energy=samples, gradnorm=samples, lp1_norm=samples)
    with pytest.raises(ValueError, match="uniform"):
        trace.second_difference()


def test_blowup_supercritical(wave_cache):
    params, wave = wave_cache(1, 0.0, 7.0, n=2048)
    grid = wave.grid
    u0 = dl.l2_scale(wave, 1.1, grid=grid)
    trace = dl.evolve_and_trace(params, u0, t_final=5.0, dt=1e-3)
    assert trace.blowup_flag and trace.blowup_time < 5.0
    _, d2v = trace.second_difference()
    assert np.all(d2v < 0.0)
    # p+1 norm stays above the wave's value the whole way
    lp1_wave = lp_power_of(grid, wave.values, params.p + 1.0)
    assert np.all(trace.lp1_norm > lp1_wave)
    # energy is conserved along the recorded trace (drift grows only at the
    # final collapse step) and the virial bound P(u) <= (1-a)(E(u0) - E(phi))
    # holds pointwise in time
    e_wave = dl.functionals.energy_of(params, grid, wave.values)
    bound = (1.0 - params.a) * (trace.energy[0] - e_wave)
    assert np.all(trace.p_values <= bound + 1e-10)
    early = trace.energy[: int(0.8 * trace.energy.size)]
    assert np.max(np.abs(early - early[0])) / abs(early[0]) < 1e-4


def test_gradient_growth_halts_a_run(evo_setup, monkeypatch):
    # with the factor lowered to 2, the p = 7 run above the wave's mass halts
    # on the gradient rule at the first record past twice the initial gradient
    # (t = 0.365), before its midpoint iteration stalls (t = 0.441)
    _, grid, _ = evo_setup
    params = dl.ModelParams(1, 0.0, 7.0, 1.0)
    u0 = dl.l2_scale(dl.ground_state(params, grid), 1.1, grid=grid)
    monkeypatch.setattr(degenls.dynamics, "BLOWUP_GRAD_FACTOR", 2.0)
    trace = dl.evolve_and_trace(params, u0, t_final=5.0, dt=1e-3)
    assert trace.blowup_flag and trace.halt_reason == "gradient growth"
    assert trace.blowup_time == trace.times[-1] == pytest.approx(0.365)
    assert trace.gradnorm[-1] > 2.0 * trace.gradnorm[0] >= trace.gradnorm[-2]


def test_growing_sweep_error_stops_the_iteration_early(evo_setup):
    # at dt = 3 the second sweep's change is more than 4 times the first's:
    # the step gives up after 2 solves, not MAX_INNER
    params, grid, wave = evo_setup
    stepper = CrankNicolson(params, grid, 3.0)
    with pytest.raises(FixedPointDivergenceError):
        stepper.step(wave.values.astype(complex))
    assert stepper.solves == 2 < degenls.dynamics.MAX_INNER


def test_subcritical_scaled_run_stays_bounded(evo_setup):
    params, grid, wave = evo_setup
    u0 = dl.l2_scale(wave, 1.1, grid=grid)
    trace = dl.evolve_and_trace(params, u0, t_final=1.0, dt=1e-3)
    assert not trace.blowup_flag
    assert np.max(trace.gradnorm) < 10.0 * trace.gradnorm[0]


def test_evolve_refuses_a_bare_array(evo_setup):
    # The grid comes with the Profile; a bare array carries none.
    params, grid, wave = evo_setup
    with pytest.raises(InvalidParameterError):
        dl.evolve_and_trace(params, wave.values, t_final=0.01, dt=1e-3)


@pytest.mark.parametrize("t_final, dt, record_every",
                         [(0.01, 0.0, 1), (0.01, -1e-3, 1), (-0.01, 1e-3, 1), (0.01, 1e-3, 0),
                          (0.01, 1e-3, 2.5), (0.01, 5e-324, 1)])
def test_evolve_refuses_out_of_range_numbers(evo_setup, t_final, dt, record_every):
    params, _, wave = evo_setup
    with pytest.raises(InvalidParameterError):
        dl.evolve_and_trace(params, wave, t_final, dt, record_every=record_every)


def test_evolve_refuses_more_than_max_steps_before_any_step(evo_setup, monkeypatch):
    # dt = 1e-300 asks for 1e298 steps: refused before a stepper is built
    params, _, wave = evo_setup
    monkeypatch.setattr(degenls.dynamics, "CrankNicolson", None)
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-300)


def test_evolve_takes_max_steps_and_refuses_one_more(evo_setup, monkeypatch):
    params, _, wave = evo_setup
    monkeypatch.setattr(degenls.dynamics, "MAX_STEPS", 10)
    trace = dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
    assert trace.times.size == 11
    with pytest.raises(InvalidParameterError, match="MAX_STEPS"):
        dl.evolve_and_trace(params, wave, t_final=0.011, dt=1e-3)


class _BandedReference(CrankNicolson):
    """The stepper with every sweep solved by `solve_banded` on the unfactored band."""

    def solve(self, rhs):
        return solve_banded((1, 1), band(self.op, -0.5, 1j / self.dt), rhs)


_LINE = dl.build_line_grid(12.0, 512, 1.5)


@pytest.mark.parametrize("dt", [1e-3, 0.05])
@pytest.mark.parametrize("a, grid", [
    (0.0, dl.build_grid(1, 20.0, 2048, 1.0)),
    (0.25, _LINE),      # coupled through the origin
    (0.75, _LINE),      # centre link exactly 0
], ids=["radial", "line-coupled", "line-decoupled"])
def test_factored_solve_matches_solve_banded(a, grid, dt):
    stepper = CrankNicolson(dl.ModelParams(1, a, 3.0, 1.0), grid, dt)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    ref = solve_banded((1, 1), band(stepper.op, -0.5, 1j / dt), rhs)
    out = stepper.solve(rhs.copy())
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_steps_match_the_solve_banded_loop(evo_setup):
    params, grid, wave = evo_setup
    fast, ref = CrankNicolson(params, grid, 1e-3), _BandedReference(params, grid, 1e-3)
    u = v = wave.values.astype(complex)
    for _ in range(20):
        u, v = fast.step(u), ref.step(v)
    assert np.max(np.abs(u - v)) <= 1e-13 * np.max(np.abs(v))
    assert fast.solves >= 40


def test_band_is_factored_once_per_run(evo_setup, monkeypatch):
    # A regression to refactoring on every sweep would call solve_banded again
    # or factor more than once.
    params, _, wave = evo_setup

    def refuse(*args, **kwargs):
        raise AssertionError("solve_banded called by the stepper")

    calls = {"factor": 0, "solve": 0}
    factor = dl.SectorOperator.factor

    def counted_factor(*args, **kwargs):
        calls["factor"] += 1
        solve = factor(*args, **kwargs)

        def counted_solve(rhs):
            calls["solve"] += 1
            return solve(rhs)
        return counted_solve

    monkeypatch.setattr(degenls.dynamics, "solve_banded", refuse)
    monkeypatch.setattr(dl.SectorOperator, "factor", counted_factor)
    trace = dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
    assert trace.times.size == 11 and trace.halt_reason == ""
    assert calls["factor"] == 1
    assert trace.solves == calls["solve"] >= 2 * 10


@pytest.mark.parametrize("lam", [1.0, 1.02])
def test_steps_take_three_solves(evo_setup, lam):
    # extrapolated start and contraction-rate stop: two sweeps and the polish
    # a step once the history holds two states (five a step from u itself);
    # the scaled wave moves enough that the start alone leaves a third sweep
    params, grid, wave = evo_setup
    u0 = wave if lam == 1.0 else dl.l2_scale(wave, lam, grid=grid)
    trace = dl.evolve_and_trace(params, u0, t_final=0.2, dt=1e-3)
    assert trace.halt_reason == "" and trace.times.size == 201
    assert trace.solves <= 3 * 200 + 4


def test_a_copy_of_the_last_output_starts_afresh(evo_setup):
    # the history is used only when step is fed its own last output
    params, grid, wave = evo_setup
    stepper = CrankNicolson(params, grid, 1e-3)
    u = wave.values.astype(complex)
    for _ in range(5):
        u = stepper.step(u)
    before = stepper.solves
    stepper.step(u)                    # its own last output: started from the history
    own = stepper.solves - before
    fresh = CrankNicolson(params, grid, 1e-3)
    before = stepper.solves
    assert np.array_equal(stepper.step(u.copy()), fresh.step(u.copy()))
    assert stepper.solves - before == fresh.solves > own


class _Forgetful(CrankNicolson):
    """The stepper fed a copy of each state, so every step starts from u."""

    def step(self, u):
        return super().step(u.copy())


def _assert_run_matches_forgetful_run(monkeypatch, params, u0, t_final, dt):
    trace = dl.evolve_and_trace(params, u0, t_final, dt)
    with monkeypatch.context() as patch:
        patch.setattr(degenls.dynamics, "CrankNicolson", _Forgetful)
        ref = dl.evolve_and_trace(params, u0, t_final, dt)
    assert trace.halt_reason == ref.halt_reason == ""
    assert trace.solves < ref.solves
    np.testing.assert_allclose(trace.final_u, ref.final_u, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(ref.final_u)))
    np.testing.assert_allclose(trace.mass, ref.mass, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(trace.energy, ref.energy, rtol=1e-12, atol=0.0)


def test_extrapolated_start_keeps_the_run(evo_setup, monkeypatch):
    # the start changes the sweeps, not the fixed point: 200 steps agree to
    # 1e-12 with the same run started from u on every step
    params, grid, wave = evo_setup
    u0 = dl.l2_scale(wave, 1.02, grid=grid)
    _assert_run_matches_forgetful_run(monkeypatch, params, u0, 0.2, 1e-3)


@pytest.mark.parametrize("a", [0.25, 0.75], ids=["line-coupled", "line-decoupled"])
def test_extrapolated_start_keeps_the_run_on_the_line(a, monkeypatch):
    params = dl.ModelParams(1, a, 3.0, 1.0)
    u0 = dl.Profile(grid=_LINE, values=np.sqrt(2.0) / np.cosh(2.0 * _LINE.nodes), omega=1.0)
    _assert_run_matches_forgetful_run(monkeypatch, params, u0, 0.2, 1e-3)


def test_run_logs_its_steps_and_solves(evo_setup, caplog, capsys):
    params, _, wave = evo_setup
    with caplog.at_level(logging.INFO, logger="degenls.dynamics"):
        trace = dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
    lines = [r.getMessage() for r in caplog.records if r.name == "degenls.dynamics"]
    assert len(lines) == 1
    assert f"10 steps, {trace.solves} solves" in lines[0]
    assert "halt: t_final reached" in lines[0]
    assert capsys.readouterr().out == ""


def test_nan_state_raises_instead_of_blowup(evo_setup):
    # A solver failure is not physics: it must never come back as blow-up.
    params, grid, wave = evo_setup
    values = wave.values.copy()
    values[grid.n // 2] = np.nan
    with pytest.raises(ValueError):
        CrankNicolson(params, grid, 1e-3).step(values.astype(complex))
    with pytest.raises(ValueError):
        dl.evolve_and_trace(params, dataclasses.replace(wave, values=values),
                            t_final=0.01, dt=1e-3)


def test_singular_band_raises(evo_setup, monkeypatch):
    params, grid, wave = evo_setup
    lookup = degenls.discretization.get_lapack_funcs

    def singular(*args, **kwargs):
        gttrf, gttrs = lookup(*args, **kwargs)

        def factor(*args, **kwargs):
            *lu, _ = gttrf(*args, **kwargs)
            return (*lu, 1)
        return factor, gttrs

    monkeypatch.setattr(degenls.discretization, "get_lapack_funcs", singular)
    with pytest.raises(LinAlgError):
        CrankNicolson(params, grid, 1e-3)
    with pytest.raises(LinAlgError):
        dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
