import dataclasses
import logging

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

import degenls as dl
import degenls.dynamics
from degenls.dynamics import CrankNicolson
from degenls.exceptions import InvalidParameterError
from degenls.functionals import lp_power_of, mass_of


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


def test_subcritical_scaled_run_stays_bounded(evo_setup):
    params, grid, wave = evo_setup
    u0 = dl.l2_scale(wave, 1.1, grid=grid)
    trace = dl.evolve_and_trace(params, u0, t_final=1.0, dt=1e-3)
    assert not trace.blowup_flag
    assert np.max(trace.gradnorm) < 10.0 * trace.gradnorm[0]


def test_trace_csv_columns(evo_setup, tmp_path):
    params, grid, wave = evo_setup
    trace = dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,V,P,mass,energy,gradnorm,Lp1_norm"
    assert len(path.read_text().splitlines()) == trace.times.size + 1


def test_evolve_refuses_a_bare_array(evo_setup):
    # The grid comes with the Profile; a bare array carries none.
    params, grid, wave = evo_setup
    with pytest.raises(InvalidParameterError):
        dl.evolve_and_trace(params, wave.values, t_final=0.01, dt=1e-3)


@pytest.mark.parametrize("t_final, dt, record_every",
                         [(0.01, 0.0, 1), (0.01, -1e-3, 1), (-0.01, 1e-3, 1), (0.01, 1e-3, 0)])
def test_evolve_refuses_out_of_range_numbers(evo_setup, t_final, dt, record_every):
    params, _, wave = evo_setup
    with pytest.raises(InvalidParameterError):
        dl.evolve_and_trace(params, wave, t_final, dt, record_every=record_every)


class _BandedReference(CrankNicolson):
    """The stepper with every sweep solved by `solve_banded` on the unfactored band."""

    def solve(self, rhs):
        return solve_banded((1, 1), self.op.banded(-0.5, 1j / self.dt), rhs)


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
    ref = solve_banded((1, 1), stepper.op.banded(-0.5, 1j / dt), rhs)
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

    calls = {"zgttrf": 0, "zgttrs": 0}

    def counting(name):
        routine = getattr(degenls.dynamics, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)
        return counted

    monkeypatch.setattr(degenls.dynamics, "solve_banded", refuse)
    for name in calls:
        monkeypatch.setattr(degenls.dynamics, name, counting(name))
    trace = dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
    assert trace.times.size == 11 and trace.halt_reason == ""
    assert calls["zgttrf"] == 1
    assert trace.solves == calls["zgttrs"] >= 2 * 10


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
    factor = degenls.dynamics.zgttrf

    def singular(*args, **kwargs):
        *lu, _ = factor(*args, **kwargs)
        return (*lu, 1)

    monkeypatch.setattr(degenls.dynamics, "zgttrf", singular)
    with pytest.raises(LinAlgError):
        CrankNicolson(params, grid, 1e-3)
    with pytest.raises(LinAlgError):
        dl.evolve_and_trace(params, wave, t_final=0.01, dt=1e-3)
