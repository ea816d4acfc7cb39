import contextlib
import csv
import importlib
import io
import json
import logging
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenls as dl
from degenls.cli import main
from degenls.exceptions import InvalidParameterError, SingularLPlusError


def test_config_loads_retired_keys(tmp_path):
    # [solver] max_iter, [spectral] l_max, [sweep] tail_decades and [output]
    # seed / dir load and are dropped
    path = tmp_path / "old.ini"
    path.write_text("[model]\nd = 2\n\n[solver]\nmax_iter = 3\n\n"
                    "[spectral]\nl_max = 5\neigenfunctions = true\n\n"
                    "[sweep]\ntail_decades = 5.0\n\n"
                    "[output]\nseed = 7\ndir = runs/old\n")
    assert dl.load_config(path) == dl.RunConfig(d=2, eigenfunctions=True)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nd = 1\nbogus = 3\n")
    with pytest.raises(InvalidParameterError):
        dl.load_config(path)
    path.write_text("[nosuch]\nx = 1\n")
    with pytest.raises(InvalidParameterError):
        dl.load_config(path)


def test_config_reads_booleans(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[solver]\nshoot = off\n")
    assert dl.load_config(path).shoot is False
    path.write_text("[solver]\nshoot = maybe\n")
    with pytest.raises(InvalidParameterError, match="boolean"):
        dl.load_config(path)


def _write(tmp_path, body):
    path = tmp_path / "cfg.ini"
    path.write_text(body)
    return str(path)


ANCHOR = """
[model]
d = 1
a = 0.0
p = 3.0

[grid]
n = 4096
r_max = 20.0
gamma = 1.0

[solver]
pohozaev_threshold = 1e-5
"""


def test_cli_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["groundstate", "--config", str(tmp_path / "none.ini")]) == 64


def test_cli_bad_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nbogus = 3\n")
    assert main(["groundstate", "--config", str(path), "--out", str(tmp_path)]) == 64
    assert "bad config" in capsys.readouterr().err


def test_cli_bad_flags_are_usage_errors():
    assert main(["frobnicate"]) == 64
    assert main(["groundstate"]) == 64          # --config required


@pytest.mark.parametrize("command", ["groundstate", "spectrum", "evolve"])
def test_cli_invalid_window_exits_2(tmp_path, capsys, command):
    cfg = _write(tmp_path, "[model]\nd = 3\na = 0.5\np = 5.0\n")
    code = main([command, "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "existence-window"


@pytest.mark.parametrize("command, setting", [
    ("evolve", "[dynamics]\ndt = 0.0"),
    ("evolve", "[dynamics]\ndt = -0.001"),
    ("evolve", "[dynamics]\nt_final = -1.0"),
    ("evolve", "[dynamics]\nrecord_every = 0"),
    ("evolve", "[dynamics]\nt_final = 0.01\ndt = 5e-324"),
    ("groundstate", "[solver]\ntol = 0.0"),
    ("groundstate", "[solver]\ntol = -1e-8"),
])
def test_cli_out_of_range_number_exits_2(tmp_path, capsys, command, setting):
    model_and_grid = ANCHOR.replace("n = 4096", "n = 1024").split("[solver]")[0]
    cfg = _write(tmp_path, model_and_grid + setting + "\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid-parameter"


def test_cli_evolve_refuses_too_many_steps(tmp_path, capsys):
    # t_final / dt = 1e298 steps: refused before any step instead of running until killed
    model_and_grid = ANCHOR.replace("n = 4096", "n = 256").split("[solver]")[0]
    cfg = _write(tmp_path, model_and_grid + "[dynamics]\nt_final = 0.01\ndt = 1e-300\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "invalid-parameter"


def test_column_writer_bytes_match_csv_writer(tmp_path, monkeypatch):
    cli = importlib.import_module("degenls.cli")
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0])
    columns = [special, np.arange(special.size, dtype=float) * np.pi, special[::-1].copy()]
    header = ["x", "y", "z"]
    cli._write_csv(str(tmp_path / "rows.csv"), header,
                   ([cli._fmt(x) for x in row] for row in zip(*columns)))
    monkeypatch.setattr(cli, "CSV_CHUNK", 3)    # rows cross chunk boundaries
    cli._write_columns(str(tmp_path / "columns.csv"), header, columns)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_cli_groundstate_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, ANCHOR)
    out = tmp_path / "gs"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "profile.csv").read_text().splitlines()
    assert rows[0] == "rho,phi"
    assert len(rows) == 4097
    minimizer = json.loads((out / "minimizer_report.json").read_text())
    assert minimizer["kappa"] == pytest.approx(16.0 / 3.0, rel=1e-3)
    identities = json.loads((out / "identity_report.json").read_text())
    assert set(identities) == {"mass", "energy", "j", "pohozaev_1", "pohozaev_2",
                               "p", "alpha"}
    assert identities["mass"] == pytest.approx(4.0, rel=1e-4)


def test_cli_verbose_groundstate_logs_shooting(tmp_path, capsys, caplog):
    # --verbose shows shooting's work on a degenls child logger, not on stdout
    cfg = _write(tmp_path, ANCHOR.replace("[solver]\n", "[solver]\nshoot = true\n"))
    with caplog.at_level(logging.INFO, logger="degenls"):
        assert main(["groundstate", "--config", cfg, "--out", str(tmp_path / "gs"),
                     "--verbose"]) == 0
    shooting = [r.getMessage() for r in caplog.records if r.name == "degenls.ground_state"]
    assert len(shooting) == 1 and "accepted steps" in shooting[0]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("d, a, p, omega", [(2, 0.0, 2.5, 1.5), (1, 0.25, 2.0, 1.0),
                                             (1, 0.5, 2.0, 1.0)])
def test_cli_groundstate_default_grid(tmp_path, capsys, d, a, p, omega):
    # [grid] gives n only: presets.point_grid sizes the domain and grading
    cfg = _write(tmp_path, f"[model]\nd = {d}\na = {a}\np = {p}\nomega = {omega}\n\n"
                           "[grid]\nn = 16384\n\n[solver]\nshoot = true\n")
    out = tmp_path / "gs"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["identity_report.json", "minimizer_report.json",
                                       "profile.csv", "reconcile_report.json",
                                       "shooting_profile.csv"]
    identities = json.loads((out / "identity_report.json").read_text())
    assert max(identities["pohozaev_1"], identities["pohozaev_2"]) < 1e-6


@pytest.mark.parametrize("command", ["groundstate", "spectrum", "evolve"])
@pytest.mark.parametrize("n", [0, 1, 15])
def test_cli_too_few_cells_exits_2(tmp_path, capsys, command, n):
    # d = 1, a > 0: spectrum lays out the line, whose grading takes log2(n)
    cfg = _write(tmp_path, f"[model]\nd = 1\na = 0.25\np = 3.0\n\n[grid]\nn = {n}\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "invalid-parameter",
                       "message": f"need at least 16 cells, got {n}"}


@pytest.mark.parametrize("command", ["groundstate", "spectrum", "evolve"])
@pytest.mark.parametrize("key, value", [("r_max", "-20"), ("gamma", "nan"), ("gamma", "-1")])
def test_cli_bad_grid_value_exits_2(tmp_path, capsys, command, key, value):
    # only 0 (the RunConfig default) leaves a [grid] value to the rule; the short
    # t_final keeps an evolve run that is not refused cheap
    cfg = _write(tmp_path, f"[model]\nd = 1\na = 0.25\np = 3.0\n\n"
                           f"[grid]\nn = 1024\n{key} = {value}\n\n[dynamics]\nt_final = 0.01\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "invalid-parameter",
                       "message": f"{key} must be positive and finite, got {float(value)}"}


def test_cli_evolve_refuses_infinite_lambda_scale(tmp_path, capsys):
    cfg = _write(tmp_path, ANCHOR.replace("n = 4096", "n = 1024")
                 + "\n[dynamics]\nt_final = 0.01\ndt = 0.001\nlambda_scale = inf\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "ev")]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "invalid-parameter",
                       "message": "scale factor must be positive and finite, got inf"}


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
def test_cli_refuses_pohozaev_threshold_before_any_work(tmp_path, capsys, value):
    # a threshold that is not positive and finite is a bad parameter: nan
    # would switch the gate off, and one at or below 0 would fail every run
    cfg = _write(tmp_path, ANCHOR.replace("pohozaev_threshold = 1e-5",
                                          f"pohozaev_threshold = {value}"))
    out = tmp_path / "out"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "invalid-parameter", "message":
                       f"pohozaev_threshold = {float(value)} must be positive and finite"}
    assert not (out / "profile.csv").exists()


@pytest.mark.parametrize("setting, message", [
    ("p = inf", "nonlinearity power must be finite and exceed 1, got inf"),
    ("p = 3.0\nomega = inf", "frequency must be positive and finite, got inf"),
], ids=["p", "omega"])
def test_cli_refuses_infinite_power_and_frequency(tmp_path, capsys, setting, message):
    cfg = _write(tmp_path, ANCHOR.replace("p = 3.0", setting))
    out = tmp_path / "out"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "invalid-parameter", "message": message}
    assert not (out / "profile.csv").exists()


def test_cli_groundstate_gate_exits_70(tmp_path, capsys):
    # at n = 1024 the identity residual is above the anchor's 1e-5 threshold;
    # the files are written before the gate is applied
    cfg = _write(tmp_path, ANCHOR.replace("n = 4096", "n = 1024"))
    out = tmp_path / "gs"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 70
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "pohozaev-residual"
    identities = json.loads((out / "identity_report.json").read_text())
    worst = max(identities["pohozaev_1"], identities["pohozaev_2"])
    assert payload["message"] == f"identity residual {worst:.3e} above 1.0e-05"
    assert (out / "profile.csv").exists()


def test_cli_groundstate_unreachable_tol_exits_70(tmp_path, capsys):
    # the Newton polish stops at its rounding floor, above tol = 1e-16
    cfg = _write(tmp_path, ANCHOR.replace("n = 4096", "n = 1024")
                 .replace("[solver]\n", "[solver]\ntol = 1e-16\n"))
    out = tmp_path / "gs"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 70
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "non-convergence"
    assert "rounding floor" in payload["message"]
    assert not (out / "profile.csv").exists()


def test_cli_numerical_failure_exits_70(tmp_path, capsys, monkeypatch):
    # any other DegenlsError is a numerical failure, named in the message
    def singular(params, wave):
        raise SingularLPlusError("L+ sector 0 is singular")

    monkeypatch.setattr(importlib.import_module("degenls.spectral"), "slope_and_classify",
                        singular)
    cfg = _write(tmp_path, ANCHOR.replace("n = 4096", "n = 1024"))
    out = tmp_path / "sp"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 70
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload == {"error": "numerical-failure",
                       "message": "SingularLPlusError: L+ sector 0 is singular"}
    assert not (out / "spectral_report.json").exists()


def test_cli_groundstate_minimizes_once_at_shifted_omega(tmp_path, monkeypatch):
    # omega != 1: minimizer_report.json describes the one minimization whose
    # wave is written, profile = kappa^{1/(p-1)} phi_normalized rescaled to omega
    # (the package attribute ground_state is the function, not the module)
    solver = importlib.import_module("degenls.ground_state")
    reports = []
    original = solver.minimize_weinstein

    def counted(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(solver, "minimize_weinstein", counted)
    monkeypatch.setattr(importlib.import_module("degenls.cli"), "minimize_weinstein", counted,
                        raising=False)
    cfg = _write(tmp_path, ANCHOR.replace("p = 3.0", "p = 3.0\nomega = 2.0"))
    out = tmp_path / "gs"
    assert main(["groundstate", "--config", cfg, "--out", str(out)]) == 0
    assert len(reports) == 1
    rep, params = reports[0], dl.ModelParams(1, 0.0, 3.0, 2.0)
    wave = dl.omega_rescale(rep.profile(params), params)
    written = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)
    assert np.array_equal(written[:, 0], wave.grid.nodes)
    assert np.array_equal(written[:, 1], wave.values)
    minimizer = json.loads((out / "minimizer_report.json").read_text())
    assert minimizer == {"j_min": rep.j_min, "lambda": rep.lam, "kappa": rep.kappa,
                         "iterations": rep.iterations, "residual": rep.residual}


@pytest.mark.parametrize("flag, env", [(None, "abc"), (None, "0"), (None, "-3"), (None, "2.5"),
                                       ("0", None), ("-3", None), ("abc", None),
                                       ("0", "2")])
def test_cli_bad_thread_count_is_usage_error(tmp_path, monkeypatch, capsys, flag, env):
    if env is None:
        monkeypatch.delenv("DEGENLS_THREADS", raising=False)
    else:
        monkeypatch.setenv("DEGENLS_THREADS", env)
    argv = ["sweep", "--config", _write(tmp_path, SWEEP), "--out", str(tmp_path / "out")]
    assert main(argv + ([] if flag is None else ["--threads", flag])) == 64
    assert "thread" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_spectrum_outputs(tmp_path):
    cfg = _write(tmp_path, ANCHOR + "\n[spectral]\neigenfunctions = true\n")
    out = tmp_path / "sp"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "spectral_report.json").read_text())
    assert report["verdict"] == "Stable" and report["n_plus"] == 1
    assert len(report["sectors"]) == 2
    assert (out / "eigenfunctions.csv").exists()


def test_cli_evolve_outputs(tmp_path):
    cfg = _write(tmp_path, ANCHOR.replace("n = 4096", "n = 1024") + """
[dynamics]
t_final = 0.02
dt = 0.001
""")
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,V,P,mass,energy,gradnorm,Lp1_norm"
    assert len(trace) == 22
    summary = json.loads((out / "evolution_summary.json").read_text())
    assert summary["blowup_flag"] is False
    assert summary["mass_drift"] < 1e-9
    assert 2 * 20 <= summary["solves"] <= 3 * 20 + 4      # 20 steps, a polish each
    assert (out / "final_state.csv").exists()


def test_cli_evolve_scales_the_wave(tmp_path):
    # lambda_scale = 1.013 dilates the wave at fixed mass onto the same grid:
    # V = integral |x|^{2(1-a)} |u|^2 scales by lambda^{-2(1-a)}
    lam = 1.013
    cfg = _write(tmp_path, ANCHOR.replace("n = 4096", "n = 1024") + f"""
[dynamics]
t_final = 0.01
dt = 0.001
lambda_scale = {lam}
""")
    out = tmp_path / "ev"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    params = dl.ModelParams(1, 0.0, 3.0)
    grid = dl.build_grid(1, 20.0, 1024, 1.0)
    wave = dl.ground_state(params, grid)
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert trace[0, 3] == pytest.approx(dl.functionals.mass_of(grid, wave.values), rel=1e-4)
    v_wave = dl.functionals.variance_of(params, grid, wave.values)
    assert trace[0, 1] == pytest.approx(lam ** -2.0 * v_wave, rel=1e-4)
    final = np.loadtxt(out / "final_state.csv", delimiter=",", skiprows=1)
    assert np.array_equal(final[:, 0], grid.nodes)


def test_cli_sweep_records_infinite_power_in_row(tmp_path):
    cfg = _write(tmp_path, "[sweep]\nd = 1\na_values = 0.0\np_values = inf\nn = 1024\n")
    out = tmp_path / "inf"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert [(row["p"], row["error"]) for row in rows] \
        == [("inf", "nonlinearity power must be finite and exceed 1, got inf")]


@pytest.mark.parametrize("model, grid, message", [
    ("p = 1e308", "", "integral |v|^(p+1) of a unit iterate underflows to 0"),
    ("p = 3.0", "r_max = 1e-300", "the operator on the grid of 1024 cells to r_max = 1e-300"),
    ("a = 0.25\np = 1e300\nomega = 1e30", "", "integral |v|^(p+1) of a unit iterate"),
    ("p = 1.0000001", "", "the amplitude"),
    ("p = 3.0\nomega = 1e-300", "", "integral |u|^(p+1) underflows to 0"),
    ("d = 2\na = 0.999999\np = 1.5\nomega = 1e-300", "", "the default r_max"),
    ("d = 2\na = 0.999\np = 1.001\nomega = 1e3", "", "the default r_max"),
], ids=["p-1e308", "r_max-1e-300", "p-1e300-omega-1e30", "p-1.0000001", "omega-1e-300",
        "default-r_max-overflows", "default-r_max-underflows"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_float_out_of_range_exits_70(tmp_path, capsys, model, grid, message):
    # a double that overflows, or a divisor that underflows to 0, is a
    # numerical failure with its JSON, not a traceback
    cfg = _write(tmp_path, f"[model]\n{model}\n\n[grid]\nn = 1024\n{grid}\n")
    assert main(["groundstate", "--config", cfg, "--out", str(tmp_path / "out")]) == 70
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["error"] == "numerical-failure"
    assert payload["message"].startswith("FloatRangeError: " + message)


@pytest.mark.parametrize("p_values, message", [
    ("1.0000001, 3.0", "FloatRangeError: the amplitude"),
    ("1e300, 3.0", "FloatRangeError: integral |v|^(p+1) of a unit iterate underflows to 0"),
], ids=["p-1.0000001", "p-1e300"])
def test_cli_sweep_keeps_the_rows_past_a_float_out_of_range(tmp_path, p_values, message):
    cfg = _write(tmp_path, f"[sweep]\nd = 1\na_values = 0.0\np_values = {p_values}\nn = 1024\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = {row["p"]: row for row in csv.DictReader((out / "sweep.csv").read_text().splitlines())}
    failed, = (row for p, row in rows.items() if p != "3")
    assert failed["error"].startswith(message)
    assert rows["3"]["verdict_spectral"] == "Stable" and rows["3"]["error"] == ""


EXTREMES = {
    "d": (1, 2, 3), "a": (0.0, 0.25, 0.999999, 0.9999999999999999),
    "p": (1.0000001, 1.5, 3.0, 1e300, 1e308), "omega": (1e-300, 1e-30, 1.0, 1e30, 1e300),
    "r_max": (None, 1e-300, 1e-30, 20.0, 1e300), "gamma": (None, 1e-300, 1.0, 100.0, 1e300),
    "t_final": (0.0, 1e-300, 0.002, 1e300), "dt": (1e-300, 1e-3, 1e300),
    "lambda_scale": (1e-300, 0.5, 1.013, 1e300), "record_every": (1, 10 ** 9),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(command=st.sampled_from(["groundstate", "spectrum", "evolve", "sweep"]),
       values=st.fixed_dictionaries({k: st.sampled_from(v) for k, v in EXTREMES.items()}))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_cli_exit_codes_hold_at_extreme_values(tmp_path_factory, command, values):
    # the contract: 0, 2 or 70, a failure with its JSON, never a traceback;
    # every value loads and the runs stay small (n = 512, at most 2 steps)
    v = values
    grid = "".join(f"{k} = {v[k]!r}\n" for k in ("r_max", "gamma") if v[k] is not None)
    body = (f"[model]\nd = {v['d']}\na = {v['a']!r}\np = {v['p']!r}\nomega = {v['omega']!r}\n"
            f"[grid]\nn = 512\n{grid}[dynamics]\n"
            + "".join(f"{k} = {v[k]!r}\n" for k in ("t_final", "dt", "lambda_scale",
                                                     "record_every"))
            + f"[sweep]\nd = {v['d']}\na_values = {v['a']!r}\np_values = {v['p']!r}\nn = 512\n")
    tmp = tmp_path_factory.mktemp("extreme")
    cfg = tmp / "cfg.ini"
    cfg.write_text(body)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, "--config", str(cfg), "--out", str(tmp / "out"), "--threads", "1"])
    assert code in (0, 2, 70)
    if code:
        assert "error" in json.loads(stdout.getvalue().strip().splitlines()[-1])


SWEEP = """
[sweep]
d = 1
a_values = 0.0
p_values = 3.0, 7.0
n = 8192
tail_decades = 7.0
"""


def test_cli_sweep_deterministic(tmp_path):
    cfg = _write(tmp_path, SWEEP)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    assert b1 == (out2 / "sweep.csv").read_bytes()
    rows = b1.decode().splitlines()
    assert rows[0].startswith("a,p,p_c,slope,n_plus,gap_minus")
    assert len(rows) == 3
    stable = rows[1].split(",")
    unstable = rows[2].split(",")
    assert stable[6] == stable[7] == "Stable"
    assert unstable[6] == unstable[7] == "Unstable"


def test_cli_sweep_empty_grid(tmp_path):
    cfg = _write(tmp_path, "[sweep]\nd = 1\na_values =\np_values = 3.0\n")
    out = tmp_path / "empty"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1          # header only


def test_cli_sweep_invalid_point_recorded_in_row(tmp_path):
    cfg = _write(tmp_path, "[sweep]\nd = 3\na_values = 0.5\np_values = 5.0\nn = 1024\n")
    out = tmp_path / "bad"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].endswith("existence-window")


@pytest.mark.parametrize("n", [0, 1, 15])
def test_cli_sweep_too_few_cells_recorded_in_row(tmp_path, n):
    cfg = _write(tmp_path, f"[sweep]\nd = 1\na_values = 0.0, 0.25\np_values = 3.0\nn = {n}\n")
    out = tmp_path / "few"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert [row["error"] for row in rows] \
        == [f"InvalidParameterError: need at least 16 cells, got {n}"] * 2


def test_cli_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("DEGENLS_THREADS", "2")
    cfg = _write(tmp_path, SWEEP.replace("3.0, 7.0", "3.0"))
    out = tmp_path / "thr"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()


def test_cli_sweep_pool_size_and_progress(tmp_path, monkeypatch, caplog):
    # Two points outside the existence window (no solve); a pool never gets
    # more workers than points, and each point is logged on either path.
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("degenls.cli.ProcessPoolExecutor", InProcessPool)
    caplog.set_level("INFO", logger="degenls")
    cfg = _write(tmp_path, "[sweep]\nd = 1\na_values = 0.9\np_values = 5.0, 7.0\n")
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--verbose"]
    for threads, pools in ((1, []), (5000, [2])):
        caplog.clear()
        assert main(argv + ["--threads", str(threads)]) == 0
        assert made == pools
        assert [r.getMessage() for r in caplog.records if "sweep point" in r.getMessage()] \
            == ["sweep point a=0.9 p=5 done", "sweep point a=0.9 p=7 done"]


def test_cli_sweep_records_stalled_point(tmp_path):
    # No defect reaches tol = 1e-300: the point's flow stalls and its row says so
    cfg = _write(tmp_path, "[solver]\ntol = 1e-300\n\n"
                           "[sweep]\nd = 1\na_values = 0.0\np_values = 3.0\nn = 1024\n")
    out = tmp_path / "stalled"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    row = next(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
    assert row["error"].startswith("NonConvergenceError")


LINE_POINT = """
[model]
d = 1
a = 0.25
p = 3.0

[grid]
n = 8192

[spectral]
eigenfunctions = true

[sweep]
d = 1
a_values = 0.25
p_values = 3.0
n = 8192
"""


def test_cli_spectrum_and_sweep_agree_on_line(tmp_path):
    # d = 1, a > 0: both commands classify the full-line minimizer, not the
    # even wave, which is a saddle with n_plus = 2 there
    cfg = _write(tmp_path, LINE_POINT)
    sp, sw = tmp_path / "sp", tmp_path / "sw"
    assert main(["spectrum", "--config", cfg, "--out", str(sp)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(sw)]) == 0
    report = json.loads((sp / "spectral_report.json").read_text())
    assert report["n_plus"] == 1 and report["verdict"] == "Stable"
    row = next(csv.DictReader((sw / "sweep.csv").read_text().splitlines()))
    assert row["error"] == ""
    assert row["n_plus"] == "1"
    assert row["verdict_spectral"] == row["verdict_threshold"] == "Stable"
    eig = (sp / "eigenfunctions.csv").read_text().splitlines()
    assert eig[0].split(",")[0] == "x"
    assert len(eig) == 2 * 8192 + 1
