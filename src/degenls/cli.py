"""Command-line surface: groundstate, spectrum, evolve, and sweep subcommands.

Exit codes: 0 success, 2 parameter rejection, 64 usage error, 70 internal
numerical failure.  Failures emit a machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import json
import logging
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from . import functionals, spectral
from .config import RunConfig, load_config
from .discretization import LineGrid
from .dynamics import evolve_and_trace
from .exceptions import (DegenlsError, InvalidParameterError, InvalidWindowError,
                         NonConvergenceError)
from .ground_state import ground_state, minimize_and_rescale, reconcile, shoot_profile
from .model import ModelParams, classify_by_threshold, exists_window
from .presets import point_grid, sweep_grid

log = logging.getLogger("degenls")

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70
CSV_CHUNK = 256     # rows of a numeric CSV formatted per write


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_columns(path: str, header: list[str], columns) -> None:
    """A numeric CSV with csv.writer's bytes: one column per array, each value '%.17g'.

    '%.17g' % x formats as format(x, '.17g') does, and no such field needs
    quoting.  Rows are formatted CSV_CHUNK at a time, so the memory stays
    bounded on any grid.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), CSV_CHUNK):
            chunk = zip(*(column[start:start + CSV_CHUNK].tolist() for column in columns))
            fh.write("".join([line % row for row in chunk]))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))


def _emit_error(code: str, message: str) -> None:
    print(json.dumps({"error": code, "message": message}))


def cmd_groundstate(cfg: RunConfig, out: str) -> int:
    if not 0.0 < cfg.pohozaev_threshold < np.inf:
        raise InvalidParameterError(
            f"pohozaev_threshold = {cfg.pohozaev_threshold} must be positive and finite")
    params = cfg.params()
    grid = point_grid(params, cfg.n, cfg.r_max, cfg.grid_gamma, minimizer=False)
    log.info("minimizing at d=%d a=%g p=%g on N=%d r_max=%g",
             params.d, params.a, params.p, cfg.n, grid.r_max)
    report, wave = minimize_and_rescale(params, grid, tol=cfg.tol)
    identities = functionals.evaluate_identities(params, wave)

    _write_columns(os.path.join(out, "profile.csv"), ["rho", "phi"],
                   [wave.grid.nodes, wave.values])
    _write_json(os.path.join(out, "minimizer_report.json"), {
        "j_min": report.j_min, "lambda": report.lam, "kappa": report.kappa,
        "iterations": report.iterations, "residual": report.residual,
    })
    _write_json(os.path.join(out, "identity_report.json"), asdict(identities))

    if cfg.shoot:
        shot = shoot_profile(params, grid)
        _write_columns(os.path.join(out, "shooting_profile.csv"), ["rho", "phi"],
                       [shot.grid.nodes, shot.values])
        _write_json(os.path.join(out, "reconcile_report.json"), asdict(reconcile(wave, shot)))

    worst = max(identities.pohozaev_1, identities.pohozaev_2)
    if worst >= cfg.pohozaev_threshold:
        _emit_error("pohozaev-residual",
                    f"identity residual {worst:.3e} above {cfg.pohozaev_threshold:.1e}")
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    # Classify the same wave as `sweep`: the full-line minimizer at d = 1, a > 0.
    grid = point_grid(params, cfg.n, cfg.r_max, cfg.grid_gamma, minimizer=True)
    wave = ground_state(params, grid, tol=cfg.tol)
    report = spectral.slope_and_classify(params, wave)
    _write_json(os.path.join(out, "spectral_report.json"), asdict(report))
    if cfg.eigenfunctions:
        header = ["x" if isinstance(grid, LineGrid) else "rho"]
        columns = [grid.nodes]
        for sign, tag in ((+1, "plus"), (-1, "minus")):
            op = spectral.assemble_linearized(params, wave, sector=0, sign=sign)
            vals, vecs = spectral.eigenpairs(op, 3)
            for k in range(3):
                header.append(f"l_{tag}_{k}")
                columns.append(vecs[:, k])
        _write_columns(os.path.join(out, "eigenfunctions.csv"), header, columns)
    return EXIT_OK


def cmd_evolve(cfg: RunConfig, out: str) -> int:
    params = cfg.params()
    grid = point_grid(params, cfg.n, cfg.r_max, cfg.grid_gamma, minimizer=False)
    wave = ground_state(params, grid, tol=cfg.tol)
    if cfg.lambda_scale != 1.0:
        u0 = functionals.l2_scale(wave, cfg.lambda_scale, grid=grid)
    else:
        u0 = wave
    log.info("evolving to t=%g with dt=%g (lambda=%g)", cfg.t_final, cfg.dt, cfg.lambda_scale)
    trace = evolve_and_trace(params, u0, cfg.t_final, cfg.dt,
                             record_every=cfg.record_every)
    _write_columns(os.path.join(out, "trace.csv"),
                   ["t", "V", "P", "mass", "energy", "gradnorm", "Lp1_norm"],
                   [trace.times, trace.v, trace.p_values, trace.mass, trace.energy,
                    trace.gradnorm, trace.lp1_norm])
    _write_columns(os.path.join(out, "final_state.csv"), ["rho", "re_u", "im_u"],
                   [grid.nodes, trace.final_u.real, trace.final_u.imag])
    _write_json(os.path.join(out, "evolution_summary.json"), {
        "blowup_flag": bool(trace.blowup_flag),
        "blowup_time": None if np.isnan(trace.blowup_time) else trace.blowup_time,
        "halt_reason": trace.halt_reason,
        "final_time": float(trace.times[-1]),
        "mass_drift": float(abs(trace.mass[-1] - trace.mass[0]) / trace.mass[0]),
        "energy_drift": float(abs(trace.energy[-1] - trace.energy[0])
                              / max(abs(trace.energy[0]), 1e-300)),
        "solves": trace.solves,
    })
    return EXIT_OK


SWEEP_HEADER = ["a", "p", "p_c", "slope", "n_plus", "gap_minus",
                "verdict_spectral", "verdict_threshold",
                "pohozaev_1", "pohozaev_2", "error"]


def _sweep_point(args) -> dict[str, str]:
    """The sweep.csv columns one point fills, by SWEEP_HEADER name."""
    d, a, p, n, tol = args
    row = {"a": _fmt(a), "p": _fmt(p)}
    try:
        params = ModelParams(d, a, p, 1.0)
    except InvalidParameterError as exc:
        return {**row, "error": str(exc)}
    if not exists_window(params):
        return {**row, "error": "existence-window"}
    try:
        grid = sweep_grid(params, n=n)
        wave = ground_state(params, grid, tol=tol)
        identities = functionals.evaluate_identities(params, wave)
        report = spectral.slope_and_classify(params, wave)
        threshold = classify_by_threshold(params)
    except DegenlsError as exc:
        return {**row, "error": f"{type(exc).__name__}: {exc}"}
    return {**row, "p_c": _fmt(report.threshold), "slope": _fmt(report.slope),
            "n_plus": str(report.n_plus), "gap_minus": _fmt(report.gap_minus),
            "verdict_spectral": report.verdict, "verdict_threshold": threshold.verdict,
            "pohozaev_1": _fmt(identities.pohozaev_1),
            "pohozaev_2": _fmt(identities.pohozaev_2)}


def cmd_sweep(cfg: RunConfig, out: str, threads: int) -> int:
    points = [(cfg.sweep_d, a, p, cfg.sweep_n, cfg.tol)
              for a in cfg.sweep_a_values for p in cfg.sweep_p_values]
    # A process pool forks all its workers at the first submit: never more than points.
    workers = min(threads, len(points))
    results = {}
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for (_, a, p, *_), row in zip(points, mapper(_sweep_point, points)):
            results[(a, p)] = row
            log.info("sweep point a=%g p=%g done", a, p)
    _write_csv(os.path.join(out, "sweep.csv"), SWEEP_HEADER,
               ([results[key].get(col, "") for col in SWEEP_HEADER] for key in sorted(results)))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degenls",
        description="Solitary waves of the power-degenerate NLS: profiles, "
                    "identities, spectral stability, evolution.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("groundstate", "solve the wave profile and verify identities"),
            ("spectrum", "classify spectral stability of the wave"),
            ("evolve", "run the radial time evolution and virial trace"),
            ("sweep", "reproduce the stability phase diagram over (a, p)")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the INI config file")
        cmd.add_argument("--out", default=".", help="output directory (created if missing)")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker processes (default: env DEGENLS_THREADS or 1)")
        cmd.add_argument("--verbose", action="store_true", help="log progress to stderr")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0

    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        stream=sys.stderr, format="%(name)s: %(message)s")
    raw_threads = args.threads if args.threads is not None \
        else os.environ.get("DEGENLS_THREADS", "1")
    try:
        threads = int(raw_threads)
    except ValueError:
        threads = 0
    if threads < 1:
        print(f"usage error: thread count must be a positive integer, got {raw_threads!r}",
              file=sys.stderr)
        return EXIT_USAGE

    if not os.path.isfile(args.config):
        print(f"usage error: config file not found: {args.config}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
    except (InvalidParameterError, configparser.Error, ValueError) as exc:
        print(f"usage error: bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(args.out, exist_ok=True)
    try:
        if args.command == "groundstate":
            return cmd_groundstate(cfg, args.out)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.out)
        if args.command == "evolve":
            return cmd_evolve(cfg, args.out)
        return cmd_sweep(cfg, args.out, threads)
    except (InvalidWindowError, InvalidParameterError) as exc:
        _emit_error("existence-window" if isinstance(exc, InvalidWindowError)
                    else "invalid-parameter", str(exc))
        return EXIT_PARAMS
    except NonConvergenceError as exc:
        _emit_error("non-convergence", str(exc))
        return EXIT_NUMERIC
    except DegenlsError as exc:
        _emit_error("numerical-failure", f"{type(exc).__name__}: {exc}")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
