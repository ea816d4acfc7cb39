"""Shared fixtures: expensive wave solves are cached for the whole session."""

import os
import pathlib

import numpy as np
import pytest

import degenls as dl

# Closed-form anchor (d=1, a=0, p=3, omega=1): phi = sqrt(2) sech(rho).
SQRT2 = np.sqrt(2.0)

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session", autouse=True)
def children_import_checkout():
    """Child processes (`python -m degenls.cli`) import this checkout's package.

    pytest puts `src` on its own path only; without this a child of an
    uninstalled checkout cannot import degenls.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield


def sech_values(nodes):
    return SQRT2 / np.cosh(nodes)


def band(op, scale=1.0, shift=0.0):
    """scale A + shift I of the operator op in the (1, 1) layout of `scipy.linalg.solve_banded`."""
    w = op.grid.volumes
    ab = np.zeros((3, op.grid.n), dtype=np.result_type(scale, shift, float))
    ab[0, 1:] = scale * (-op.flux[1:-1] / w[:-1])
    ab[1, :] = scale * op.diag + shift
    ab[2, :-1] = scale * (-op.flux[1:-1] / w[1:])
    return ab


@pytest.fixture(scope="session")
def anchor_params():
    return dl.ModelParams(1, 0.0, 3.0, 1.0)


@pytest.fixture(scope="session")
def anchor_grid():
    return dl.build_grid(1, 20.0, 4096, 1.0)


@pytest.fixture(scope="session")
def anchor_report(anchor_params, anchor_grid):
    return dl.minimize_weinstein(anchor_params, anchor_grid)


@pytest.fixture(scope="session")
def anchor_wave(anchor_params, anchor_report):
    return anchor_report.profile(anchor_params)


@pytest.fixture(scope="session")
def anchor_shot(anchor_params, anchor_grid):
    return dl.shoot_profile(anchor_params, anchor_grid)


@pytest.fixture(scope="session")
def wave_cache():
    """Factory for converged radial waves at omega = 1 on moderately sized grids."""
    cache = {}

    def solve(d, a, p, n=8192, tail_decades=7.0):
        key = (d, a, p, n, tail_decades)
        if key not in cache:
            params = dl.ModelParams(d, a, p, 1.0)
            from degenls.presets import default_r_max, point_grid
            # The radial wave, also at d = 1, a > 0 where sweep_grid hands out the line.
            grid = point_grid(params, n, default_r_max(params, tail=10.0 ** -tail_decades), 0.0,
                              minimizer=False)
            cache[key] = (params, dl.ground_state(params, grid))
        return cache[key]

    return solve
