import numpy as np
import pytest

import degenls as dl
from degenls.discretization import LineGrid, RadialGrid
from degenls.presets import (default_r_max, line_grading, needs_line, point_grid,
                             sweep_grading, sweep_grid)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_grading_rule(d, a):
    # An omitted gamma is sweep_grading(a) on every radial grid and
    # line_grading(a, n) on the line; sweep_grid only ends the domain sooner.
    params, n = dl.ModelParams(d, a, 2.0, 1.0), 1024
    radial = point_grid(params, n, 0.0, 0.0, minimizer=False)
    assert isinstance(radial, RadialGrid)
    assert radial.gamma == sweep_grading(a)
    assert radial.r_max == default_r_max(params)
    held = point_grid(params, n, 0.0, 0.0, minimizer=True)
    line = needs_line(params)
    assert isinstance(held, LineGrid) == line
    assert held.gamma == (line_grading(a, n) if line else sweep_grading(a))

    r_max = default_r_max(params, 1e-7)
    expected = (dl.build_line_grid(r_max, n, line_grading(a, n)) if line
                else dl.build_grid(d, r_max, n, sweep_grading(a)))
    grid = sweep_grid(params, n)
    assert type(grid) is type(expected)
    assert (grid.r_max, grid.gamma) == (expected.r_max, expected.gamma)
    assert np.array_equal(grid.nodes, expected.nodes)
    assert np.array_equal(grid.volumes, expected.volumes)


@pytest.mark.parametrize("a", [0.0, 0.25, 0.5, 0.75])
def test_omitted_gamma_spaces_edges_equally_in_s(a):
    # gamma = 1/(1-a) puts the edges (j/N)^gamma r_max at equal steps of
    # s = rho^{1-a}/(1-a), on every radial grid and on the decoupled line.
    n = 1024
    grids = [point_grid(dl.ModelParams(d, a, 2.0, 1.0), n, 0.0, 0.0, minimizer=False)
             for d in (1, 2, 3)]
    if a >= 0.5:
        line = point_grid(dl.ModelParams(1, a, 2.0, 1.0), n, 0.0, 0.0, minimizer=True)
        assert isinstance(line, LineGrid)
        grids.append(line.half)
    for grid in grids:
        s = grid.edges ** (1.0 - a) / (1.0 - a)
        assert np.allclose(np.diff(s), s[-1] / n, rtol=1e-11, atol=0.0)
