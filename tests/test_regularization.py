import re

import numpy as np
import pytest

from fluxrec import assemble_kv, find_corner, solve_completion, sweep
from fluxrec.completion import NearSingularError
from fluxrec.regularization import DegenerateCurveError, LCurve, default_grid
from fluxrec.experiments import TwinSpec, generate_reference


def _corner_model(n_left=6, n_right=7, corner=(1.0, 2.0)):
    """Two straight log-log segments with distinct slopes meeting at a point."""
    eps = np.geomspace(1e-1, 1e-6, n_left + n_right + 1)
    x = np.empty(len(eps))
    y = np.empty(len(eps))
    cx, cy = corner
    for i in range(len(eps)):
        if i < n_left:
            t = n_left - i
            x[i], y[i] = cx + 0.9 * t, cy - 0.05 * t
        elif i == n_left:
            x[i], y[i] = cx, cy
        else:
            t = i - n_left
            x[i], y[i] = cx - 0.04 * t, cy + 1.1 * t
    return LCurve(eps, np.exp(x), np.exp(y)), n_left


def test_synthetic_corner_recovered_exactly():
    curve, corner_idx = _corner_model()
    find_corner(curve)
    assert curve.corner_index == corner_idx


def test_corner_invariance_under_misfit_scaling():
    curve, corner_idx = _corner_model()
    scaled = LCurve(curve.epsilons, 7.3 * curve.misfits, curve.regularizers)
    find_corner(scaled)
    assert scaled.corner_index == corner_idx


def test_collinear_points_degenerate():
    eps = np.geomspace(1e-1, 1e-5, 5)
    curve = LCurve(eps, np.exp(-np.arange(5.0)), np.exp(2.0 * np.arange(5)))
    with pytest.raises(DegenerateCurveError):
        find_corner(curve)


def test_small_grid_rejected(desk_mesh, desk_A):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    system = assemble_kv(desk_mesh, desk_A, data)
    with pytest.raises(ValueError):
        sweep(system, data, np.array([1e-3]))
    with pytest.raises(ValueError):
        sweep(system, data, np.array([1e-6, 1e-5, 1e-4, 1e-3, 1e-2]))  # increasing


@pytest.mark.parametrize("grid", [
    [1e-1, np.nan, 1e-2, 1e-3, 1e-4, 1e-5],
    [np.inf, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5],
    [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, -np.inf],
])
def test_non_finite_grid_rejected(desk_mesh, desk_A, grid):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    system = assemble_kv(desk_mesh, desk_A, data)
    with pytest.raises(ValueError, match="finite"):
        sweep(system, data, np.array(grid))


@pytest.mark.parametrize("grid, pair", [
    ([1.0, np.nextafter(1.0, 0.0), 0.1, 0.01, 0.001], "1.0 and 0.9999999999999999"),
    (default_grid(20, 1e-3, 1.0000000000001e-3),
     "0.0010000000000001 and 0.001000000000000095"),
])
def test_grid_of_near_equal_values_rejected(desk_mesh, desk_A, grid, pair):
    # the corner's second differences over such points are roundoff
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    system = assemble_kv(desk_mesh, desk_A, data)
    with pytest.raises(ValueError, match=rf"^eps_grid values {re.escape(pair)} "
                                         "differ by less than 1e-9 relative$"):
        sweep(system, data, np.array(grid))


def test_sweep_noise_free_misfit_decreases(desk_mesh, desk_A):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2z"))
    system = assemble_kv(desk_mesh, desk_A, data)
    curve = sweep(system, data, default_grid(12, 1e-8, 1e-2))
    assert curve.misfits[-1] < 1e-3 * curve.misfits[0]
    smoothed = np.diff(curve.misfits) <= 1e-9 * (1.0 + curve.misfits[:-1])
    assert smoothed.all()
    assert curve.corner_epsilon in curve.epsilons


def test_sweep_independent_of_evaluation_order(desk_mesh, desk_A):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    grid = default_grid(8, 1e-6, 1e-2)
    sys_a = assemble_kv(desk_mesh, desk_A, data)
    curve = sweep(sys_a, data, grid)
    sys_b = assemble_kv(desk_mesh, desk_A, data)
    reversed_js = [solve_completion(sys_b, float(e), data).J for e in grid[::-1]]
    assert np.array_equal(curve.misfits, np.array(reversed_js)[::-1])


def test_sweep_drops_failed_points(desk_mesh, desk_A):
    # below eps ~ 1e-15, min(1 + eps - lambda) is eigenvalue roundoff
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    system = assemble_kv(desk_mesh, desk_A, data)
    grid = np.geomspace(1e-2, 1e-18, 12)
    curve = sweep(system, data, grid)
    assert np.array_equal(curve.epsilons, grid[:9])
    assert [eps for eps, _ in curve.dropped] == grid[9:].tolist()
    for eps, message in curve.dropped:
        with pytest.raises(NearSingularError) as raised:
            solve_completion(system, eps)
        assert message == str(raised.value)


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1e-1)
    assert grid[-1] == pytest.approx(1e-6)
    assert np.all(np.diff(grid) < 0)
