import numpy as np
import pytest

from fluxrec import assemble_kv, find_corner, solve_completion, sweep
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


def test_sweep_drops_failed_points(desk_mesh, desk_A, monkeypatch):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    system = assemble_kv(desk_mesh, desk_A, data)
    import fluxrec.regularization as reg
    real = reg._spectral_solve
    bad = float(default_grid(8, 1e-6, 1e-2)[3])

    def flaky(system, eps):
        if eps == bad:
            raise RuntimeError("injected failure")
        return real(system, eps)

    monkeypatch.setattr(reg, "_spectral_solve", flaky)
    curve = reg.sweep(system, data, default_grid(8, 1e-6, 1e-2))
    assert len(curve) == 7
    assert len(curve.dropped) == 1
    assert curve.dropped[0][0] == bad


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1e-1)
    assert grid[-1] == pytest.approx(1e-6)
    assert np.all(np.diff(grid) < 0)
