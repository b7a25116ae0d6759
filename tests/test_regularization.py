import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import assemble_kv, find_corner, solve_completion, sweep
from fluxrec.completion import NearSingularError
from fluxrec.regularization import (DegenerateCurveError, LCurve, _check_grid,
                                    default_grid)
from fluxrec.experiments import TwinSpec, add_noise, generate_reference
from oracles import check_grid_in_order, find_corner_by_coordinate

seeds = st.integers(0, 2 ** 32 - 1)


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
    # every kept row is bitwise solve_completion's J and R_D at its epsilon,
    # solved in the opposite order on a fresh system, on a grid whose
    # smallest values are dropped as near singular
    grid = np.geomspace(1e-2, 1e-18, 12)
    for case, noise in (("MANUFACTURED:r2", 0.0), ("TC1", 0.01)):
        _, data = generate_reference(desk_mesh, desk_A, TwinSpec(case))
        data = add_noise(data, noise, 3)
        curve = sweep(assemble_kv(desk_mesh, desk_A, data), data, grid)
        assert len(curve.dropped) > 0
        sys_b = assemble_kv(desk_mesh, desk_A, data)
        results = [solve_completion(sys_b, eps, data)
                   for eps in curve.epsilons[::-1].tolist()][::-1]
        assert np.array_equal(curve.misfits, [res.J for res in results])
        assert np.array_equal(curve.regularizers, [res.R_D for res in results])


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


def test_exactly_singular_point_dropped_without_warning():
    # min(1 + eps - lam) exactly 0 at one dropped point and below 0 at the
    # next: the screen and the messages raise no warning, and exactly 0
    # reads condition inf.  The interface is a stub whose top eigenvalue
    # is 1 + 2^-20
    lam = np.array([0.0, 0.25, 0.5, 1.0 + 2.0 ** -20])
    ops = SimpleNamespace(eigvals=lam, eigvecs=np.eye(4),
                          weights=0.5 * (1.0 - lam))
    system = SimpleNamespace(stiffness=SimpleNamespace(interface=ops),
                             load=np.array([1.0, -2.0, 3.0, 0.5]),
                             constant_term=100.0, data=None)
    grid = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 2.0 ** -20, 2.0 ** -21])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = sweep(system, None, grid)
        with pytest.raises(NearSingularError) as raised:
            solve_completion(system, 2.0 ** -20)
    assert np.array_equal(curve.epsilons, grid[:5])
    assert [eps for eps, _ in curve.dropped] == grid[5:].tolist()
    assert curve.dropped[0][1] == str(raised.value) == (
        "interface system at epsilon 9.53674e-07 is near singular: smallest "
        "1 + eps - lambda is 0.000e+00, condition inf")
    assert curve.dropped[1][1].endswith(
        "smallest 1 + eps - lambda is -4.768e-07, condition 2.097e+06")


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 20
    assert grid[0] == pytest.approx(1e-1)
    assert grid[-1] == pytest.approx(1e-6)
    assert np.all(np.diff(grid) < 0)


def test_default_grid_builds_up_to_its_cap():
    grid = default_grid(10_000)
    assert len(grid) == 10_000
    assert np.all(np.diff(grid) < 0)


@pytest.mark.parametrize("given, message", [
    ({"count": -3}, "eps_grid count must be nonnegative, got -3"),
    ({"count": 10_001}, "eps_grid count must be at most 10000, got 10001"),
    ({"count": 10 ** 15}, "eps_grid count must be at most 10000, got 1000000000000000"),
    ({"lo": 0.0}, "eps_grid end lo must be finite and positive, got 0.0"),
    ({"lo": -1e-3}, "eps_grid end lo must be finite and positive, got -0.001"),
    ({"lo": float("nan")}, "eps_grid end lo must be finite and positive, got nan"),
    ({"hi": float("inf")}, "eps_grid end hi must be finite and positive, got inf"),
    ({"hi": -float("inf")}, "eps_grid end hi must be finite and positive, got -inf"),
], ids=["negative_count", "count_over_cap", "absurd_count", "zero_lo", "negative_lo",
        "nan_lo", "inf_hi", "minus_inf_hi"])
def test_default_grid_names_a_bad_argument_before_numpy_sees_it(given, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            default_grid(**given)


def _outcome(call, arg):
    """What a call returns, or the type and message of what it raises."""
    try:
        return "returned", call(arg)
    except (ValueError, DegenerateCurveError) as exc:
        return type(exc), str(exc)


CURVE_KINDS = ("monotone", "collinear", "near-collinear", "plateau", "ties",
               "scattered")


@st.composite
def curves(draw):
    """J and R_D of 5 to 30 L-curve points, of one of CURVE_KINDS: J falling
    and R_D rising; exactly, or nearly, on a line in log-log coordinates; J
    falling onto a plateau of values that clamp to 1e-300; a short pattern
    repeated, so that equal point triples give curvature ties; or anywhere."""
    kind = draw(st.sampled_from(CURVE_KINDS))
    k = draw(st.integers(5, 30))
    rng = np.random.default_rng(draw(seeds))
    start = rng.uniform(-40.0, 40.0, 2)
    steps = np.cumsum(rng.exponential(1.0, k)) - 1.0
    if kind in ("monotone", "plateau"):
        rises = np.cumsum(rng.exponential(1.0, k))
        x = start[0] - steps * 10.0 ** rng.uniform(-3.0, 1.0)
        y = start[1] + rises * 10.0 ** rng.uniform(-3.0, 1.0)
    elif kind in ("collinear", "near-collinear"):
        x = start[0] + steps * rng.normal()
        y = start[1] + steps * rng.normal()
        if kind == "near-collinear":
            # about the 1e-12 relative offset at which the test decides
            span = np.ptp(x) + np.ptp(y)
            x = x + span * 10.0 ** rng.uniform(-15.0, -9.0) * rng.normal(size=k)
    elif kind == "ties":
        period = rng.integers(2, 5)
        x, y = (np.tile(rng.uniform(-5.0, 5.0, period), k)[:k] for _ in range(2))
    else:
        x, y = rng.uniform(-40.0, 40.0, (2, k))
    misfits, regularizers = np.exp(x), np.exp(y)
    if kind == "plateau":
        m = rng.integers(1, k - 1)
        misfits[k - m:] = rng.choice([1e-300, 5e-301, 1e-320, 0.0, -1e-15], m)
    return misfits, regularizers


@settings(max_examples=400, deadline=None)
@given(curve=curves())
def test_corner_matches_two_array_oracle(curve):
    # the same corner, ties and degenerate curves included, as the corner
    # search that kept log J and log R_D in two arrays
    misfits, regularizers = curve
    eps = np.geomspace(1e-1, 1e-6, len(misfits))
    fast = LCurve(eps, misfits.copy(), regularizers.copy())
    slow = LCurve(eps, misfits.copy(), regularizers.copy())
    assert (_outcome(find_corner, fast)
            == _outcome(find_corner_by_coordinate, slow))
    assert fast.corner_index == slow.corner_index


GRID_FAULTS = ("nan", "inf", "-inf", "zero", "-zero", "negative", "tie",
               "swap", "reversed", "close", "at 1e-9", "short", "2-d")


@st.composite
def grids(draw):
    """A strictly decreasing grid of 5 to 30 values, at least 0.05 decades
    apart, with none to three of GRID_FAULTS applied at drawn places."""
    steps = draw(st.lists(st.integers(-360, 0), min_size=5, max_size=30,
                          unique=True))
    grid = 10.0 ** (np.sort(steps)[::-1] / 20.0)
    for fault in draw(st.lists(st.sampled_from(GRID_FAULTS), max_size=3)):
        if grid.ndim != 1 or len(grid) < 2:
            break
        i = draw(st.integers(0, len(grid) - 2))
        if fault in ("nan", "inf", "-inf", "zero", "-zero"):
            where = draw(st.sampled_from([i, i + 1]))
            grid[where] = float(fault.replace("zero", "0"))
        elif fault == "negative":
            grid[i] = -grid[i]
        elif fault == "tie":
            grid[i + 1] = grid[i]
        elif fault == "swap":
            grid[i], grid[i + 1] = grid[i + 1], grid[i]
        elif fault == "reversed":
            grid = grid[::-1].copy()
        elif fault == "close":
            # a pair less than 1e-9 relative apart, or just more
            grid[i + 1] = grid[i] * (1.0 - 10.0 ** draw(st.floats(-12.0, -8.0)))
        elif fault == "at 1e-9":
            grid[i + 1] = draw(st.sampled_from([
                (1.0 - 1e-9) * grid[i],
                np.nextafter((1.0 - 1e-9) * grid[i], np.inf),
                np.nextafter((1.0 - 1e-9) * grid[i], 0.0)]))
        elif fault == "short":
            grid = grid[:draw(st.integers(0, 4))]
        else:
            grid = grid[:, None]
    return grid


@settings(max_examples=400, deadline=None)
@given(grid=grids())
def test_grid_check_matches_rule_by_rule_oracle(grid):
    # the same grid back, or the same ValueError message by the same
    # precedence, as the check that ran each rule as a pass of its own
    fast = _outcome(_check_grid, grid.copy())
    slow = _outcome(check_grid_in_order, grid.copy())
    if fast[0] == "returned" and slow[0] == "returned":
        assert fast[1].dtype == slow[1].dtype
        assert fast[1].tobytes() == slow[1].tobytes()
    else:
        assert fast == slow
