"""Regularization-parameter sweeps and L-curve corner selection."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .completion import (CauchyData, KVSystem, _coordinates, _energies,
                         _near_singular, _resolved, assemble_kv)


class DegenerateCurveError(RuntimeError):
    """All L-curve points are collinear in log-log space; no corner exists."""


@dataclass
class LCurve:
    """Sweep of (epsilon, misfit J, regularizer R_D) with a detected corner.

    Epsilons are strictly decreasing.  `dropped` records grid points whose
    solve failed, as (epsilon, message) pairs.
    """

    epsilons: np.ndarray
    misfits: np.ndarray
    regularizers: np.ndarray
    corner_index: int = -1
    dropped: list = field(default_factory=list)

    @property
    def corner_epsilon(self) -> float:
        if self.corner_index < 0:
            raise ValueError("corner not computed")
        return float(self.epsilons[self.corner_index])

    def __len__(self) -> int:
        return len(self.epsilons)


def _check_grid(eps_grid: np.ndarray) -> np.ndarray:
    """The grid as a float array; ValueError unless it holds at least 5
    finite positive values, each below the one before by more than 1e-9
    relative (closer values leave the corner's second differences
    roundoff).

    A valid grid is settled by one comparison of neighbours and its end
    pair: each value at most (1 - 1e-9) times the one before (false at a
    nan), the last positive and the first finite.  The checks below run
    only to choose the message, in their order of precedence.
    """
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 5:
        raise ValueError("eps_grid must hold at least 5 values")
    apart = grid[1:] <= (1.0 - 1e-9) * grid[:-1]
    if apart.all() and 0.0 < grid[-1] and grid[0] < math.inf:
        return grid
    if not np.all(np.isfinite(grid)):
        raise ValueError("eps_grid values must be finite")
    if np.any(grid <= 0.0):
        raise ValueError("eps_grid values must be positive")
    if np.any(np.diff(grid) >= 0.0):
        raise ValueError("eps_grid must be sorted strictly decreasing")
    hi, lo = grid[apart.argmin():][:2].tolist()
    raise ValueError(f"eps_grid values {hi!r} and {lo!r} differ by less "
                     "than 1e-9 relative")


# The largest grid default_grid builds: a sweep holds (count x n_i) arrays,
# and 10 000 x 120 floats take 9.6 MB.
_MAX_COUNT = 10_000


def default_grid(count: int = 20, lo: float = 1e-6, hi: float = 1e-1) -> np.ndarray:
    """Logarithmically spaced grid, decreasing, bracketing practical values,
    of at most 10 000 values."""
    if not count >= 0:
        raise ValueError(f"eps_grid count must be nonnegative, got {count!r}")
    if count > _MAX_COUNT:
        raise ValueError(f"eps_grid count must be at most {_MAX_COUNT}, got {count!r}")
    for name, end in (("lo", lo), ("hi", hi)):
        if not 0.0 < end < math.inf:
            raise ValueError(f"eps_grid end {name} must be finite and positive, got {end!r}")
    return np.geomspace(hi, lo, count)


def sweep(system: KVSystem, data: CauchyData | None, eps_grid) -> LCurve:
    """J and R_D on every grid value, and the L-curve corner.

    The points come in closed form from the system's eigendecomposition, in
    one array pass over (grid x inner nodes), with no flux field per
    epsilon; J's constant term is dense work once per data set, so a sweep
    makes no sparse solve.  Each row equals, bitwise, what solve_completion
    gives at that epsilon.  Data other than system.data are first assembled
    on system.stiffness.  Grid values at which the system is too near
    singular are screened out by one vector comparison, and recorded with
    the NearSingularError message solve_completion would raise there.
    """
    grid = _check_grid(eps_grid)
    if data is not None and data is not system.data:
        A = system.stiffness
        system = assemble_kv(A.mesh, A, data)
    resolved, d_min, d_max = _resolved(system, grid)
    kept = grid[resolved]
    if len(kept) < 5:
        raise RuntimeError(
            f"only {len(kept)} sweep points succeeded; need at least 5")
    dropped = []
    if len(kept) < len(grid):
        lost = ~resolved
        dropped = [(eps, _near_singular(eps, lo, hi)) for eps, lo, hi
                   in zip(grid[lost].tolist(), d_min[lost], d_max[lost])]
    c, a = _coordinates(system, kept[:, None])
    J_less_constant, R_D = _energies(system, c, a)
    J_less_constant += system.constant_term
    curve = LCurve(kept, J_less_constant, R_D, dropped=dropped)
    find_corner(curve)
    return curve


def find_corner(curve: LCurve) -> float:
    """Epsilon of maximum discrete curvature of the log-log polyline.

    Curvature uses centered second differences of (log J, log R_D) against
    the point index; ties break toward larger epsilon.  Sets
    curve.corner_index and returns the corner epsilon.  Both coordinates
    are rows of one (2, k) array, so each step is one array call.
    """
    if len(curve) < 5:
        raise ValueError("corner detection needs at least 5 points")
    p = np.array((curve.misfits, curve.regularizers), dtype=float)
    np.maximum(p, 1e-300, out=p)
    np.log(p, out=p)

    # each point's offset |cross| / span from the chord between the end
    # points; the chord is a contiguous copy, so its dot product runs as
    # before
    chord = p[:, -1] - p[:, 0]
    d = p - p[:, :1]
    extent = p.max(axis=1) - p.min(axis=1)
    span = max(math.sqrt(chord @ chord), float(extent[0] + extent[1]), 1e-300)
    cross = d * chord[::-1, None]
    cross = np.abs(cross[0] - cross[1])
    if cross.max() / span < 1e-12 * span:
        raise DegenerateCurveError("log-log L-curve points are collinear")

    slope = p[:, 2:] - p[:, :-2]
    slope *= 0.5
    bend = p[:, 2:] - 2.0 * p[:, 1:-1]
    bend += p[:, :-2]
    speed = slope * slope
    speed = speed[0] + speed[1]
    speed **= 1.5
    np.maximum(speed, 1e-300, out=speed)
    turn = slope * bend[::-1]
    curvature = np.abs(turn[0] - turn[1])
    curvature /= speed

    # epsilons are decreasing, so the first argmax is the largest epsilon
    curve.corner_index = int(np.argmax(curvature)) + 1
    return curve.corner_epsilon
