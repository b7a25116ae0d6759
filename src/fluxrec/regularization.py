"""Regularization-parameter sweeps and L-curve corner selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .completion import (CauchyData, KVSystem, _near_singular, _spectral,
                         assemble_kv)


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
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 5:
        raise ValueError("eps_grid must hold at least 5 values")
    if not np.all(np.isfinite(grid)):
        raise ValueError("eps_grid values must be finite")
    if np.any(grid <= 0.0):
        raise ValueError("eps_grid values must be positive")
    # a step up, a tie, or values closer than 1e-9 relative, over which the
    # corner's second differences are roundoff
    close = grid[1:] > (1.0 - 1e-9) * grid[:-1]
    if close.any():
        if np.any(np.diff(grid) >= 0.0):
            raise ValueError("eps_grid must be sorted strictly decreasing")
        hi, lo = grid[close.argmax():][:2].tolist()
        raise ValueError(f"eps_grid values {hi!r} and {lo!r} differ by less "
                         "than 1e-9 relative")
    return grid


def default_grid(count: int = 20, lo: float = 1e-6, hi: float = 1e-1) -> np.ndarray:
    """Logarithmically spaced grid, decreasing, bracketing practical values."""
    return np.geomspace(hi, lo, count)


def sweep(system: KVSystem, data: CauchyData | None, eps_grid) -> LCurve:
    """J and R_D on every grid value, and the L-curve corner.

    The points come in closed form from the system's eigendecomposition, in
    one array pass over (grid x inner nodes), with no flux field per
    epsilon; J's constant term is dense work once per data set, so a sweep
    makes no sparse solve.  Each row equals, bitwise, what solve_completion
    gives at that epsilon.  Data other than system.data are first assembled
    on system.stiffness.  Grid values at which the system is too near
    singular are dropped and recorded with the NearSingularError message
    solve_completion would raise there.
    """
    grid = _check_grid(eps_grid)
    if data is not None and data is not system.data:
        A = system.stiffness
        system = assemble_kv(A.mesh, A, data)
    messages = {eps: _near_singular(system, eps) for eps in grid.tolist()}
    kept = grid[[message is None for message in messages.values()]]
    if len(kept) < 5:
        raise RuntimeError(
            f"only {len(kept)} sweep points succeeded; need at least 5")
    _, J_less_constant, R_D = _spectral(system, kept[:, None])
    curve = LCurve(kept, J_less_constant + system.constant_term, R_D,
                   dropped=[(eps, message) for eps, message in messages.items()
                            if message])
    find_corner(curve)
    return curve


def find_corner(curve: LCurve) -> float:
    """Epsilon of maximum discrete curvature of the log-log polyline.

    Curvature uses centered second differences of (log J, log R_D) against
    the point index; ties break toward larger epsilon.  Sets
    curve.corner_index and returns the corner epsilon.
    """
    if len(curve) < 5:
        raise ValueError("corner detection needs at least 5 points")
    x = np.log(np.maximum(curve.misfits, 1e-300))
    y = np.log(np.maximum(curve.regularizers, 1e-300))

    p0 = np.array([x[0], y[0]])
    pn = np.array([x[-1], y[-1]])
    chord = pn - p0
    span = max(np.linalg.norm(chord), np.ptp(x) + np.ptp(y), 1e-300)
    offsets = np.abs((x - p0[0]) * chord[1] - (y - p0[1]) * chord[0]) / span
    if offsets.max() < 1e-12 * span:
        raise DegenerateCurveError("log-log L-curve points are collinear")

    xp = 0.5 * (x[2:] - x[:-2])
    yp = 0.5 * (y[2:] - y[:-2])
    xpp = x[2:] - 2.0 * x[1:-1] + x[:-2]
    ypp = y[2:] - 2.0 * y[1:-1] + y[:-2]
    speed = np.maximum((xp ** 2 + yp ** 2) ** 1.5, 1e-300)
    curvature = np.abs(xp * ypp - yp * xpp) / speed

    # epsilons are decreasing, so the first argmax is the largest epsilon
    curve.corner_index = int(np.argmax(curvature)) + 1
    return curve.corner_epsilon
