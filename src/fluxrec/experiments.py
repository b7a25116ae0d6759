"""Twin-experiment pipeline: reference fields, synthetic Cauchy data, noise.

A twin run generates a reference flux from a known inner-boundary value and
a chosen weighted Neumann profile, extracts the matching Dirichlet trace,
optionally pollutes both with noise, then asks the completion solver to
recover the inner value it was never shown.

Noise model (part of the data-format contract): additive Gaussian, each
sample scaled by the signal RMS, drawn from numpy's PCG64 generator seeded
with the given 64-bit seed; the f draws come first, then the g draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import completion as cp
from . import fem
from .completion import CauchyData, CompletionResult
# the reference meshes live with the mesh generator and keep their paths here
from .mesh import (INNER, OUTER, Mesh, boundary_node_normals, desk_annulus_mesh,
                   iter_like_mesh, refined_desk_mesh)


@dataclass(frozen=True)
class ManufacturedField:
    """Closed-form solution of the vacuum flux operator with its gradient."""

    psi: Callable
    grad: Callable  # (r, z) -> (dpsi_dr, dpsi_dz)

    def weighted_flux(self, r, z, n_r, n_z):
        """g = (1/r) grad(psi) . n."""
        gr, gz = self.grad(r, z)
        return (gr * n_r + gz * n_z) / r


MANUFACTURED: dict[str, ManufacturedField] = {
    "one": ManufacturedField(
        lambda r, z: np.ones_like(np.asarray(r, dtype=float)),
        lambda r, z: (np.zeros_like(np.asarray(r, dtype=float)),
                      np.zeros_like(np.asarray(r, dtype=float)))),
    "z": ManufacturedField(
        lambda r, z: np.asarray(z, dtype=float) + 0.0,
        lambda r, z: (np.zeros_like(np.asarray(r, dtype=float)),
                      np.ones_like(np.asarray(r, dtype=float)))),
    "r2": ManufacturedField(
        lambda r, z: r * r,
        lambda r, z: (2.0 * r, np.zeros_like(np.asarray(r, dtype=float)))),
    "r2z": ManufacturedField(
        lambda r, z: r * r * z,
        lambda r, z: (2.0 * r * z, r * r)),
    "quartic": ManufacturedField(
        lambda r, z: r ** 4 - 4.0 * r ** 2 * z ** 2,
        lambda r, z: (4.0 * r ** 3 - 8.0 * r * z ** 2, -8.0 * r ** 2 * z)),
}


def loop_flux_field(loop_r: float, loop_z: float, strength: float = 1.0,
                    vertical: float = 0.0) -> ManufacturedField:
    """Flux of a toroidal current loop plus an optional vertical-field term.

    psi = strength * sqrt(r r0) ((2 - m) K(m) - 2 E(m)) / sqrt(m)
          + vertical * r^2,     m = 4 r r0 / ((r + r0)^2 + (z - z0)^2).

    Exact solution of the operator away from the loop point; with a suitable
    vertical coefficient it has a genuine saddle (X-point) on the midplane.
    """
    # imported here, as no other path needs scipy.special (about 4 MB)
    from scipy.special import ellipe, ellipk

    r0, z0 = float(loop_r), float(loop_z)

    def psi(r, z):
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        F2 = (r + r0) ** 2 + (z - z0) ** 2
        m = 4.0 * r * r0 / F2
        core = np.sqrt(r * r0) * ((2.0 - m) * ellipk(m) - 2.0 * ellipe(m)) / np.sqrt(m)
        return strength * core + vertical * r * r

    def grad(r, z):
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        F2 = (r + r0) ** 2 + (z - z0) ** 2
        F = np.sqrt(F2)
        m = 4.0 * r * r0 / F2
        K, E = ellipk(m), ellipe(m)
        d2 = (r - r0) ** 2 + (z - z0) ** 2
        b_r = (z - z0) / (r * F) * (-K + E * (r * r + r0 * r0 + (z - z0) ** 2) / d2)
        b_z = (1.0 / F) * (K + E * (r0 * r0 - r * r - (z - z0) ** 2) / d2)
        return (strength * r * b_z + 2.0 * vertical * r,
                -strength * r * b_r)

    return ManufacturedField(psi, grad)


# ---------------------------------------------------------------------------
# twin experiments
# ---------------------------------------------------------------------------

# each twin case: its inner value u(r, z) and its wall flux g(r, z, n_r, n_z).
# TC1 and TC2 take the flux of psi = r^2, g = 2 n_r
TWIN_CASES: dict[str, tuple[Callable, Callable]] = {
    "TC1": (lambda r, z: 50.0 * np.sin(r) ** 2 + 50.0,
            lambda r, z, n_r, n_z: 2.0 * n_r),
    "TC2": (lambda r, z: np.full_like(np.asarray(r, dtype=float), 40.0),
            lambda r, z, n_r, n_z: 2.0 * n_r),
    **{f"MANUFACTURED:{name}": (mf.psi, mf.weighted_flux)
       for name, mf in MANUFACTURED.items()},
}

# regularization strengths used in the reference tables, per noise level
TABLE_EPSILONS = {
    "TC1": {0.0: 1e-5, 0.01: 5e-4, 0.05: 1e-3},
    "TC2": {0.0: 1e-5, 0.01: 1e-3, 0.05: 5e-3},
}


@dataclass(frozen=True)
class TwinSpec:
    """Recipe for one twin experiment.

    case is a key of TWIN_CASES: 'TC1', 'TC2' or 'MANUFACTURED:<name>'.
    g_spec, if given, overrides the case's outer weighted-Neumann profile,
    for every case.
    """

    case: str
    noise_level: float = 0.0
    seed: int = 0
    g_spec: Callable | None = None

    def __post_init__(self):
        if not (0.0 <= self.noise_level <= 0.5):
            raise ValueError(f"noise_level must lie in [0, 0.5], got {self.noise_level}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.case not in TWIN_CASES:
            raise ValueError(f"unknown twin case {self.case!r}; "
                             f"have {', '.join(TWIN_CASES)}")


@dataclass
class TwinReport:
    """Outcome of one twin run: the completion result (its system holds the
    noisy data) and its errors against the reference."""

    result: CompletionResult
    u_ref: np.ndarray
    max_rel_err_u: float
    field_rel_err: fem.FluxField


def generate_reference(mesh: Mesh, A: fem.StiffnessMatrix,
                       spec: TwinSpec) -> tuple[fem.FluxField, CauchyData]:
    """Reference flux and the compatible Cauchy data it induces.

    The reference solves the Neumann problem with the case's inner value and
    g profile, or spec.g_spec if given; the Dirichlet trace f is read off the
    outer boundary, so the returned (f, g) pair is compatible by
    construction.  ValueError if A was assembled on another mesh.
    """
    if A.mesh is not mesh:
        raise ValueError("stiffness matrix was assembled on a different mesh")
    b = mesh.boundary
    ro, zo = mesh.nodes[b.outer_nodes, 0], mesh.nodes[b.outer_nodes, 1]
    ri, zi = mesh.nodes[b.inner_nodes, 0], mesh.nodes[b.inner_nodes, 1]
    normals = boundary_node_normals(mesh, OUTER)

    u, flux = TWIN_CASES[spec.case]
    if spec.g_spec is not None:
        flux = spec.g_spec
    g = np.asarray(flux(ro, zo, normals[:, 0], normals[:, 1]), dtype=float)
    psi_ref = fem.solve_neumann(A, g, u(ri, zi))
    f = fem.trace(psi_ref, OUTER)
    return psi_ref, CauchyData(f, g)


def add_noise(data: CauchyData, p: float, seed: int) -> CauchyData:
    """Additive Gaussian noise scaled by the RMS of each signal.

    p = 0 returns the input unchanged (and does not consume the seed).
    Draw order: all f samples, then all g samples, from one PCG64 stream.
    """
    if p < 0.0:
        raise ValueError("noise fraction must be nonnegative")
    if p == 0.0:
        return data
    rng = np.random.default_rng(seed)
    eta_f = rng.standard_normal(len(data.f))
    eta_g = rng.standard_normal(len(data.g))
    rms_f = math.sqrt(float(np.mean(data.f ** 2)))
    rms_g = math.sqrt(float(np.mean(data.g ** 2)))
    return CauchyData(data.f + p * rms_f * eta_f, data.g + p * rms_g * eta_g)


def run_twin(mesh: Mesh, spec: TwinSpec, epsilon: float,
             A: fem.StiffnessMatrix | None = None) -> TwinReport:
    """Full pipeline: reference, noise, completion, error metrics.

    Pass A to amortize: a stiffness matrix keeps its factorization and
    interface operators, so runs on the same mesh share the geometry work.
    """
    if A is None:
        A = fem.assemble_stiffness(mesh)
    psi_ref, clean = generate_reference(mesh, A, spec)
    noisy = add_noise(clean, spec.noise_level, spec.seed)
    result = cp.solve_completion(cp.assemble_kv(mesh, A, noisy), epsilon)

    u_ref = fem.trace(psi_ref, INNER)
    # normalized by max |u_ref|, so sign-changing references stay finite
    err = np.abs(result.u_opt - u_ref).max() / np.abs(u_ref).max()
    field_err = fem.FluxField(np.abs(result.psi_opt.values - psi_ref.values)
                              / np.abs(psi_ref.values).max(), mesh)
    return TwinReport(result, u_ref, float(err), field_err)


def table1_grid(mesh: Mesh, seed: int = 0) -> tuple[str, dict]:
    """Max relative u errors for TC1/TC2 across noise levels, as text + dict.

    Runs the noise levels and per-noise regularization strengths of the
    reference tables, TABLE_EPSILONS.
    """
    A = fem.assemble_stiffness(mesh)
    rows = {}
    levels = TABLE_EPSILONS["TC1"]
    for p in levels:
        for case in ("TC1", "TC2"):
            eps = TABLE_EPSILONS[case][p]
            rows[(case, p)] = run_twin(mesh, TwinSpec(case, p, seed), eps, A=A)
    lines = ["noise_level  error_TC1  error_TC2"]
    for p in levels:
        lines.append(f"{p:>11.0%}  {rows[('TC1', p)].max_rel_err_u:9.4f}  "
                     f"{rows[('TC2', p)].max_rel_err_u:9.4f}")
    return "\n".join(lines) + "\n", rows
