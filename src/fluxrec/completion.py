"""Regularized energy-gap optimality system on the inner boundary.

Given Cauchy data (f, g) on the outer loop, the unknown Dirichlet value u on
the inner loop is found by minimizing the energy of the gradient gap between
the Dirichlet-data solution and the Neumann-data solution, plus a Tikhonov
term.  The optimality condition collapses to a small dense linear system

    [(1 + eps) S_D - S_N] u = l

on the inner-boundary degrees of freedom, where S_D and S_N are the two
Dirichlet-to-Neumann (interface) matrices.  S_D and S_N depend on geometry
only, and are decomposed once per geometry: S_N V = S_D V diag(lam) with
V' S_D V = I.  Every data set and eps then has the closed (filter-factor)
form u(eps) = V diag(1 / (1 + eps - lam)) V' l, at O(n_i^2) per data set
and O(n_i) per eps for J and R_D, n_i being the inner-boundary node count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from . import fem
from .fem import FluxField, StiffnessMatrix, weighted_normal_derivative
from .mesh import INNER, Mesh


class KVAssemblyError(RuntimeError):
    """Interface-system invariant violated: indicates an assembly or sign bug."""


class NearSingularError(RuntimeError):
    """Interface system too close to singular for its eigenvalues to resolve."""


@dataclass(frozen=True)
class CauchyData:
    """Paired Dirichlet trace f and weighted Neumann trace g on the outer loop."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(np.asarray(self.f, dtype=np.float64))
        g = np.ascontiguousarray(np.asarray(self.g, dtype=np.float64))
        if f.shape != g.shape or f.ndim != 1:
            raise ValueError("f and g must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("non-finite Cauchy data")
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def check(self, mesh: Mesh) -> None:
        n = len(mesh.boundary.outer_nodes)
        if len(self.f) != n:
            raise ValueError(f"Cauchy data length {len(self.f)} != {n} outer nodes")


@dataclass
class CompletionResult:
    """Optimal inner-boundary value and the reconstructed flux.

    The reconstructed field is the Neumann solution at the optimum (the
    Dirichlet solution is far more sensitive to noise on f, so it is never
    used as the output field).
    """

    u_opt: np.ndarray
    psi_opt: FluxField
    J: float
    R_D: float
    J_eps: float
    epsilon: float
    residual_norm: float
    condition_estimate: float


@dataclass
class KVSystem:
    """Interface matrices and their eigendecomposition, with one data set.

    s_d, s_n and the ascending eigenpairs of S_N v = lam S_D v (eigvecs
    S_D-orthonormal, as columns) depend on the geometry only; `reuse` shares
    them.  load, data and the lifted data fields belong to one data set.
    """

    s_d: np.ndarray
    s_n: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    load: np.ndarray
    mesh: Mesh
    stiffness: StiffnessMatrix
    data: CauchyData
    tilde_d: FluxField
    tilde_n: FluxField
    _constant: float | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.s_d.shape[0]

    def system_matrix(self, epsilon: float) -> np.ndarray:
        """(1 + eps) S_D - S_N."""
        return (1.0 + epsilon) * self.s_d - self.s_n

    def constant_term(self) -> float:
        """Half the energy of the data-only gap field; J(0) equals this."""
        if self._constant is None:
            self._constant = 0.5 * fem.energy_norm_sq(
                self.tilde_d, self.tilde_n, self.stiffness)
        return self._constant


def _harmonic_columns(reduced, n: int, boundary_cols: np.ndarray) -> np.ndarray:
    """Batched solves: one column per inner-boundary basis function."""
    x = np.zeros((n, boundary_cols.shape[1]))
    x[reduced.constrained] = boundary_cols
    rhs = -np.asarray(reduced.coupling @ boundary_cols)
    x[reduced.free] = reduced.factor.solve(rhs)
    return x


def assemble_kv(mesh: Mesh, A: StiffnessMatrix, data: CauchyData,
                reuse: KVSystem | None = None) -> KVSystem:
    """Build the interface system for the given mesh and Cauchy data.

    Each inner-boundary basis function is lifted by a Dirichlet solve (zero
    on the outer loop) and a Neumann solve (zero weighted flux there); the
    matrices pair the lifted fields against the trivial extension, which
    collapses to rows of A times the lifted columns.  Invariants (symmetry,
    S_D positive definite, S_D - S_N positive semidefinite) are verified,
    the last two on the generalized eigendecomposition computed here: its
    Cholesky factorization of S_D must succeed, and no eigenvalue may exceed
    1 + 1e-10.  Violations raise KVAssemblyError.

    Pass a previously assembled system as `reuse` to skip the geometry part
    (eigendecomposition included) and recompute only the data-dependent load.
    """
    b = mesh.boundary
    ni = len(b.inner_nodes)
    if ni == 0:
        raise ValueError("completion requires an inner boundary")

    if reuse is not None:
        if reuse.mesh is not mesh or reuse.stiffness is not A:
            raise ValueError("reuse system was assembled on a different mesh")
        s_d, s_n = reuse.s_d, reuse.s_n
        eigvals, eigvecs = reuse.eigvals, reuse.eigvecs
    else:
        n = mesh.node_count
        no = len(b.outer_nodes)
        basis = np.eye(ni)
        cols_d = _harmonic_columns(
            A._dirichlet, n, np.vstack([np.zeros((no, ni)), basis]))
        cols_n = _harmonic_columns(A._neumann, n, basis)
        s_d = (A.matrix @ cols_d)[b.inner_nodes, :]
        s_n = (A.matrix @ cols_n)[b.inner_nodes, :]

        for name, s in (("S_D", s_d), ("S_N", s_n)):
            scale = max(np.abs(s).max(), 1e-300)
            asym = np.abs(s - s.T).max()
            if asym > 1e-12 * scale:
                raise KVAssemblyError(
                    f"{name} asymmetry {asym:.3e} exceeds 1e-12 relative")
        s_d = 0.5 * (s_d + s_d.T)
        s_n = 0.5 * (s_n + s_n.T)
        try:
            eigvals, eigvecs = eigh(s_n, s_d)
        except np.linalg.LinAlgError as exc:
            raise KVAssemblyError(
                f"S_D is not positive definite: {exc}") from exc
        if 1.0 - eigvals[-1] < -1e-10:
            raise KVAssemblyError(
                f"S_D - S_N is indefinite: generalized eigenvalue "
                f"{eigvals[-1]:.12g} exceeds 1 + 1e-10")

    data.check(mesh)
    tilde_d = fem.solve_dirichlet(A, data.f, 0.0)
    tilde_n = fem.solve_neumann(A, data.g, 0.0)
    load = -(A.matrix @ (tilde_d.values - tilde_n.values))[b.inner_nodes]
    return KVSystem(s_d, s_n, eigvals, eigvecs, load, mesh, A, data,
                    tilde_d, tilde_n)


def _spectral_solve(system: KVSystem, epsilon: float):
    """Closed-form optimum at one epsilon: (u, J, R_D, condition).

    With c = V'l, d = 1 + eps - lam and a = c / d: u = V a, R_D = |a|^2 / 2,
    J = sum((1 - lam) a^2) / 2 - c'a + C (the quadratic identity, C the
    constant term) and condition = max(d) / min(d).  J is a difference of
    terms of size C, so it carries a roundoff floor of a few ulps of C, of
    either sign: for noise-free MANUFACTURED:one on the desk mesh (C = 0.42)
    the true J is 4.2e-13 at eps = 1e-6 and 4e-17 at 1e-8, where the closed
    form reads 1.1e-16.  The eigenvalues carry an absolute error of about
    n_i ulps, so a condition above 1 / (n_i * machine epsilon) raises
    NearSingularError; eps = 0 always does, as min(1 - lam) is 0 to roundoff.
    """
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")
    d = 1.0 + epsilon - system.eigvals
    if not d.min() > system.size * np.finfo(float).eps * d.max():
        raise NearSingularError(
            f"interface system at epsilon {epsilon:g} is near singular: "
            f"smallest 1 + eps - lambda is {d.min():.3e}, condition "
            f"{d.max() / abs(d.min()):.3e}")
    c = system.eigvecs.T @ system.load
    a = c / d
    J = 0.5 * ((1.0 - system.eigvals) * a) @ a - c @ a + system.constant_term()
    return (system.eigvecs @ a, float(J), 0.5 * float(a @ a),
            float(d.max() / d.min()))


def evaluate(system: KVSystem, data: CauchyData, u, epsilon: float = 0.0):
    """Misfit J, regularizer R_D and total J_eps at a given control.

    J is computed by the direct volume integral (two solves plus the energy
    norm), not through the quadratic form, so it is the reference for the
    identity J(v) = (s_D(v,v) - s_N(v,v))/2 - l(v) + c and for the closed
    form of solve_completion.  R_D = s_D(u, u) / 2 uses the interface
    matrix, which equals the lifted field's energy exactly (the lift pairs
    against itself).
    """
    u = fem._boundary_values(u, system.size, "u")
    A = system.stiffness
    psi_d = fem.solve_dirichlet(A, data.f, u)
    psi_n = fem.solve_neumann(A, data.g, u)
    J = 0.5 * fem.energy_norm_sq(psi_d, psi_n, A)
    R_D = 0.5 * float(u @ (system.s_d @ u))
    return J, R_D, J + epsilon * R_D


def quadratic_misfit(system: KVSystem, u) -> float:
    """J through the interface quadratic form: v'(S_D - S_N)v/2 - l'v + c."""
    u = fem._boundary_values(u, system.size, "u")
    return float(0.5 * u @ ((system.s_d - system.s_n) @ u) - system.load @ u
                 + system.constant_term())


def solve_completion(system: KVSystem, epsilon: float,
                     data: CauchyData | None = None) -> CompletionResult:
    """Solve the regularized interface system and reconstruct the flux.

    u, J and R_D come in closed form (see _spectral_solve); epsilon = 0
    raises NearSingularError.  Data other than system.data are assembled
    with reuse=system first.  The flux costs one sparse solve.
    """
    epsilon = float(epsilon)
    if data is not None and data is not system.data:
        system = assemble_kv(system.mesh, system.stiffness, data, reuse=system)
    u, J, R_D, condition = _spectral_solve(system, epsilon)
    r = system.system_matrix(epsilon) @ u - system.load
    residual = float(np.linalg.norm(r) / (np.linalg.norm(system.load) or 1.0))
    psi_opt = fem.solve_neumann(system.stiffness, system.data.g, u)
    return CompletionResult(u, psi_opt, J, R_D, J + epsilon * R_D, epsilon,
                            residual, condition)


def optimality_residual(system: KVSystem, u_opt, epsilon: float,
                        data: CauchyData | None = None) -> np.ndarray:
    """Inner-boundary flux mismatch at a control; near zero at the optimum.

    Recovers the weighted normal derivatives of the Dirichlet solution, the
    Neumann solution and the regularizing Dirichlet lift by fresh solves, so
    it checks the optimality condition independently of the assembled
    interface matrices.
    """
    if data is None:
        data = system.data
    A = system.stiffness
    u_opt = fem._boundary_values(u_opt, system.size, "u_opt")
    psi_d = fem.solve_dirichlet(A, data.f, u_opt)
    psi_n = fem.solve_neumann(A, data.g, u_opt)
    psi_d0 = fem.solve_dirichlet(A, 0.0, u_opt)
    return (weighted_normal_derivative(psi_d, A, INNER)
            - weighted_normal_derivative(psi_n, A, INNER)
            + epsilon * weighted_normal_derivative(psi_d0, A, INNER))
