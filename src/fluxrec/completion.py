"""Regularized energy-gap optimality system on the inner boundary.

Given Cauchy data (f, g) on the outer loop, the unknown Dirichlet value u on
the inner loop is found by minimizing the energy of the gradient gap between
the Dirichlet-data solution and the Neumann-data solution, plus a Tikhonov
term.  The optimality condition collapses to a small dense linear system

    [(1 + eps) S_D - S_N] u = l

on the inner-boundary degrees of freedom, where S_D and S_N are the two
Dirichlet-to-Neumann (interface) matrices.  S_D and S_N depend on geometry
only, and so does the load's dependence on the data: by Green reciprocity
l = T_f f + T_g g.  They, and the decomposition S_N V = S_D V diag(lam)
with V' S_D V = I, are fem's per-mesh interface operators, cached on the
stiffness matrix (StiffnessMatrix.interface), so this module holds only
what belongs to one data set: the load and the closed-form solve.  Every
data set and eps has the closed (filter-factor) form
u(eps) = V diag(1 / (1 + eps - lam)) V' l, with no sparse solve: a data
set costs its dense products and a fixed handful of array calls, listed
step by step in README's design paragraph.
Only the flux field costs a sparse solve (a Neumann solve), on first read.
The checks of this closed form by fresh field solves (the misfit as a
volume integral, the interface quadratic form and the optimality residual)
are test oracles, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.blas import dtrmv, dtrsv

from . import fem
from .fem import FluxField, StiffnessMatrix
# CauchyData lives with the mesh and keeps its path here
from .mesh import CauchyData, Mesh


class NearSingularError(RuntimeError):
    """Interface system too close to singular for its eigenvalues to resolve."""


_EPS = np.finfo(float).eps


@dataclass
class CompletionResult:
    """Optimal inner-boundary value and the reconstructed flux.

    u_opt comes with the closed-form solve, which keeps the eigenbasis
    coordinates c = V'l and a of u = V a.  R_D, J, residual_norm and psi_opt
    are computed on first read and cached: R_D and J less its constant term
    are summed together from c and a (see _energies), J adds the system's
    constant term (dense, no sparse solve), the residual costs two
    (n_i x n_i) mat-vecs and psi_opt one Neumann solve.  The reconstructed
    field is the Neumann solution at the optimum (the Dirichlet solution is
    far more sensitive to noise on f, so it is never used as the output
    field).
    """

    u_opt: np.ndarray
    epsilon: float
    system: KVSystem = field(repr=False)
    _c: np.ndarray = field(repr=False)
    _a: np.ndarray = field(repr=False)

    @cached_property
    def _sums(self) -> tuple[float, float]:
        """(J - C, R_D), C the constant term."""
        J_less_constant, R_D = _energies(self.system, self._c, self._a)
        return float(J_less_constant), float(R_D)

    @cached_property
    def R_D(self) -> float:
        return self._sums[1]

    @cached_property
    def J(self) -> float:
        return float(self._sums[0] + self.system.constant_term)

    @cached_property
    def residual_norm(self) -> float:
        """|(1 + eps) S_D u - S_N u - l| / |l|."""
        ops = self.system.stiffness.interface
        u, load = self.u_opt, self.system.load
        r = (1.0 + self.epsilon) * (ops.s_d @ u) - ops.s_n @ u - load
        return float(np.linalg.norm(r) / (np.linalg.norm(load) or 1.0))

    @property
    def J_eps(self) -> float:
        return self.J + self.epsilon * self.R_D

    @cached_property
    def psi_opt(self) -> FluxField:
        return fem.solve_neumann(self.system.stiffness, self.system.data.g,
                                 self.u_opt)


@dataclass(frozen=True)
class KVSystem:
    """One data set on a mesh's interface: the data and its load
    l = T_f f + T_g g, T_f and T_g being stiffness.interface's operators.
    The mesh is stiffness.mesh.
    """

    stiffness: StiffnessMatrix
    data: CauchyData
    load: np.ndarray

    def system_matrix(self, epsilon: float) -> np.ndarray:
        """(1 + eps) S_D - S_N."""
        ops = self.stiffness.interface
        return (1.0 + epsilon) * ops.s_d - ops.s_n

    @cached_property
    def constant_term(self) -> float:
        """Half the energy of the data-only gap field; J(0) equals this.

        The gap is the Dirichlet lift of f less the Neumann lift of g, both
        zero on the inner loop, so it is the lift of its outer trace
        f - S_OO^-1 b, b = B g, and its energy is
        f'S_OO f - 2 f'b + b'S_OO^-1 b = |R f - R'^-1 b|^2, with
        S_OO = R'R and R = StiffnessMatrix.outer_dtn_chol.  R f and R'^-1 b
        are BLAS calls on the Fortran-ordered R, with no finiteness scan of
        R per data set: R is a block of the Cholesky factor U^, whose
        every entry reaches S_D, which eigh checked when fem built the
        interface, and CauchyData rejects non-finite f and g.
        """
        r = self.stiffness.outer_dtn_chol
        b = self.stiffness.outer_mass @ self.data.g
        gap = dtrmv(r, self.data.f)
        gap -= dtrsv(r, b, trans=1, overwrite_x=1)
        return 0.5 * float(gap @ gap)


def assemble_kv(mesh: Mesh, A: StiffnessMatrix, data: CauchyData,
                reuse: KVSystem | None = None) -> KVSystem:
    """The interface system of the Cauchy data: its load is two dense
    mat-vecs with A.interface, which A computes once and keeps (ValueError
    there on a mesh without an inner loop, FemError on a broken invariant).
    ValueError if A is of another mesh, or if `reuse`, an earlier system,
    holds another A; it shares nothing more, as A holds it all.
    """
    if A.mesh is not mesh:
        raise ValueError("stiffness matrix was assembled on a different mesh")
    if reuse is not None and reuse.stiffness is not A:
        raise ValueError("reuse system was assembled with another stiffness matrix")
    data.check(mesh)
    ops = A.interface
    load = ops.t_f @ data.f
    load += ops.t_g @ data.g
    return KVSystem(A, data, load)


def _coordinates(system: KVSystem, epsilon):
    """The closed-form optimum in the eigenbasis: (c, a), c = V'l and
    a = c / (1 + eps - lam), so that the control is u = V a.

    epsilon is a float, or a (k, 1) column of them for a sweep, which gives
    one row of a per epsilon.  Screen each epsilon with _resolved first.
    """
    ops = system.stiffness.interface
    c = ops.eigvecs.T @ system.load
    a = 1.0 + epsilon - ops.eigvals
    np.divide(c, a, out=a)
    return c, a


def _energies(system: KVSystem, c, a):
    """(J - C, R_D) of the optimum whose coordinates _coordinates gave.

    R_D = |a|^2 / 2 and J = sum((1 - lam) a^2) / 2 - c'a + C (the quadratic
    identity, C the constant term, which is left to the caller, as it is
    the same for every eps).  The terms of J - C, then those of |a|^2, are
    built in one scratch array and summed along its last axis, so a row of
    the column case is bitwise the float case.
    J is a difference of terms of size C, so it carries a roundoff floor of
    a few ulps of C, of either sign: for noise-free MANUFACTURED:one on the
    desk mesh (C = 0.42) the true J is 4.2e-13 at eps = 1e-6 and 4e-17 at
    1e-8, where the closed form reads 1.1e-16.
    """
    terms = system.stiffness.interface.weights * a
    terms -= c
    terms *= a
    J_less_constant = np.add.reduce(terms, axis=-1)
    np.multiply(a, a, out=terms)
    return J_less_constant, 0.5 * np.add.reduce(terms, axis=-1)


def _resolved(system: KVSystem, epsilon):
    """(resolved, d_min, d_max): whether the eigenvalues resolve the system
    at epsilon, and the ends of d = 1 + eps - lam.  epsilon is a float, or
    an array of them, which is screened by one vector comparison.

    The eigenvalues carry an absolute error of about n_i ulps, so a
    condition max(d) / min(d) above 1 / (n_i * machine epsilon) is not
    resolved; eps = 0 never is, as min(1 - lam) is 0 to roundoff.  The
    eigenvalues ascend, so min(d) and max(d) are d's end entries, bitwise.
    Nothing here divides, so an unresolved epsilon raises no warning.
    """
    lam = system.stiffness.interface.eigvals
    shifted = 1.0 + epsilon
    d_min, d_max = shifted - lam[-1], shifted - lam[0]
    return d_min > len(lam) * _EPS * d_max, d_min, d_max


def _near_singular(epsilon: float, d_min, d_max) -> str:
    """NearSingularError's message at an epsilon that _resolved refuses
    (exactly 0 for d_min gives condition inf)."""
    with np.errstate(divide="ignore"):
        return (f"interface system at epsilon {epsilon:g} is near singular: "
                f"smallest 1 + eps - lambda is {d_min:.3e}, condition "
                f"{d_max / abs(d_min):.3e}")


def _check_epsilon(epsilon) -> float:
    """epsilon as a float; ValueError unless it is finite and nonnegative."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    return epsilon


def solve_completion(system: KVSystem, epsilon: float,
                     data: CauchyData | None = None) -> CompletionResult:
    """Solve the regularized interface system for u.

    u comes in closed form (see _coordinates), the O(n_i) filter and one
    (n_i x n_i) mat-vec.  Where _resolved refuses epsilon, as at epsilon = 0,
    NearSingularError names the condition.  epsilon is checked first; data
    other than system.data are then assembled on system.stiffness.  Nothing
    else is computed here: J, R_D, the residual and the flux come on first
    read (see CompletionResult).
    """
    epsilon = _check_epsilon(epsilon)
    if data is not None and data is not system.data:
        A = system.stiffness
        system = assemble_kv(A.mesh, A, data)
    resolved, d_min, d_max = _resolved(system, epsilon)
    if not resolved:
        raise NearSingularError(_near_singular(epsilon, d_min, d_max))
    c, a = _coordinates(system, epsilon)
    u = system.stiffness.interface.eigvecs @ a
    return CompletionResult(u, epsilon, system, c, a)
