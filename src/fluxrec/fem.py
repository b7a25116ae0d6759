"""P1 finite elements for the axisymmetric vacuum-flux operator.

The operator is  L psi = -[ d/dr((1/r) dpsi/dr) + d/dz((1/r) dpsi/dz) ]
with the weak form  a(psi, phi) = integral over the domain of
(1/r) grad(psi) . grad(phi).  Everything here lives on the weighted
stiffness matrix A of that form: the two auxiliary boundary-value solves
(Dirichlet data on both loops, or weighted Neumann data on the outer loop
plus Dirichlet on the inner), the boundary Dirichlet-to-Neumann matrix the
interface system is cut from, traces and interpolants.  The weighted normal
derivative (the boundary rows of A psi) and the energy norm of a field gap
are test oracles, in tests/oracles.py; the pipeline needs neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve, cholesky
from scipy.sparse.linalg import splu

from .mesh import Mesh


class FemError(RuntimeError):
    """Internal consistency failure (assembly invariant or singular system)."""


# The 7-point Gauss rule on the reference triangle, exact for polynomials
# of degree 5: barycentric points and weights summing to 1.
_SQRT15 = math.sqrt(15.0)
_A1 = (6.0 + _SQRT15) / 21.0
_B1 = (6.0 - _SQRT15) / 21.0
_QUAD_POINTS = np.array([[1 / 3, 1 / 3, 1 / 3],
                         [1 - 2 * _A1, _A1, _A1],
                         [_A1, 1 - 2 * _A1, _A1],
                         [_A1, _A1, 1 - 2 * _A1],
                         [1 - 2 * _B1, _B1, _B1],
                         [_B1, 1 - 2 * _B1, _B1],
                         [_B1, _B1, 1 - 2 * _B1]])
_QUAD_WEIGHTS = np.array([9 / 40,
                          (155.0 + _SQRT15) / 1200.0, (155.0 + _SQRT15) / 1200.0,
                          (155.0 + _SQRT15) / 1200.0,
                          (155.0 - _SQRT15) / 1200.0, (155.0 - _SQRT15) / 1200.0,
                          (155.0 - _SQRT15) / 1200.0])
# The 2-point Gauss rule on an edge, as fractions of the way along it.
_EDGE_POINTS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


@dataclass(frozen=True)
class FluxField:
    """Nodal P1 coefficients of a scalar flux on a mesh (webers)."""

    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.shape != (self.mesh.node_count,):
            raise ValueError(
                f"field has {values.shape} values for {self.mesh.node_count} nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite field value")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def triangle_gradients(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle P1 basis gradients (M, 3, 2) and areas (M,)."""
    p = mesh.nodes[mesh.triangles]
    r, z = p[..., 0], p[..., 1]
    area2 = ((r[:, 1] - r[:, 0]) * (z[:, 2] - z[:, 0])
             - (z[:, 1] - z[:, 0]) * (r[:, 2] - r[:, 0]))
    grads = np.empty_like(p)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = z[:, j] - z[:, k]
        grads[:, i, 1] = r[:, k] - r[:, j]
    grads /= area2[:, None, None]
    return grads, 0.5 * area2


@dataclass(frozen=True)
class StiffnessMatrix:
    """Sparse symmetric matrix of the (1/r)-weighted gradient form.

    Row sums vanish (the operator annihilates constants) and the diagonal is
    strictly positive; both are verified at assembly.

    One sparse factorization is kept per mesh: the Dirichlet factor (both
    loops held), computed on first use and reused by every solve.  The
    boundary Dirichlet-to-Neumann matrix `boundary_dtn` is read off a second,
    boundary-last factorization that is dropped as soon as it is read.  A
    Neumann solve is then one dense solve on the outer loop, with the
    Cholesky factor `outer_dtn_chol`, followed by a Dirichlet solve.
    """

    matrix: sparse.csr_matrix
    mesh: Mesh

    @cached_property
    def _dirichlet(self) -> "_ReducedSystem":
        b = self.mesh.boundary
        return _ReducedSystem(self, np.concatenate([b.outer_nodes, b.inner_nodes]))

    def _boundary_last_factor(self):
        """SuperLU factor of A without the first inner node's row and column,
        and the node at each of its positions.

        A's kernel is the constants, so holding one node leaves the matrix
        symmetric positive definite; it is factored without pivoting, the
        interior first (in the Dirichlet factor's column order), then the
        outer loop, then the rest of the inner loop.
        """
        b = self.mesh.boundary
        d = self._dirichlet
        order = np.concatenate([d.free[np.argsort(d.factor.perm_c)],
                                b.outer_nodes, b.inner_nodes[1:]])
        reduced = self.matrix.tocsc()[order][:, order].tocsc()
        factor = splu(reduced, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        return factor, order

    @cached_property
    def boundary_dtn(self) -> np.ndarray:
        """S = A_GG - A_GF A_FF^-1 A_FG, G the boundary nodes (outer loop,
        then inner loop, in BoundaryIndex order) and F the interior: the
        weighted flux of the field with the given boundary values and no
        interior load.  Its blocks are the interface matrices: S_II = S_D,
        S_IO = -T_f, and S_OO the outer Dirichlet-to-Neumann matrix.

        The trailing block of the boundary-last factor is S without the held
        node's row and column; as S annihilates constants, those follow from
        zero row sums.  FemError unless S is symmetric within 1e-12 relative
        and the held node's diagonal entry is positive.
        """
        b = self.mesh.boundary
        no, ni = len(b.outer_nodes), len(b.inner_nodes)
        if ni == 0:
            raise ValueError("a weighted-Neumann solve or interface system "
                             "requires an inner boundary")
        # the factor is dropped as soon as its trailing block is read
        block = _trailing_block(self._boundary_last_factor()[0], no + ni - 1)
        rest = np.delete(np.arange(no + ni), no)
        s = np.empty((no + ni, no + ni))
        s[np.ix_(rest, rest)] = block
        s[rest, no] = s[no, rest] = -block.sum(axis=1)
        s[no, no] = block.sum()
        asym = np.abs(s - s.T).max()
        if asym > 1e-12 * np.abs(s).max():
            raise FemError(f"assemble: boundary Dirichlet-to-Neumann matrix "
                           f"asymmetry {asym:.3e} exceeds 1e-12 relative")
        if not s[no, no] > 0.0:
            raise FemError(f"assemble: boundary Dirichlet-to-Neumann matrix "
                           f"has diagonal entry {s[no, no]:.3e} at the held node")
        return 0.5 * (s + s.T)

    @cached_property
    def outer_dtn_chol(self) -> np.ndarray:
        """Upper Cholesky factor R of the outer block S_OO = R'R of
        boundary_dtn; FemError if S_OO is not positive definite."""
        no = len(self.mesh.boundary.outer_nodes)
        try:
            return cholesky(self.boundary_dtn[:no, :no])
        except np.linalg.LinAlgError as exc:
            raise FemError(f"assemble: S_OO is not positive definite: {exc}") from exc

    @cached_property
    def outer_mass(self) -> sparse.csr_matrix:
        """Outer boundary mass B (n_o x n_o, cyclic tridiagonal): B g is the
        load of the natural boundary term on the outer loop, for g the
        weighted normal derivative (1/r) dpsi/dn at the outer nodes (the 1/r
        weight is folded into g).  Each edge uses 2-point Gauss with g linear
        along it, exact for the product g * phi_i.
        """
        outer = self.mesh.boundary.outer_nodes
        k = np.arange(len(outer))
        nxt = np.roll(k, -1)
        pts = self.mesh.nodes[outer]
        lengths = np.linalg.norm(pts[nxt] - pts, axis=1)
        q = np.array(_EDGE_POINTS)
        w = 0.5 * np.array([(1.0 - q) @ (1.0 - q), q @ (1.0 - q), q @ q])
        vals = np.concatenate([w[0] * lengths, w[1] * lengths,
                               w[1] * lengths, w[2] * lengths])
        rows = np.concatenate([k, k, nxt, nxt])
        cols = np.concatenate([k, nxt, k, nxt])
        return sparse.coo_matrix((vals, (rows, cols)),
                                 shape=(len(k), len(k))).tocsr()


def _trailing_block(factor, k: int) -> np.ndarray:
    """Schur complement of the leading unknowns of a factored symmetric
    positive definite matrix, on its last k unknowns in their own order:
    U_TT' diag(U_TT)^-1 U_TT (an LDL' split), un-permuted by perm_c.

    SuperLU may reorder columns; the block is that complement only if the
    last k unknowns stay a set there and every pivot is diagonal.
    """
    n = factor.shape[0]
    tail = factor.perm_c[n - k:] - (n - k)
    if not (np.array_equal(factor.perm_r, factor.perm_c) and tail.min() >= 0):
        raise FemError("assemble: boundary nodes not eliminated last")
    u = factor.U[n - k:, n - k:].toarray()
    s = u.T @ (u / u.diagonal()[:, None])
    return s[np.ix_(tail, tail)]


class _ReducedSystem:
    """LU factorization of the stiffness matrix minus constrained rows/cols,
    the free unknowns in ascending node order."""

    def __init__(self, A: StiffnessMatrix, constrained: np.ndarray):
        mask = np.ones(A.mesh.node_count, dtype=bool)
        mask[constrained] = False
        self.free = np.flatnonzero(mask)
        self.constrained = constrained
        csc = A.matrix.tocsc()
        self.coupling = csc[self.free][:, constrained]
        try:
            self.factor = splu(csc[self.free][:, self.free].tocsc())
        except RuntimeError as exc:  # pragma: no cover - signals assembly bug
            raise FemError(f"singular reduced system: {exc}") from exc

    def solve(self, boundary_values: np.ndarray) -> np.ndarray:
        """Nodal solution with no interior load for the constrained values."""
        x = np.zeros(len(self.free) + len(self.constrained))
        x[self.constrained] = boundary_values
        x[self.free] = self.factor.solve(-(self.coupling @ boundary_values))
        return x


def assemble_stiffness(mesh: Mesh) -> StiffnessMatrix:
    """Assemble A_ij = integral of (1/r) grad(phi_i) . grad(phi_j).

    P1 gradients are constant per triangle, so each local block is
    (grad_i . grad_j) times the 7-point Gauss-rule approximation of the
    integral of 1/r over the triangle.
    """
    grads, areas = triangle_gradients(mesh)

    r_nodes = mesh.nodes[mesh.triangles][..., 0]           # (M, 3)
    r_quad = r_nodes @ _QUAD_POINTS.T                      # (M, 7)
    weight_int = areas * ((1.0 / r_quad) @ _QUAD_WEIGHTS)  # integral of 1/r per tri

    local = np.einsum("mia,mja->mij", grads, grads) * weight_int[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    n = mesh.node_count
    A = sparse.coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()

    scale = np.abs(A).max()
    asym = np.abs(A - A.T).max()
    if asym > 1e-14 * scale:
        raise FemError(f"assembled matrix asymmetry {asym:.3e} exceeds tolerance")
    row_sums = np.asarray(np.abs(A @ np.ones(n)))
    row_max = np.asarray(np.abs(A).max(axis=1).todense()).ravel()
    if np.any(row_sums > 1e-12 * np.maximum(row_max, 1e-300)):
        raise FemError("stiffness row sums do not vanish: constants not in kernel")
    if np.any(A.diagonal() <= 0.0):
        raise FemError("non-positive diagonal entry in stiffness matrix")
    return StiffnessMatrix(A, mesh)


def _boundary_values(values, count: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(count, float(arr))
    if arr.shape != (count,):
        raise ValueError(f"{what} has length {arr.shape}, boundary has {count} nodes")
    return arr


def solve_dirichlet(A: StiffnessMatrix, f, v) -> FluxField:
    """Solve the flux problem with Dirichlet data on both loops.

    f holds nodal values on the outer loop, v on the inner loop (either may
    be a scalar).  Boundary nodes carry the data exactly; interior rows of
    A psi vanish up to factorization roundoff.
    """
    b = A.mesh.boundary
    f = _boundary_values(f, len(b.outer_nodes), "f")
    v = _boundary_values(v, len(b.inner_nodes), "v")
    x = A._dirichlet.solve(np.concatenate([f, v]))
    return FluxField(x, A.mesh)


def solve_neumann(A: StiffnessMatrix, g, v) -> FluxField:
    """Solve with weighted Neumann data g on the outer loop, Dirichlet v inside.

    The inner Dirichlet condition removes the constant nullspace, so the
    solution is unique.  Eliminating the interior leaves S_OO w + S_OI v = B g
    for the outer values w (S = boundary_dtn, B = outer_mass), one dense
    solve with the Cholesky factor of S_OO; the field is then the Dirichlet
    solution with w outside and v inside.
    """
    b = A.mesh.boundary
    no = len(b.outer_nodes)
    g = _boundary_values(g, no, "g")
    v = _boundary_values(v, len(b.inner_nodes), "v")
    flux = A.outer_mass @ g - A.boundary_dtn[:no, no:] @ v
    w = cho_solve((A.outer_dtn_chol, False), flux, check_finite=False)
    x = A._dirichlet.solve(np.concatenate([w, v]))
    return FluxField(x, A.mesh)


def trace(field: FluxField, where: str) -> np.ndarray:
    """Nodal values along a boundary in BoundaryIndex ordering."""
    return field.values[field.mesh.boundary.nodes_for(where)].copy()


def interpolate(mesh: Mesh, func) -> FluxField:
    """Nodal interpolant of func(r, z) as a FluxField."""
    return FluxField(func(mesh.nodes[:, 0], mesh.nodes[:, 1]), mesh)
