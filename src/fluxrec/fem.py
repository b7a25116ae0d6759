"""P1 finite elements for the axisymmetric vacuum-flux operator.

The operator is  L psi = -[ d/dr((1/r) dpsi/dr) + d/dz((1/r) dpsi/dz) ]
with the weak form  a(psi, phi) = integral over the domain of
(1/r) grad(psi) . grad(phi).  Everything here lives on the weighted
stiffness matrix A of that form: the two auxiliary boundary-value solves
(Dirichlet data on both loops, or weighted Neumann data on the outer loop
plus Dirichlet on the inner), traces, variationally consistent weighted
normal derivatives, and energy integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
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
    strictly positive; both are verified at assembly.  Reduced factorizations
    for the two boundary-condition kinds are computed lazily, once per mesh,
    and reused by every solve.

    The Dirichlet factor holds both loops.  The Neumann factor holds the
    inner loop only; its matrix is symmetric positive definite, and it is
    factored without pivoting, the interior first (in the Dirichlet factor's
    column order) and the outer-loop nodes last.  The trailing block of that
    factor is then the Schur complement of the interior, the outer
    Dirichlet-to-Neumann matrix `outer_dtn`, which costs no extra solve.
    """

    matrix: sparse.csr_matrix
    mesh: Mesh

    @cached_property
    def _dirichlet(self) -> "_ReducedSystem":
        b = self.mesh.boundary
        constrained = np.concatenate([b.outer_nodes, b.inner_nodes])
        return _ReducedSystem(self, constrained)

    @cached_property
    def _neumann(self) -> "_ReducedSystem":
        b = self.mesh.boundary
        if len(b.inner_nodes) == 0:
            raise ValueError("weighted-Neumann solve requires an inner boundary")
        dirichlet = self._dirichlet
        interior = dirichlet.free[np.argsort(dirichlet.factor.perm_c)]
        return _ReducedSystem(self, b.inner_nodes.copy(),
                              np.concatenate([interior, b.outer_nodes]),
                              permc_spec="NATURAL", diag_pivot_thresh=0.0,
                              options={"SymmetricMode": True})

    @cached_property
    def outer_dtn(self) -> np.ndarray:
        """S_OO = A_OO - A_OF A_FF^-1 A_FO, outer nodes against outer nodes,
        F the interior: the weighted flux of the field with the given outer
        values and zero inner values.  Read off the Neumann factor's
        trailing block as U_OO' diag(U_OO)^-1 U_OO (an LDL' split of the
        Schur complement), then un-permuted to outer-loop order.
        """
        factor = self._neumann.factor
        n, no = factor.shape[0], len(self.mesh.boundary.outer_nodes)
        # SuperLU may reorder columns; the trailing block is S_OO only if
        # the outer nodes stay a set there and every pivot is diagonal
        tail = factor.perm_c[n - no:] - (n - no)
        if not (np.array_equal(factor.perm_r, factor.perm_c)
                and tail.min() >= 0):
            raise FemError("assemble: outer nodes not eliminated last in the "
                           "Neumann factor")
        u = factor.U[n - no:, n - no:].toarray()
        s = u.T @ (u / u.diagonal()[:, None])
        return s[np.ix_(tail, tail)]

    @cached_property
    def outer_mass(self) -> sparse.csr_matrix:
        """Outer boundary mass B (n_o x n_o, cyclic tridiagonal): B g is the
        outer-loop part of boundary_flux_load(g)."""
        outer = self.mesh.boundary.outer_nodes
        k = np.arange(len(outer))
        nxt = np.roll(k, -1)
        pts = self.mesh.nodes[outer]
        lengths = np.linalg.norm(pts[nxt] - pts, axis=1)
        # 2-point Gauss on each edge, with g linear along it
        q = np.array(_EDGE_POINTS)
        w = 0.5 * np.array([(1.0 - q) @ (1.0 - q), q @ (1.0 - q), q @ q])
        vals = np.concatenate([w[0] * lengths, w[1] * lengths,
                               w[1] * lengths, w[2] * lengths])
        rows = np.concatenate([k, k, nxt, nxt])
        cols = np.concatenate([k, nxt, k, nxt])
        return sparse.coo_matrix((vals, (rows, cols)),
                                 shape=(len(k), len(k))).tocsr()


class _ReducedSystem:
    """LU factorization of the stiffness matrix minus constrained rows/cols.

    `free` gives the order of the reduced unknowns (ascending node order by
    default); the keyword options go to splu.
    """

    def __init__(self, A: StiffnessMatrix, constrained: np.ndarray,
                 free: np.ndarray | None = None, **options):
        if free is None:
            mask = np.ones(A.mesh.node_count, dtype=bool)
            mask[constrained] = False
            free = np.flatnonzero(mask)
        self.free = free
        self.constrained = constrained
        csc = A.matrix.tocsc()
        self.coupling = csc[free][:, constrained]
        reduced = csc[free][:, free]
        try:
            self.factor = splu(reduced.tocsc(), **options)
        except RuntimeError as exc:  # pragma: no cover - signals assembly bug
            raise FemError(f"singular reduced system: {exc}") from exc

    def solve(self, boundary_values: np.ndarray, load: np.ndarray | None) -> np.ndarray:
        """Nodal solution for the constrained values, or one column per
        column of a 2-D block of them."""
        n = len(self.free) + len(self.constrained)
        x = np.zeros((n,) + np.shape(boundary_values)[1:])
        x[self.constrained] = boundary_values
        rhs = -(self.coupling @ boundary_values)
        if load is not None:
            rhs += load[self.free]
        x[self.free] = self.factor.solve(rhs)
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


def boundary_flux_load(A: StiffnessMatrix, g) -> np.ndarray:
    """Load vector of the natural boundary term on the outer loop.

    g is the weighted normal derivative (1/r) dpsi/dn at the outer boundary
    nodes; since the 1/r weight is folded into g, the edge integrals of
    g * phi_i carry no extra factor.  Each edge uses 2-point Gauss with g
    interpolated linearly between its nodal values (exact for this product),
    which is the outer boundary mass B applied to g.  A 2-D block of g
    columns gives one load column per column.
    """
    b = A.mesh.boundary
    no = len(b.outer_nodes)
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 2:
        if len(g) != no:
            raise ValueError(f"g has {len(g)} rows, boundary has {no} nodes")
    else:
        g = _boundary_values(g, no, "g")
    load = np.zeros((A.mesh.node_count,) + g.shape[1:])
    load[b.outer_nodes] = A.outer_mass @ g
    return load


def solve_dirichlet(A: StiffnessMatrix, f, v) -> FluxField:
    """Solve the flux problem with Dirichlet data on both loops.

    f holds nodal values on the outer loop, v on the inner loop (either may
    be a scalar).  Boundary nodes carry the data exactly; interior rows of
    A psi vanish up to factorization roundoff.
    """
    b = A.mesh.boundary
    f = _boundary_values(f, len(b.outer_nodes), "f")
    v = _boundary_values(v, len(b.inner_nodes), "v")
    x = A._dirichlet.solve(np.concatenate([f, v]), None)
    return FluxField(x, A.mesh)


def solve_neumann(A: StiffnessMatrix, g, v) -> FluxField:
    """Solve with weighted Neumann data g on the outer loop, Dirichlet v inside.

    The inner Dirichlet condition removes the constant nullspace, so the
    solution is unique.
    """
    b = A.mesh.boundary
    g = _boundary_values(g, len(b.outer_nodes), "g")
    v = _boundary_values(v, len(b.inner_nodes), "v")
    load = boundary_flux_load(A, g)
    x = A._neumann.solve(v, load)
    return FluxField(x, A.mesh)


def trace(field: FluxField, where: str) -> np.ndarray:
    """Nodal values along a boundary in BoundaryIndex ordering."""
    return field.values[field.mesh.boundary.nodes_for(where)].copy()


def weighted_normal_derivative(field: FluxField, A: StiffnessMatrix,
                               where: str) -> np.ndarray:
    """Variationally consistent weighted normal derivative on a boundary.

    Returns the boundary entries of A psi, i.e. the Riesz representation of
    (1/r) dpsi/dn against the boundary test functions (mass-weighted nodal
    fluxes).  For a field solved with zero interior load this is the exact
    discrete flux; on the outer loop of a Neumann solve it reproduces the
    g load projection.
    """
    if field.mesh is not A.mesh:
        raise ValueError("field and matrix live on different meshes")
    residual = A.matrix @ field.values
    return residual[field.mesh.boundary.nodes_for(where)]


def energy_norm_sq(field_a: FluxField, field_b: FluxField,
                   A: StiffnessMatrix) -> float:
    """(a - b)^T A (a - b): the weighted energy of the gradient gap."""
    d = field_a.values - field_b.values
    return float(d @ (A.matrix @ d))


def interpolate(mesh: Mesh, func) -> FluxField:
    """Nodal interpolant of func(r, z) as a FluxField."""
    return FluxField(func(mesh.nodes[:, 0], mesh.nodes[:, 1]), mesh)
