"""P1 finite elements for the axisymmetric vacuum-flux operator.

The operator is  L psi = -[ d/dr((1/r) dpsi/dr) + d/dz((1/r) dpsi/dz) ]
with the weak form  a(psi, phi) = integral over the domain of
(1/r) grad(psi) . grad(phi).  Everything here lives on the weighted
stiffness matrix A of that form: the two auxiliary boundary-value solves
(Dirichlet data on both loops, or weighted Neumann data on the outer loop
plus Dirichlet on the inner), the boundary Dirichlet-to-Neumann matrix, the
interface operators cut from it (S_D, S_N, their eigendecomposition and the
data-to-load map), traces and interpolants.  All of them go through one
sparse factorization per mesh, of A with the boundary nodes eliminated
last, and the matrix caches each of them on first use, so the geometry
work is done once per mesh.  The weighted normal derivative (the boundary
rows of A psi) and the energy norm of a field gap are test oracles, in
tests/oracles.py; the pipeline needs neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve, cholesky, eigh, solve_triangular
from scipy.sparse.linalg import spilu, splu

from .mesh import Mesh, triangle_areas


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
    areas = triangle_areas(mesh.nodes, mesh.triangles)
    grads = np.empty_like(p)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = z[:, j] - z[:, k]
        grads[:, i, 1] = r[:, k] - r[:, j]
    grads /= 2.0 * areas[:, None, None]
    return grads, areas


@dataclass(frozen=True)
class Interface:
    """A mesh's interface operators on the inner-loop nodes, which depend on
    the geometry only: S_D (s_d), S_N (s_n), the ascending eigenpairs of
    S_N v = lam S_D v (eigvecs S_D-orthonormal, as columns), the closed
    form's misfit weights (1 - lam) / 2 and the data-to-load operator t_f,
    t_g (n_i x n_o each): the load is l = t_f f + t_g g."""

    s_d: np.ndarray
    s_n: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    weights: np.ndarray
    t_f: np.ndarray
    t_g: np.ndarray


@dataclass(frozen=True)
class StiffnessMatrix:
    """Sparse symmetric matrix of the (1/r)-weighted gradient form.

    Row sums vanish (the operator annihilates constants) and the diagonal is
    strictly positive; both are verified at assembly.

    One sparse factorization is kept per mesh, computed on first use: A
    without one boundary node's row and column, the interior eliminated
    first in a boundary-constrained minimum-degree order (`_interior_order`)
    and the boundary last.  The boundary Dirichlet-to-Neumann matrix
    `boundary_dtn` is read off its trailing block, and every field solve
    goes through it: a Dirichlet solve is one solve with that factor, and a
    Neumann solve is one dense solve on the outer loop, with the Cholesky
    factor `outer_dtn_chol`, followed by a Dirichlet solve.  The interface
    operators (`interface`) are cut from `boundary_dtn` with dense work
    only, also on first use, so every data set on the mesh shares them.
    """

    matrix: sparse.csr_matrix
    mesh: Mesh

    @cached_property
    def _boundary(self) -> np.ndarray:
        """The boundary nodes: the outer loop, then the inner loop."""
        b = self.mesh.boundary
        return np.concatenate([b.outer_nodes, b.inner_nodes])

    @cached_property
    def _factor(self):
        """SuperLU factor of A without the row and column of the last
        boundary node (the held node, on the last loop present), and the
        node at each of its positions.

        A's kernel is the constants, so holding one node leaves the matrix
        symmetric positive definite; it is factored without pivoting, the
        interior first (in `_interior_order`), then the rest of the boundary
        in `_boundary` order.
        """
        order = np.concatenate([_interior_order(self), self._boundary[:-1]])
        reduced = self.matrix.tocsc()[order][:, order].tocsc()
        factor = splu(reduced, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})
        return factor, order

    @cached_property
    def _schur(self) -> np.ndarray:
        """S = A_GG - A_GF A_FF^-1 A_FG on the `_boundary` nodes G, F the
        interior, for a mesh with or without an inner loop.

        The trailing block of the factor is S without the held node's row
        and column; as S annihilates constants, those follow from zero row
        sums.  FemError unless S is symmetric within 1e-12 relative and the
        held node's diagonal entry is positive.
        """
        k = len(self._boundary) - 1
        block = _trailing_block(self._factor[0], k)
        s = np.empty((k + 1, k + 1))
        s[:k, :k] = block
        s[:k, k] = s[k, :k] = -block.sum(axis=1)
        s[k, k] = block.sum()
        asym = np.abs(s - s.T).max()
        if asym > 1e-12 * np.abs(s).max():
            raise FemError(f"assemble: boundary Dirichlet-to-Neumann matrix "
                           f"asymmetry {asym:.3e} exceeds 1e-12 relative")
        if not s[k, k] > 0.0:
            raise FemError(f"assemble: boundary Dirichlet-to-Neumann matrix "
                           f"has diagonal entry {s[k, k]:.3e} at the held node")
        return 0.5 * (s + s.T)

    @property
    def boundary_dtn(self) -> np.ndarray:
        """S = A_GG - A_GF A_FF^-1 A_FG, G the boundary nodes (outer loop,
        then inner loop, in BoundaryIndex order) and F the interior: the
        weighted flux of the field with the given boundary values and no
        interior load.  Its blocks are the interface matrices: S_II = S_D,
        S_IO = -T_f, and S_OO the outer Dirichlet-to-Neumann matrix.
        ValueError on a mesh without an inner loop.
        """
        if len(self.mesh.boundary.inner_nodes) == 0:
            raise ValueError("a weighted-Neumann solve or interface system "
                             "requires an inner boundary")
        return self._schur

    def _dirichlet_solve(self, values: np.ndarray) -> np.ndarray:
        """Nodal solution with the given `_boundary` values and no interior
        load.

        With the held node's value c subtracted (constants lie in A's
        kernel), the field has residual 0 on the interior and S (x_G - c) on
        the boundary, so one solve with the factor gives the interior; the
        boundary values are then written back exactly.
        """
        factor, order = self._factor
        rhs = np.zeros(len(order))
        rhs[len(order) - len(values) + 1:] = (
            self._schur @ (values - values[-1]))[:-1]
        x = np.empty(self.mesh.node_count)
        x[order] = factor.solve(rhs) + values[-1]
        x[self._boundary] = values
        return x

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
    def interface(self) -> Interface:
        """The interface operators, on first use, with no sparse solve.

        S_D = S_II, T_f = -S_IO and S_OO are blocks of S = boundary_dtn.
        The Neumann lift (zero weighted flux outside) of an inner basis
        function is its Dirichlet lift corrected by the lift of the outer
        values S_OO^-1 T_f', so S_N = S_D - T_f S_OO^-1 T_f'; Green
        reciprocity against the lifted columns turns the load
        -(A (tilde_d - tilde_n))[inner] of the lifts of f and g into
        T_f f + T_g g, T_g = -T_f S_OO^-1 B (B = outer_mass).  FemError
        unless S_D is positive definite and S_D - S_N positive semidefinite
        (no eigenvalue above 1 + 1e-10).
        """
        no = len(self.mesh.boundary.outer_nodes)
        s = self.boundary_dtn
        s_d = s[no:, no:].copy()
        t_f = -s[no:, :no]
        r = self.outer_dtn_chol
        # with S_OO = R'R and W = R'^-1 T_f': S_N = S_D - W'W, and
        # T_g = -(B S_OO^-1 T_f')' = -(B R^-1 W)', B being symmetric
        w = solve_triangular(r, t_f.T, trans="T")
        s_n = s_d - w.T @ w
        s_n = 0.5 * (s_n + s_n.T)
        t_g = -(self.outer_mass @ solve_triangular(r, w)).T
        try:
            eigvals, eigvecs = eigh(s_n, s_d)
        except np.linalg.LinAlgError as exc:
            raise FemError(f"S_D is not positive definite: {exc}") from exc
        if 1.0 - eigvals[-1] < -1e-10:
            raise FemError(
                f"S_D - S_N is indefinite: generalized eigenvalue "
                f"{eigvals[-1]:.12g} exceeds 1 + 1e-10")
        return Interface(s_d, s_n, eigvals, eigvecs, 0.5 * (1.0 - eigvals),
                         t_f, t_g)

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


def _interior_order(A: StiffnessMatrix) -> np.ndarray:
    """The interior nodes in a fill-reducing order for elimination ahead of
    the boundary.

    Minimum degree on A + A' runs on A's graph with every boundary node
    contracted into one vertex, which is then dropped from the order (the
    constrained ordering of George & Liu, "Computer Solution of Large Sparse
    Positive Definite Systems", 1981).  SciPy runs SuperLU's ordering only
    inside a factorization, so it is taken from an incomplete one that
    drops every off-diagonal entry.  The graph carries the values of |A|:
    with all-ones values, or an infinite drop tolerance, SuperLU finds that
    factorization exactly singular.
    """
    n = A.mesh.node_count
    interior = np.setdiff1d(np.arange(n), A._boundary)
    vertex = np.full(n, len(interior))
    vertex[interior] = np.arange(len(interior))
    contract = sparse.csr_matrix((np.ones(n), (vertex, np.arange(n))),
                                 shape=(len(interior) + 1, n))
    graph = (contract @ abs(A.matrix) @ contract.T).tocsc()
    perm_c = spilu(graph, drop_tol=1e300, fill_factor=1,
                   permc_spec="MMD_AT_PLUS_A").perm_c
    at = np.argsort(perm_c)
    return interior[at[at < len(interior)]]


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

    gr, gz = grads[..., 0], grads[..., 1]
    local = (gr[:, :, None] * gr[:, None, :]
             + gz[:, :, None] * gz[:, None, :]) * weight_int[:, None, None]
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
    x = A._dirichlet_solve(np.concatenate([f, v]))
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
    x = A._dirichlet_solve(np.concatenate([w, v]))
    return FluxField(x, A.mesh)


def trace(field: FluxField, where: str) -> np.ndarray:
    """Nodal values along a boundary in BoundaryIndex ordering."""
    return field.values[field.mesh.boundary.nodes_for(where)].copy()


def interpolate(mesh: Mesh, func) -> FluxField:
    """Nodal interpolant of func(r, z) as a FluxField."""
    return FluxField(func(mesh.nodes[:, 0], mesh.nodes[:, 1]), mesh)
