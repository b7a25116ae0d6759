"""P1 finite elements for the axisymmetric vacuum-flux operator.

The operator is  L psi = -[ d/dr((1/r) dpsi/dr) + d/dz((1/r) dpsi/dz) ]
with the weak form  a(psi, phi) = integral over the domain of
(1/r) grad(psi) . grad(phi).  Everything here lives on the weighted
stiffness matrix A of that form: the two auxiliary boundary-value solves
(Dirichlet data on both loops, or weighted Neumann data on the outer loop
plus Dirichlet on the inner) and the interface operators (S_D, S_N, their
eigendecomposition and the data-to-load map).  The field type, traces and
interpolants solve nothing, so they live in `fluxrec.mesh`; fem keeps
them at their old paths (`fem.FluxField`, `fem.trace`, `fem.interpolate`).
The solves and the operators all go through one sparse factorization per
mesh, of the interior block of A bordered by the boundary rows, and one
dense Cholesky factorization, of the boundary Dirichlet-to-Neumann matrix S
formed from that factor's boundary rows; the matrix caches each on first
use, so the geometry work is done once per mesh.  Every interface operator is read off
the blocks of S's Cholesky factor.  SuperLU makes the sparse
factorization, and the incomplete one the interior order comes from, with
no supernode relaxation and one-column panels (`_RELAX`, `_PANEL_SIZE`):
faster than its defaults on these small 2-D matrices, for the same factor
up to roundoff.  The weighted normal derivative (the boundary rows of
A psi) and the energy norm of a field gap are test oracles, in
tests/oracles.py, as is a dense Schur-complement path to the interface
operators; the pipeline needs none of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.linalg.blas import dsyrk, dtrsv
from scipy.sparse.linalg import spilu, splu

# FluxField, trace and interpolate live with the mesh, as they solve nothing;
# they keep their paths here
from .mesh import FluxField, Mesh, interpolate, trace, triangle_areas


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
# The share of the boundary tail that a column of L_TI must hold to join the
# dense rank update of the Schur complement (StiffnessMatrix._tail_chol).
# Shares from 0.05 to 0.2 build the iter and desk r1, r2 factors alike; with
# every column in the sparse product the build takes 1.3 to 2.4 times as long.
_HEAVY_SHARE = 0.1
# SuperLU's supernode relaxation and panel width (Demmel, Eisenstat,
# Gilbert, Li & Liu, SIAM J. Matrix Anal. Appl. 20(3), 1999), for the
# bordered factor and the ordering's incomplete factorization.  Of relax in
# {1, 2, 4, 10, 20} and panel_size in {1, 2, 4, 8, 20}, (1, 1) factored
# desk r0 and r1 fastest, and iter and desk r2 within 0.11 and 0.27 ms of
# the fastest; SuperLU's defaults, (10, 20), took 1.2 to 1.7 times as long.
# Relaxed supernodes store and update explicit zeros (26% of the stored
# factor on desk r1), and wide panels do not repay their dense block
# updates on matrices this small.  The order and the nonzeros of L and U
# are the same.
_RELAX = 1
_PANEL_SIZE = 1


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
    t_g (n_i x n_o each): the load is l = t_f f + t_g g.  All are read off
    the Cholesky factor of the boundary Dirichlet-to-Neumann matrix (see
    StiffnessMatrix.interface)."""

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

    One sparse factorization is kept per mesh, computed on first use: the
    bordered matrix [[A_II, 0], [A_TI, I]] with the interior I in a
    boundary-constrained minimum-degree order (`_interior_order`) and the
    tail T last, the outer loop then the inner loop without one held node
    (A's kernel is the constants).  Its L carries L_TI = A_TI U_II^-1, from
    which the boundary Dirichlet-to-Neumann matrix S_TT = A_TT - L_TI D
    L_TI' (D the pivots of A_II) is formed densely and Cholesky-factored,
    S_TT = U^'U^.  A Dirichlet solve is one solve with the sparse factor,
    and a Neumann solve adds two triangular solves on the outer loop with
    `outer_dtn_chol`, U^'s outer block.  The interface operators
    (`interface`) are products of U^'s blocks, dense work only, also on
    first use, so every data set on the mesh shares them.
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
        """SuperLU factor of the bordered matrix [[A_II, 0], [A_TI, I]] and
        the node at each of its positions: the interior I first, in
        `_interior_order`, then the tail T, `_boundary` without the held node
        (the last boundary node, on the last loop present).

        A_II is symmetric positive definite, so it is factored without
        pivoting in its given order; FemError unless SuperLU kept that
        order.  U's tail block is then the identity and L's tail rows are
        L_TI = A_TI U_II^-1, so SuperLU does no dense work on the tail.
        SuperLU runs at `_RELAX` and `_PANEL_SIZE`: the same L and U up to
        roundoff as at its defaults, in 0.6 to 0.8 of the time.
        """
        interior = _interior_order(self)
        order = np.concatenate([interior, self._boundary[:-1]])
        n, ni = len(order), len(interior)
        # A's entries in the interior columns, at their positions in order
        # (the held node's row drops out), then the tail's identity
        at = np.full(self.mesh.node_count, -1)
        at[order] = np.arange(n)
        coo = self.matrix.tocoo()
        row, col = at[coo.row], at[coo.col]
        keep = (row >= 0) & (col >= 0) & (col < ni)
        tail = np.arange(ni, n)
        bordered = sparse.csc_matrix(
            (np.concatenate([coo.data[keep], np.ones(n - ni)]),
             (np.concatenate([row[keep], tail]), np.concatenate([col[keep], tail]))),
            shape=(n, n))
        factor = splu(bordered, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                      relax=_RELAX, panel_size=_PANEL_SIZE)
        if not (np.array_equal(factor.perm_c, np.arange(n))
                and np.array_equal(factor.perm_r, factor.perm_c)):
            raise FemError("assemble: the bordered factor does not keep its "
                           "unknowns in their own order")
        return factor, order

    @cached_property
    def _tail_chol(self) -> np.ndarray:
        """U^, the upper Cholesky factor of the boundary Dirichlet-to-Neumann
        matrix on the tail T (`_boundary` without the held node),
        Fortran-ordered: S_TT = U^'U^.

        With A_II = L_II D L_II' and L_TI read off the bordered factor,
        S_TT = A_TT - G G' for G = L_TI D^1/2.  The columns of G that hold
        at least `_HEAVY_SHARE` of the tail go to one dense rank update
        (dsyrk), the rest to one sparse product.  FemError unless S_TT is
        positive definite.
        """
        factor, order = self._factor
        k = len(self._boundary) - 1
        ni = len(order) - k
        g = factor.L[ni:, :ni]
        g.data *= np.repeat(np.sqrt(factor.U.diagonal()[:ni]), np.diff(g.indptr))
        heavy = np.diff(g.indptr) >= _HEAVY_SHARE * k
        light = g[:, ~heavy]
        tail = order[ni:]
        s = self.matrix[tail][:, tail].toarray(order="F")
        s -= (light @ light.T).toarray()
        s = dsyrk(-1.0, g[:, heavy].toarray(order="F"), beta=1.0, c=s, overwrite_c=1)
        try:
            return cholesky(s, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FemError(f"assemble: the boundary Dirichlet-to-Neumann "
                           f"matrix is not positive definite: {exc}") from exc

    def _dirichlet_solve(self, values: np.ndarray) -> np.ndarray:
        """Nodal solution with the given `_boundary` values and no interior
        load: x_I = A_II^-1 (-A_IB x_B), one solve with the bordered factor,
        whose leading unknowns are I whatever the tail's right-hand side."""
        factor, order = self._factor
        x = np.zeros(self.mesh.node_count)
        x[self._boundary] = values
        ni = len(order) - len(values) + 1
        x[order[:ni]] = factor.solve(-(self.matrix @ x)[order])[:ni]
        return x

    @cached_property
    def outer_dtn_chol(self) -> np.ndarray:
        """Upper Cholesky factor R of the outer Dirichlet-to-Neumann matrix
        S_OO = R'R: the outer loop leads the tail, so R is U^'s outer block,
        copied Fortran-ordered.  ValueError on a mesh without an inner
        loop, where the held node lies on the outer loop."""
        b = self.mesh.boundary
        if len(b.inner_nodes) == 0:
            raise ValueError("a weighted-Neumann solve or interface system "
                             "requires an inner boundary")
        no = len(b.outer_nodes)
        return np.asfortranarray(self._tail_chol[:no, :no])

    @cached_property
    def interface(self) -> Interface:
        """The interface operators, on first use, with no sparse solve.

        Every block of the boundary Dirichlet-to-Neumann matrix S is a
        product of U^'s blocks.  S_OO = R'R and
        S_OI = R'U^_OI on the inner nodes but the held one, whose column
        follows from zero row sums; with W = R'^-1 T_f' = -R'^-1 S_OI that
        makes W = -U^_OI, held column R 1 + U^_OI 1.  The Neumann lift (zero
        weighted flux outside) of an inner basis function is its Dirichlet
        lift corrected by the lift of the outer values S_OO^-1 T_f', so
        S_N = S_D - W'W = U^_II'U^_II, its held row and column from zero row
        sums (the Neumann lift of a constant is that constant), and
        S_D = S_N + W'W, T_f = W'R.  Green reciprocity against the lifted
        columns turns the load -(A (tilde_d - tilde_n))[inner] of the lifts
        of f and g into T_f f + T_g g, T_g = -T_f S_OO^-1 B = -(B R^-1 W)'
        (B = outer_mass).  FemError unless S_D is positive definite and
        S_D - S_N positive semidefinite (no eigenvalue above 1 + 1e-10).
        """
        r = self.outer_dtn_chol
        no = len(r)
        u_oi, u_ii = self._tail_chol[:no, no:], self._tail_chol[no:, no:]
        ni = len(u_ii) + 1
        w = np.empty((no, ni))
        np.negative(u_oi, out=w[:, :-1])
        w[:, -1] = r.sum(axis=1) + u_oi.sum(axis=1)
        s_n = np.empty((ni, ni))
        s_n[:-1, :-1] = u_ii.T @ u_ii
        s_n[:-1, -1] = s_n[-1, :-1] = -s_n[:-1, :-1].sum(axis=1)
        s_n[-1, -1] = -s_n[-1, :-1].sum()
        s_d = s_n + w.T @ w
        t_f = w.T @ r
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
    free = np.ones(n, dtype=bool)
    free[A._boundary] = False
    interior = np.flatnonzero(free)
    vertex = np.full(n, len(interior))
    vertex[interior] = np.arange(len(interior))
    coo = A.matrix.tocoo()
    graph = sparse.csc_matrix((np.abs(coo.data), (vertex[coo.row], vertex[coo.col])),
                              shape=(len(interior) + 1, len(interior) + 1))
    perm_c = spilu(graph, drop_tol=1e300, fill_factor=1, permc_spec="MMD_AT_PLUS_A",
                   relax=_RELAX, panel_size=_PANEL_SIZE).perm_c
    at = np.argsort(perm_c)
    return interior[at[at < len(interior)]]


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
    for the outer values w (S the boundary Dirichlet-to-Neumann matrix,
    B = outer_mass).  With the held node's value v_h subtracted from w and
    v (S annihilates constants), S_OO = R'R and S_OI = R'U^_OI on the other
    inner values v', that is w = R^-1 (R'^-1 B g - U^_OI (v' - v_h)) + v_h,
    two triangular solves with R = outer_dtn_chol; the field is then the
    Dirichlet solution with w outside and v inside.
    """
    b = A.mesh.boundary
    no = len(b.outer_nodes)
    g = _boundary_values(g, no, "g")
    v = _boundary_values(v, len(b.inner_nodes), "v")
    r = A.outer_dtn_chol
    held = v[-1]
    y = dtrsv(r, A.outer_mass @ g, trans=1, overwrite_x=1)
    y -= A._tail_chol[:no, no:] @ (v[:-1] - held)
    w = dtrsv(r, y, overwrite_x=1)
    w += held
    x = A._dirichlet_solve(np.concatenate([w, v]))
    return FluxField(x, A.mesh)

