"""The interface operators read off the Schur complement's Cholesky
factor, and the field solves that go through the bordered factor.

fem keeps one sparse factor per mesh, of the bordered matrix
[[A_II, 0], [A_TI, I]] with the interior in a boundary-constrained
minimum-degree order and the boundary tail last, forms the boundary
Dirichlet-to-Neumann matrix S_TT = A_TT - L_TI D L_TI' from its tail rows
and keeps S_TT's Cholesky factor U^.  The stiffness matrix's interface
reads R (S_OO = R'R), S_D, S_N, T_f and T_g off U^'s blocks, KVSystem
builds J's constant term from R, a Dirichlet field solve is one solve with
the bordered factor and a Neumann solve adds two triangular solves with R.
These tests hold each of them, and the outer boundary mass that carries
the wall load, to the dense Schur-complement, block-solve, two-lift,
fresh-factor or edge-by-edge path (oracles in `oracles`), on the three
fixed geometries and on generated ring-ladder meshes, check the guards on
the factor's order and on S_TT's definiteness, hold the factor's fill
below that of the former COLAMD interior order, and count the sparse
factorizations, Cholesky calls and eigendecompositions a mesh makes.
"""

import gc
import weakref
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cholesky
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxrec import (CauchyData, assemble_kv, assemble_stiffness, fem,
                     solve_dirichlet, solve_neumann)
from fluxrec.fem import FemError
from fluxrec.mesh import (MeshGeometryError, generate_annulus_mesh,
                          scale_toward_centroid)
from conftest import build_square_mesh, inflate_tail_rows
from oracles import (colamd_interior_order, dirichlet_block_interface,
                     dirichlet_solve, flux_load_by_edge,
                     interface_by_dense_schur, neumann_block_interface,
                     neumann_solve, schur_by_block_solve, spilu_at_defaults,
                     splu_at_defaults, two_lift_constant)

seeds = st.integers(0, 2 ** 32 - 1)


def _rel(got, ref) -> float:
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _zero_system(mesh, A):
    n = len(mesh.boundary.outer_nodes)
    return assemble_kv(mesh, A, CauchyData(np.zeros(n), np.zeros(n)))


def _with_data(system, seed):
    """The system on random Cauchy data of random magnitude."""
    rng = np.random.default_rng(seed)
    n = len(system.data.f)
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
    return assemble_kv(system.stiffness.mesh, system.stiffness, CauchyData(f, g))


def _check_schur(A):
    """S_OO = R'R against the block solve."""
    r = A.outer_dtn_chol
    assert _rel(r.T @ r, schur_by_block_solve(A)) <= 1e-12


def _check_dirichlet_blocks(A):
    """S_D and T_f, and the dense Schur complement's blocks S_II = S_D and
    -S_IO = T_f, against the Dirichlet block solve."""
    no = len(A.mesh.boundary.outer_nodes)
    s_d, t_f = dirichlet_block_interface(A)
    s = interface_by_dense_schur(A).s
    for got_s_d, got_t_f in ((A.interface.s_d, A.interface.t_f),
                             (s[no:, no:], -s[no:, :no])):
        assert _rel(got_s_d, s_d) <= 1e-10
        assert _rel(got_t_f, t_f) <= 1e-10


def _check_dense_schur(A):
    """Each operator read off U^ against the dense Schur-complement path,
    which forms S and Cholesky-factors S_OO: R, S_D and S_N within 1e-13
    relative, the eigenvalues within 1e-13 absolute and T_f, T_g within
    1e-10 relative (T_f's largest entry is small beside S's, and both paths
    carry S's roundoff into it)."""
    ref = interface_by_dense_schur(A)
    ops = A.interface
    assert _rel(A.outer_dtn_chol, ref.r) <= 1e-13
    assert _rel(ops.s_d, ref.ops.s_d) <= 1e-13
    assert _rel(ops.s_n, ref.ops.s_n) <= 1e-13
    assert np.abs(ops.eigvals - ref.ops.eigvals).max() <= 1e-13
    assert _rel(ops.t_f, ref.ops.t_f) <= 1e-10
    assert _rel(ops.t_g, ref.ops.t_g) <= 1e-10


def _check_field_solves(A, seed):
    """Both field solves against fresh factorizations in node order, on
    random boundary data of random magnitudes."""
    rng = np.random.default_rng(seed)
    b = A.mesh.boundary
    f, g = rng.standard_normal((2, len(b.outer_nodes))) \
        * 10.0 ** rng.uniform(-2.0, 2.0, (2, 1))
    v = rng.standard_normal(len(b.inner_nodes)) * 10.0 ** rng.uniform(-2.0, 2.0)
    assert _rel(solve_neumann(A, g, v).values, neumann_solve(A, g, v)) <= 1e-12
    assert _rel(solve_dirichlet(A, f, v).values,
                dirichlet_solve(A, f, v)) <= 1e-12


def _check_constant(system):
    C, ref = system.constant_term, two_lift_constant(system)
    assert abs(C - ref) <= 1e-12 * (1.0 + abs(C))


def _check_outer_mass(A, seed):
    """B g against the edge-by-edge load, for g of random magnitude."""
    rng = np.random.default_rng(seed)
    outer = A.mesh.boundary.outer_nodes
    g = rng.standard_normal(len(outer)) * 10.0 ** rng.uniform(-3.0, 3.0)
    assert _rel(A.outer_mass @ g, flux_load_by_edge(A, g)[outer]) <= 1e-14


def _check_neumann_path(A):
    s_n, t_g = neumann_block_interface(A)
    assert _rel(A.interface.s_n, s_n) <= 1e-12
    assert _rel(A.interface.t_g, t_g) <= 1e-12


@pytest.fixture(scope="module", params=["desk", "iter", "wide"])
def base(request):
    return _zero_system(request.getfixturevalue(f"{request.param}_mesh"),
                        request.getfixturevalue(f"{request.param}_A"))


def test_outer_dtn_matches_block_solve_schur(base):
    _check_schur(base.stiffness)


def test_boundary_dtn_blocks_match_dirichlet_block_solve(base):
    _check_dirichlet_blocks(base.stiffness)


def test_boundary_dtn_is_symmetric_and_annihilates_constants(base):
    # S from the dense oracle; of the operators read off U^, S_D and S_N
    # are exactly symmetric and S_N annihilates the inner constants
    s = interface_by_dense_schur(base.stiffness).s
    no = len(base.stiffness.mesh.boundary.outer_nodes)
    assert np.array_equal(s, s.T)
    assert s[no, no] > 0.0
    assert np.abs(s.sum(axis=1)).max() <= 1e-12 * np.abs(s).max()
    ops = base.stiffness.interface
    assert np.array_equal(ops.s_d, ops.s_d.T)
    assert np.array_equal(ops.s_n, ops.s_n.T)
    assert np.abs(ops.s_n.sum(axis=1)).max() <= 1e-12 * np.abs(ops.s_n).max()


def test_interface_matches_dense_schur(base):
    _check_dense_schur(base.stiffness)


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_field_solves_match_fresh_factors(base, seed):
    _check_field_solves(base.stiffness, seed)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_constant_term_matches_two_lifts(base, seed):
    _check_constant(_with_data(base, seed))


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_outer_mass_matches_edgewise_load(base, seed):
    _check_outer_mass(base.stiffness, seed)


def test_outer_dtn_chol_is_fortran_ordered(base):
    # constant_term's BLAS calls read the factor in place, with no copy of
    # it per data set
    assert base.stiffness.outer_dtn_chol.flags.f_contiguous


def test_interface_matches_neumann_block_path(base):
    _check_neumann_path(base.stiffness)


def test_factor_has_less_fill_than_the_colamd_interior_order(base,
                                                             monkeypatch):
    A = base.stiffness
    kept = A._factor[0]
    monkeypatch.setattr(fem, "_interior_order", colamd_interior_order)
    ref = fem.StiffnessMatrix(A.matrix, A.mesh)
    assert kept.nnz < ref._factor[0].nnz
    # the tail keeps its order, so both give S_TT's Cholesky factor
    assert _rel(A._tail_chol, ref._tail_chol) <= 1e-12


def _check_superlu_defaults(A):
    """fem's supernode relaxation and panel width change how SuperLU
    schedules its work, not what it computes.  Against a factor made at
    SuperLU's defaults, the interior order and the nonzeros of L and U are
    the same, no more entries are stored, and L_TI and the pivots D are
    within 1e-15 relative.  U^ is within 1e-14: S_TT = A_TT - L_TI D L_TI'
    and its Cholesky factorization carry those last-bit moves into U^ (up
    to 2.1e-15 on the desk mesh)."""
    ref = fem.StiffnessMatrix(A.matrix, A.mesh)
    with patch.object(fem, "splu", splu_at_defaults), \
            patch.object(fem, "spilu", spilu_at_defaults):
        ref._tail_chol
    (factor, nodes), (ref_factor, ref_nodes) = A._factor, ref._factor
    # the interior in `_interior_order`, then the tail
    assert np.array_equal(nodes, ref_nodes)
    assert (factor.L.nnz, factor.U.nnz) == (ref_factor.L.nnz, ref_factor.U.nnz)
    assert factor.nnz <= ref_factor.nnz
    ni = len(nodes) - len(A._boundary) + 1
    if ni:
        assert _rel(factor.L[ni:, :ni].toarray(), ref_factor.L[ni:, :ni].toarray()) <= 1e-15
    assert _rel(factor.U.diagonal(), ref_factor.U.diagonal()) <= 1e-15
    assert _rel(A._tail_chol, ref._tail_chol) <= 1e-14


def test_superlu_settings_keep_the_default_factor(base):
    _check_superlu_defaults(base.stiffness)


@st.composite
def ring_ladder_meshes(draw):
    r0 = draw(st.floats(4.0, 8.0))
    a = draw(st.floats(1.0, 3.0))
    radii = np.array(draw(st.lists(st.floats(0.85, 1.15), min_size=8,
                                   max_size=24)))
    t = np.linspace(0.0, 2.0 * np.pi, len(radii), endpoint=False)
    outer = np.column_stack([r0 + a * radii * np.cos(t),
                             draw(st.floats(-1.0, 1.0)) + a * radii * np.sin(t)])
    inner = scale_toward_centroid(outer, draw(st.floats(0.3, 0.7)))
    try:
        return generate_annulus_mesh(outer, inner,
                                     a * draw(st.floats(0.2, 0.4)))
    except MeshGeometryError:
        assume(False)


@settings(max_examples=8, deadline=None)
@given(mesh=ring_ladder_meshes(), seed=seeds)
def test_oracles_hold_on_generated_meshes(mesh, seed):
    system = _zero_system(mesh, assemble_stiffness(mesh))
    _check_schur(system.stiffness)
    _check_dirichlet_blocks(system.stiffness)
    _check_field_solves(system.stiffness, seed)
    _check_outer_mass(system.stiffness, seed)
    _check_neumann_path(system.stiffness)
    _check_dense_schur(system.stiffness)
    _check_constant(_with_data(system, seed))


@settings(max_examples=10, deadline=None)
@given(mesh=ring_ladder_meshes())
def test_superlu_settings_keep_the_default_factor_on_generated_meshes(mesh):
    _check_superlu_defaults(assemble_stiffness(mesh))


@pytest.fixture(scope="module")
def desk_factor(desk_A):
    """The desk mesh's bordered factor, its node order and the length
    of its tail."""
    factor, order = desk_A._factor
    b = desk_A.mesh.boundary
    return factor, order, len(b.outer_nodes) + len(b.inner_nodes) - 1


def _check_bordered_factor(A):
    """U's tail columns are those of the identity, and U^ is the Cholesky
    factor of S_TT from the dense Schur-complement oracle, within 1e-12
    relative."""
    factor, order = A._factor
    k = len(A._boundary) - 1
    n = len(order)
    assert _rel(factor.U[:, n - k:].toarray(), np.eye(n)[:, n - k:]) == 0.0
    s = interface_by_dense_schur(A).s
    assert _rel(A._tail_chol, cholesky(s[:k, :k])) <= 1e-12


def test_bordered_factor_gives_the_dense_schur_cholesky(base):
    _check_bordered_factor(base.stiffness)


@settings(max_examples=8, deadline=None)
@given(mesh=ring_ladder_meshes(), seed=seeds)
def test_bordered_factor_holds_on_generated_meshes(mesh, seed):
    A = assemble_stiffness(mesh)
    _check_bordered_factor(A)
    _check_field_solves(A, seed)


def _fake_factor(mesh, perm_c, perm_r=None):
    """splu with the bordered factor's unknowns moved to other positions,
    as SuperLU's column postorder or row pivoting could move them.
    perm_c(n, k) gives the position of each unknown, k the length of
    mesh's boundary tail; perm_r, the row positions, defaults to perm_c."""
    b = mesh.boundary
    k = len(b.outer_nodes) + len(b.inner_nodes) - 1
    real = fem.splu

    def moved(*args, **kwargs):
        n = real(*args, **kwargs).shape[0]
        cols = perm_c(n, k)
        return SimpleNamespace(shape=(n, n), perm_c=cols,
                               perm_r=cols if perm_r is None else perm_r(n, k))
    return moved


def _identity(n, k):
    return np.arange(n)


def _reversed_tail(n, k):
    perm = np.arange(n)
    perm[n - k:] = perm[n - k:][::-1]
    return perm


def _swapped_ends(n, k):
    perm = np.arange(n)
    perm[[0, n - 1]] = perm[[n - 1, 0]]
    return perm


def test_factor_is_boundary_last_without_pivoting(desk_A, desk_factor):
    factor, order, k = desk_factor
    n = factor.shape[0]
    assert np.array_equal(factor.perm_c, np.arange(n))
    assert np.array_equal(factor.perm_r, factor.perm_c)
    b = desk_A.mesh.boundary
    assert n == desk_A.mesh.node_count - 1
    assert np.array_equal(order[n - k:],
                          np.concatenate([b.outer_nodes, b.inner_nodes[:-1]]))


def _rejected(A, monkeypatch, perm_c, perm_r=None):
    monkeypatch.setattr(fem, "splu", _fake_factor(A.mesh, perm_c, perm_r))
    with pytest.raises(FemError, match="assemble: the bordered factor does "
                       "not keep its unknowns in their own order"):
        fem.StiffnessMatrix(A.matrix, A.mesh)._factor


def test_outer_dtn_rejects_a_reordered_tail(desk_A, monkeypatch):
    # R is the leading block of U^ only with the outer loop first, in order
    _rejected(desk_A, monkeypatch, _reversed_tail)


@pytest.mark.parametrize("perm_c, perm_r", [(_swapped_ends, None),
                                            (_identity, _swapped_ends)],
                         ids=["interior_in_tail", "off_diagonal_pivots"])
def test_outer_dtn_rejects_broken_factor_order(desk_A, perm_c, perm_r,
                                               monkeypatch):
    _rejected(desk_A, monkeypatch, perm_c, perm_r)


def test_factor_rejects_a_non_positive_trailing_pivot(desk_mesh, monkeypatch):
    # inflated tail rows of L_TI leave S_TT indefinite, so its Cholesky
    # factorization meets a non-positive pivot (an outer block alone is
    # tested in test_spectral_path)
    b = desk_mesh.boundary
    inflate_tail_rows(monkeypatch, desk_mesh,
                      len(b.outer_nodes) + len(b.inner_nodes) - 1)
    with pytest.raises(FemError, match="assemble: the boundary "
                       "Dirichlet-to-Neumann matrix is not positive definite"):
        assemble_stiffness(desk_mesh).interface


def test_mesh_without_inner_boundary_has_no_boundary_dtn():
    A = assemble_stiffness(build_square_mesh(4))
    for call in (lambda: A.outer_dtn_chol, lambda: A.interface,
                 lambda: solve_neumann(A, 0.0, 0.0)):
        with pytest.raises(ValueError, match="requires an inner boundary"):
            call()


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_dirichlet_solve_without_inner_boundary(seed):
    # the factor then holds an outer node
    A = assemble_stiffness(build_square_mesh(4))
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(len(A.mesh.boundary.outer_nodes)) \
        * 10.0 ** rng.uniform(-2.0, 2.0)
    assert _rel(solve_dirichlet(A, f, 0.0).values,
                dirichlet_solve(A, f, np.zeros(0))) <= 1e-12


class _Watched:
    """A SuperLU factor that records reads of its L and U."""

    def __init__(self, factor):
        self._factor = factor
        self.read = []

    def __getattr__(self, name):
        if name in ("L", "U"):
            self.read.append(name)
        return getattr(self._factor, name)


def test_one_factor_outlives_assembly(iter_mesh, monkeypatch):
    # set-up and the field solves make one eigendecomposition and one
    # Cholesky factorization, of S_TT
    called = {"cholesky": 0, "eigh": 0}

    def counted(name, real):
        def call(*args, **kwargs):
            called[name] += 1
            return real(*args, **kwargs)
        return call
    for module in (scipy.linalg, np.linalg):
        monkeypatch.setattr(module, "cholesky",
                            counted("cholesky", module.cholesky))
    monkeypatch.setattr(scipy.linalg, "cho_factor",
                        counted("cholesky", scipy.linalg.cho_factor))
    monkeypatch.setattr(fem, "cholesky", counted("cholesky", fem.cholesky))
    monkeypatch.setattr(fem, "eigh", counted("eigh", fem.eigh))
    made = {"splu": [], "spilu": []}
    for name in made:
        def watched(*args, real=getattr(fem, name), log=made[name], **kwargs):
            factor = _Watched(real(*args, **kwargs))
            log.append((weakref.ref(factor), factor.read))
            return factor
        monkeypatch.setattr(fem, name, watched)
    A = assemble_stiffness(iter_mesh)
    n = len(iter_mesh.boundary.outer_nodes)
    assemble_kv(iter_mesh, A, CauchyData(np.ones(n), np.ones(n)))
    solve_neumann(A, 1.0, 0.5)
    solve_dirichlet(A, 1.0, 0.5)
    assert {name: len(log) for name, log in made.items()} == {"splu": 1,
                                                             "spilu": 1}
    gc.collect()
    alive = [ref() for ref, _ in made["splu"] + made["spilu"]
             if ref() is not None]
    assert alive == [A._factor[0]]
    # L and U were read once each, for S_TT; the field solves read neither
    assert sorted(A._factor[0].read) == ["L", "U"]
    assert called == {"cholesky": 1, "eigh": 1}
