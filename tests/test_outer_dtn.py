"""The outer Dirichlet-to-Neumann matrix and the solve-free interface path.

fem reads S_OO off the trailing block of the boundary-last Neumann factor,
and assemble_kv builds S_N, T_g and J's constant term from it with dense
work only.  These tests hold each of them to the block-solve or two-lift
path it replaced (oracles in `oracles`), on the three fixed geometries and
on generated ring-ladder meshes, and check the guard on the factor's
column order.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxrec import CauchyData, assemble_kv, assemble_stiffness
from fluxrec.fem import FemError
from fluxrec.mesh import (MeshGeometryError, generate_annulus_mesh,
                          scale_toward_centroid)
from oracles import (neumann_block_interface, schur_by_block_solve,
                     two_lift_constant)

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
    return assemble_kv(system.mesh, system.stiffness, CauchyData(f, g),
                       reuse=system)


def _check_schur(A):
    assert _rel(A.outer_dtn, schur_by_block_solve(A)) <= 1e-12


def _check_constant(system):
    C, ref = system.constant_term(), two_lift_constant(system)
    assert abs(C - ref) <= 1e-12 * (1.0 + abs(C))


def _check_neumann_path(system):
    s_n, t_g = neumann_block_interface(system)
    assert _rel(system.s_n, s_n) <= 1e-12
    assert _rel(system.t_g, t_g) <= 1e-12


@pytest.fixture(scope="module", params=["desk", "iter", "wide"])
def base(request):
    return _zero_system(request.getfixturevalue(f"{request.param}_mesh"),
                        request.getfixturevalue(f"{request.param}_A"))


def test_outer_dtn_matches_block_solve_schur(base):
    _check_schur(base.stiffness)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_constant_term_matches_two_lifts(base, seed):
    _check_constant(_with_data(base, seed))


def test_interface_matches_neumann_block_path(base):
    _check_neumann_path(base)


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
    _check_neumann_path(system)
    _check_constant(_with_data(system, seed))


def _with_fake_factor(mesh, perm_c, perm_r=None):
    """A fresh stiffness matrix whose Neumann factor has its unknowns moved
    to other positions, as SuperLU's column postorder or row pivoting could
    move them.  perm_c(n, n_o) gives the position of each reduced unknown;
    perm_r, the row positions, defaults to perm_c."""
    A = assemble_stiffness(mesh)
    real = A._neumann.factor
    n, no = real.shape[0], len(mesh.boundary.outer_nodes)
    cols = perm_c(n, no)
    at = np.argsort(cols)                   # the unknown at each position
    A.__dict__["_neumann"] = SimpleNamespace(factor=SimpleNamespace(
        shape=real.shape, perm_c=cols,
        perm_r=cols if perm_r is None else perm_r(n, no),
        U=real.U[at][:, at]))
    return A


def _identity(n, no):
    return np.arange(n)


def _reversed_tail(n, no):
    perm = np.arange(n)
    perm[n - no:] = perm[n - no:][::-1]
    return perm


def _swapped_ends(n, no):
    perm = np.arange(n)
    perm[[0, n - 1]] = perm[[n - 1, 0]]
    return perm


def test_factor_is_boundary_last_without_pivoting(desk_A):
    factor = desk_A._neumann.factor
    n = factor.shape[0]
    assert np.array_equal(factor.perm_c, np.arange(n))
    assert np.array_equal(factor.perm_r, factor.perm_c)
    no = len(desk_A.mesh.boundary.outer_nodes)
    assert np.array_equal(desk_A._neumann.free[n - no:],
                          desk_A.mesh.boundary.outer_nodes)


def test_outer_dtn_unpermutes_a_reordered_tail(desk_mesh, desk_A):
    A = _with_fake_factor(desk_mesh, _reversed_tail)
    assert _rel(A.outer_dtn, desk_A.outer_dtn) <= 1e-15


@pytest.mark.parametrize("perm_c, perm_r", [(_swapped_ends, None),
                                            (_identity, _swapped_ends)],
                         ids=["interior_in_tail", "off_diagonal_pivots"])
def test_outer_dtn_rejects_broken_factor_order(desk_mesh, perm_c, perm_r):
    A = _with_fake_factor(desk_mesh, perm_c, perm_r)
    with pytest.raises(FemError,
                       match="assemble: outer nodes not eliminated last"):
        A.outer_dtn
