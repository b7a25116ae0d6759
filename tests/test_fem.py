import numpy as np
import pytest
from scipy.integrate import dblquad

from fluxrec import (FluxField, assemble_stiffness, interpolate,
                     solve_dirichlet, solve_neumann, trace)
from fluxrec.experiments import MANUFACTURED, refined_desk_mesh
from fluxrec.mesh import INNER, OUTER, Mesh, boundary_node_normals, circle_loop, generate_annulus_mesh
from conftest import build_square_mesh
import oracles
from oracles import energy_norm_sq, weighted_normal_derivative


# ---------------------------------------------------------------------------
# quadrature and assembly
# ---------------------------------------------------------------------------

def _single_triangle_mesh():
    nodes = np.array([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    edges = np.array([[0, 1], [1, 2], [2, 0]])
    return Mesh(nodes, tris, edges, np.array([OUTER] * 3))


def test_single_triangle_against_adaptive_quadrature():
    # oracle: adaptive 2D quadrature of (1/r) grad(phi_i).grad(phi_j) over the
    # triangle (1,0)-(2,0)-(1,1), integrated to rel tol 1e-10; the assembled
    # 7-point rule carries an O((h/r)^6) error of ~2e-5 on this deliberately
    # large low-radius triangle, so the match tolerance is 1e-4
    m = _single_triangle_mesh()
    A5 = assemble_stiffness(m).matrix.todense()
    weight, err = dblquad(lambda y, x: 1.0 / x, 1.0, 2.0,
                          lambda x: 0.0, lambda x: 2.0 - x,
                          epsabs=1e-13, epsrel=1e-10)
    assert err < 1e-11
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    oracle = (grads @ grads.T) * weight
    assert np.abs(A5 - oracle).max() <= 1e-4 * np.abs(oracle).max()


@pytest.mark.parametrize("fixture", ["desk_mesh", "iter_mesh", "wide_mesh"])
def test_constants_in_kernel(fixture, request):
    m = request.getfixturevalue(fixture)
    A = assemble_stiffness(m)
    ones = np.ones(m.node_count)
    row_max = np.abs(A.matrix).max(axis=1).toarray().ravel()
    assert np.all(np.abs(A.matrix @ ones) <= 1e-12 * row_max)


def test_matrix_symmetric_and_diag_positive(desk_A):
    M = desk_A.matrix
    assert np.abs(M - M.T).max() <= 1e-14 * np.abs(M).max()
    assert np.all(M.diagonal() > 0)


# ---------------------------------------------------------------------------
# boundary value solves
# ---------------------------------------------------------------------------

def test_dirichlet_constant_solution(desk_mesh, desk_A):
    sol = solve_dirichlet(desk_A, 3.25, 3.25)
    assert np.allclose(sol.values, 3.25, atol=1e-12)


def test_neumann_constant_solution(desk_mesh, desk_A):
    sol = solve_neumann(desk_A, 0.0, 7.5)
    assert np.allclose(sol.values, 7.5, atol=1e-11)


@pytest.mark.parametrize("func", [lambda r, z: np.ones_like(r),
                                  lambda r, z: z])
def test_galerkin_reproduction_of_affine_harmonics(desk_mesh, desk_A, func):
    # 1 and z are in the P1 space and in the operator kernel, so the solve
    # returns the interpolant up to quadrature-level error
    star = interpolate(desk_mesh, func)
    f = trace(star, OUTER)
    v = trace(star, INNER)
    sol = solve_dirichlet(desk_A, f, v)
    scale = max(np.abs(star.values).max(), 1.0)
    assert np.abs(sol.values - star.values).max() < 1e-8 * scale


def test_dirichlet_outer_trace_is_imposed_exactly(desk_mesh, desk_A):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(len(desk_mesh.boundary.outer_nodes))
    v = rng.standard_normal(len(desk_mesh.boundary.inner_nodes))
    sol = solve_dirichlet(desk_A, f, v)
    assert np.array_equal(trace(sol, OUTER), f)
    assert np.array_equal(trace(sol, INNER), v)


def _manufactured_data(mesh, name):
    mf = MANUFACTURED[name]
    b = mesh.boundary
    ro, zo = mesh.nodes[b.outer_nodes, 0], mesh.nodes[b.outer_nodes, 1]
    ri, zi = mesh.nodes[b.inner_nodes, 0], mesh.nodes[b.inner_nodes, 1]
    n = boundary_node_normals(mesh, OUTER)
    g = mf.weighted_flux(ro, zo, n[:, 0], n[:, 1])
    return mf.psi(ro, zo), mf.psi(ri, zi), g


def _linf_order(errors):
    rates = [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]
    return float(np.mean(rates))


@pytest.fixture(scope="module")
def refine_meshes():
    meshes = [refined_desk_mesh(k) for k in range(3)]
    return [(m, assemble_stiffness(m)) for m in meshes]


@pytest.mark.parametrize("which", ["desk", "iter", "desk r2"])
def test_stiffness_matches_einsum_oracle(which, request, refine_meshes):
    """The local blocks as two broadcast products are bitwise the einsum."""
    if which == "desk r2":
        mesh, A = refine_meshes[2]
    else:
        mesh = request.getfixturevalue(f"{which}_mesh")
        A = assemble_stiffness(mesh)
    got, want = A.matrix, oracles.stiffness_by_einsum(mesh)
    for attr in ("data", "indices", "indptr"):
        assert getattr(got, attr).tobytes() == getattr(want, attr).tobytes(), attr


@pytest.mark.parametrize("name", ["r2", "r2z", "quartic"])
def test_dirichlet_convergence_order(refine_meshes, name):
    errors = []
    for mesh, A in refine_meshes:
        f, v, _ = _manufactured_data(mesh, name)
        star = interpolate(mesh, MANUFACTURED[name].psi)
        sol = solve_dirichlet(A, f, v)
        errors.append(np.abs(sol.values - star.values).max()
                      / np.abs(star.values).max())
    order = _linf_order(errors)
    assert 1.7 <= order <= 2.3, (errors, order)


@pytest.mark.parametrize("name", ["r2", "r2z"])
def test_neumann_convergence_order(refine_meshes, name):
    errors = []
    for mesh, A in refine_meshes:
        _, v, g = _manufactured_data(mesh, name)
        star = interpolate(mesh, MANUFACTURED[name].psi)
        sol = solve_neumann(A, g, v)
        errors.append(np.abs(sol.values - star.values).max()
                      / np.abs(star.values).max())
    order = _linf_order(errors)
    assert 1.7 <= order <= 2.3, (errors, order)


def test_manufactured_solutions_satisfy_operator():
    # symbolic oracle: L psi = -[d/dr((1/r) psi_r) + d/dz((1/r) psi_z)] == 0
    import sympy as sp
    r, z = sp.symbols("r z", positive=True)
    catalog = {"one": sp.Integer(1), "z": z, "r2": r ** 2,
               "r2z": r ** 2 * z, "quartic": r ** 4 - 4 * r ** 2 * z ** 2}
    for name, expr in catalog.items():
        lpsi = -(sp.diff(sp.diff(expr, r) / r, r) + sp.diff(sp.diff(expr, z) / r, z))
        assert sp.simplify(lpsi) == 0, name
        # and the coded gradients match the symbolic ones
        gr, gz = MANUFACTURED[name].grad(2.5, -0.7)
        assert float(sp.diff(expr, r).subs({r: 2.5, z: -0.7})) == pytest.approx(float(gr), rel=1e-12, abs=1e-12)
        assert float(sp.diff(expr, z).subs({r: 2.5, z: -0.7})) == pytest.approx(float(gz), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# traces and flux recovery
# ---------------------------------------------------------------------------

def test_trace_of_interpolant_gives_coordinates(desk_mesh, desk_A):
    star = interpolate(desk_mesh, lambda r, z: z)
    got = trace(star, INNER)
    assert np.array_equal(got, desk_mesh.nodes[desk_mesh.boundary.inner_nodes, 1])


def test_flux_of_constant_field_vanishes(desk_mesh, desk_A):
    const = FluxField(np.full(desk_mesh.node_count, 4.0), desk_mesh)
    flux = weighted_normal_derivative(const, desk_A, INNER)
    assert np.abs(flux).max() < 1e-12


def test_neumann_flux_recovers_load_projection(desk_mesh, desk_A):
    rng = np.random.default_rng(3)
    g = rng.standard_normal(len(desk_mesh.boundary.outer_nodes))
    sol = solve_neumann(desk_A, g, 0.0)
    flux = weighted_normal_derivative(sol, desk_A, OUTER)
    load = desk_A.outer_mass @ g
    assert np.abs(flux - load).max() < 1e-10 * max(np.abs(load).max(), 1.0)


def test_inner_flux_against_edgewise_analytic_oracle():
    # psi* = r^2 on a fine annulus; the recovered nodal fluxes are compared
    # against edge-wise 2-point Gauss integration of the analytic
    # (1/r) dpsi/dn = 2 n_r against the P1 trace functions
    mesh = generate_annulus_mesh(circle_loop(6.0, 0.0, 2.0, 126),
                                 circle_loop(6.0, 0.0, 1.0, 63), 0.1)
    A = assemble_stiffness(mesh)
    b = mesh.boundary
    star = lambda r, z: r * r
    f = star(mesh.nodes[b.outer_nodes, 0], mesh.nodes[b.outer_nodes, 1])
    v = star(mesh.nodes[b.inner_nodes, 0], mesh.nodes[b.inner_nodes, 1])
    sol = solve_dirichlet(A, f, v)
    flux = weighted_normal_derivative(sol, A, INNER)

    inner = b.inner_nodes
    pts = mesh.nodes[inner]
    nxt = np.roll(np.arange(len(inner)), -1)
    oracle = np.zeros(len(inner))
    xi = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    for q in xi:
        mid = (1 - q) * pts + q * pts[nxt]
        edge = pts[nxt] - pts
        lengths = np.linalg.norm(edge, axis=1)
        normal = np.stack([edge[:, 1], -edge[:, 0]], axis=1) / lengths[:, None]
        gq = 2.0 * normal[:, 0]  # (1/r) * 2r * n_r
        np.add.at(oracle, np.arange(len(inner)), 0.5 * lengths * gq * (1 - q))
        np.add.at(oracle, nxt, 0.5 * lengths * gq * q)
    rel = np.abs(flux - oracle).max() / np.abs(oracle).max()
    assert rel < 5e-2


def test_discrete_green_identity(desk_mesh, desk_A):
    # summed boundary fluxes against any test trace equal the volume form
    # because interior residuals vanish for a solved field
    rng = np.random.default_rng(11)
    g = rng.standard_normal(len(desk_mesh.boundary.outer_nodes))
    sol = solve_neumann(desk_A, g, rng.standard_normal(
        len(desk_mesh.boundary.inner_nodes)))
    w = rng.standard_normal(desk_mesh.node_count)
    b = desk_mesh.boundary
    load = np.zeros(desk_mesh.node_count)
    load[b.outer_nodes] = desk_A.outer_mass @ g
    residual = desk_A.matrix @ sol.values - load
    boundary_sum = (residual[b.outer_nodes] @ w[b.outer_nodes]
                    + residual[b.inner_nodes] @ w[b.inner_nodes])
    volume = w @ (desk_A.matrix @ sol.values) - w @ load
    scale = max(abs(volume), 1.0)
    assert abs(boundary_sum - volume) < 1e-10 * scale


# ---------------------------------------------------------------------------
# energy form
# ---------------------------------------------------------------------------

def test_energy_zero_for_identical_and_constant_gap(desk_mesh, desk_A):
    rng = np.random.default_rng(5)
    a = FluxField(rng.standard_normal(desk_mesh.node_count), desk_mesh)
    assert energy_norm_sq(a, a, desk_A) == 0.0
    shifted = FluxField(a.values + 2.5, desk_mesh)
    assert abs(energy_norm_sq(a, shifted, desk_A)) < 1e-9 * desk_mesh.node_count


def test_energy_symmetry_exact(desk_mesh, desk_A):
    rng = np.random.default_rng(6)
    a = FluxField(rng.standard_normal(desk_mesh.node_count), desk_mesh)
    b = FluxField(rng.standard_normal(desk_mesh.node_count), desk_mesh)
    assert energy_norm_sq(a, b, desk_A) == energy_norm_sq(b, a, desk_A)


def test_energy_of_z_field_matches_weighted_area_integral():
    # |grad z|^2 = 1, so the energy equals the integral of 1/r over the
    # square [1,2] x [0,1]; oracle by adaptive quadrature
    m = build_square_mesh(12)
    A = assemble_stiffness(m)
    star = interpolate(m, lambda r, z: z)
    zero = FluxField(np.zeros(m.node_count), m)
    oracle, err = dblquad(lambda y, x: 1.0 / x, 1.0, 2.0,
                          lambda x: 0.0, lambda x: 1.0, epsrel=1e-12)
    got = energy_norm_sq(star, zero, A)
    assert abs(got - oracle) < 1e-6 * oracle


def test_dimension_mismatch_raises(desk_A):
    with pytest.raises(ValueError):
        solve_dirichlet(desk_A, np.zeros(3), 0.0)

