import numpy as np
import pytest
from scipy.optimize import brentq

from fluxrec import FluxField, interpolate
from fluxrec.experiments import TwinSpec, loop_flux_field, run_twin
from fluxrec.mesh import polygon_centroid
from fluxrec.postprocess import (EmptyIsolineError, NoTransitionError,
                                 _RegionClassifier, extract_isoline,
                                 find_plasma_boundary, magnetic_field)


@pytest.fixture(scope="module")
def xpoint_field():
    """Loop flux plus a vertical-field term with a saddle at r = 7.8, z = 0."""
    probe = loop_flux_field(6.0, 0.0, 1.0, 0.0)
    gr, _ = probe.grad(7.8, 0.0)
    gamma = -(gr / 7.8) / 2.0
    mf = loop_flux_field(6.0, 0.0, 1.0, gamma)
    r_x = brentq(lambda r: mf.grad(r, 0.0)[0], 7.3, 8.15, xtol=1e-14)
    return mf, r_x, float(mf.psi(r_x, 0.0))


def test_field_of_r_squared():
    # axis-aligned triangles make the interpolant of r*r exactly flat in z,
    # so the radial component vanishes identically there
    from conftest import build_square_mesh
    mesh = build_square_mesh(8)
    fld = interpolate(mesh, lambda r, z: r * r)
    sample = magnetic_field(fld)
    assert np.abs(sample.b_r).max() == 0.0
    assert np.all(sample.b_z > 0.0)


def test_field_of_constant(desk_mesh):
    fld = FluxField(np.full(desk_mesh.node_count, 2.0), desk_mesh)
    sample = magnetic_field(fld)
    assert np.abs(sample.b_r).max() < 1e-13
    assert np.abs(sample.b_z).max() < 1e-13


def test_field_of_z(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: z)
    sample = magnetic_field(fld)
    r_c = desk_mesh.nodes[desk_mesh.triangles][:, :, 0].mean(axis=1)
    assert np.allclose(sample.b_r, -1.0 / r_c, rtol=1e-12)
    assert np.abs(sample.b_z).max() < 1e-12


def test_isoline_of_linear_field_is_flat(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: z)
    iso = extract_isoline(fld, 0.5)
    pts = np.vstack(iso.polylines)
    assert np.abs(pts[:, 1] - 0.5).max() < 1e-10
    assert not iso.closed            # the plane z=0.5 exits through the wall
    assert not iso.inside_domain


def test_isoline_level_out_of_range(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: z)
    with pytest.raises(EmptyIsolineError):
        extract_isoline(fld, 99.0)


def test_isoline_of_radial_field_matches_analytic_level_set(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: r * r)
    level = 38.0
    iso = extract_isoline(fld, level)
    pts = np.vstack(iso.polylines)
    h = desk_mesh.max_edge_length
    assert np.abs(pts[:, 0] - np.sqrt(level)).max() < h


def test_isoline_points_sit_on_the_level(desk_mesh, desk_A):
    from fluxrec import solve_dirichlet, trace
    rng = np.random.default_rng(4)
    sol = solve_dirichlet(desk_A,
                          rng.standard_normal(len(desk_mesh.boundary.outer_nodes)),
                          rng.standard_normal(len(desk_mesh.boundary.inner_nodes)))
    values = sol.values
    rngspan = values.max() - values.min()
    level = float(np.percentile(values, 60))
    iso = extract_isoline(sol, level)

    # evaluate the P1 field at every polyline vertex by locating it on its
    # generating edge: vertices are convex combinations of edge endpoints
    tri_pts = desk_mesh.nodes[desk_mesh.triangles]
    for seg in iso.segments:
        for pt in seg:
            # find a triangle containing the point and interpolate
            v0 = tri_pts[:, 0]
            d1 = tri_pts[:, 1] - v0
            d2 = tri_pts[:, 2] - v0
            det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
            rel = pt - v0
            l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
            l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
            ok = (l1 >= -1e-9) & (l2 >= -1e-9) & (l1 + l2 <= 1 + 1e-9)
            t = np.flatnonzero(ok)[0]
            vals = values[desk_mesh.triangles[t]]
            interp = vals[0] * (1 - l1[t] - l2[t]) + vals[1] * l1[t] + vals[2] * l2[t]
            assert abs(interp - level) < 1e-10 * rngspan


def test_isoline_segments_stay_in_their_triangle(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: r * r + z)
    iso = extract_isoline(fld, 38.0)
    h = desk_mesh.max_edge_length
    for a, b in iso.segments:
        assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= h + 1e-12


def test_radial_field_has_no_transition(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: r * r)
    with pytest.raises(NoTransitionError):
        find_plasma_boundary(fld)


def test_pure_quadratic_saddle_has_no_closed_contours(desk_mesh):
    # a pure saddle admits no closed level curves at all (no interior
    # extremum), so the boundary search must report no transition.  The
    # X-point tests use a current loop plus a vertical field instead: the
    # loop's flux closes around the hole, and the saddle of the sum is the
    # level at which those closed surfaces open to the wall
    fld = interpolate(desk_mesh, lambda r, z: (r - 7.0) ** 2 - z ** 2 + 3.0)
    with pytest.raises(NoTransitionError):
        find_plasma_boundary(fld)


def test_xpoint_transition_matches_scan_oracle(desk_mesh, xpoint_field):
    mf, r_x, psi_x = xpoint_field
    fld = interpolate(desk_mesh, mf.psi)
    psi_p, iso, mode = find_plasma_boundary(fld)
    assert mode == "xpoint"
    rngspan = fld.values.max() - fld.values.min()

    # independent oracle: exhaustive bisection of the region classifier
    cls = _RegionClassifier(desk_mesh, fld.values)
    a = float(fld.values[desk_mesh.boundary.outer_nodes].min())
    b = float(fld.values[desk_mesh.boundary.inner_nodes].max())
    assert cls.state(a) == "open"
    while b - a > 1e-9 * rngspan:
        mid = 0.5 * (a + b)
        if cls.state(mid) == "open":
            a = mid
        else:
            b = mid
    oracle = 0.5 * (a + b)
    assert abs(psi_p - oracle) < 1e-6 * rngspan
    # the discrete transition sits at the interpolant's saddle, within
    # discretization error of the analytic saddle value
    assert abs(psi_p - psi_x) < 1e-3 * rngspan


def test_limiter_mode_recovers_touch_value(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + z ** 2))
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    limiter = np.column_stack([6.0 + 1.5 * np.cos(theta),
                               1.5 * np.sin(theta)])
    psi_p, iso, mode = find_plasma_boundary(fld, limiter=limiter)
    assert mode == "limiter"
    assert abs(psi_p + 1.5 ** 2) < 0.05
    assert iso.encircles([6.0, 0.0])


def test_limiter_outside_domain_rejected(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + z ** 2))
    theta = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    limiter = np.column_stack([6.0 + 5.0 * np.cos(theta), 5.0 * np.sin(theta)])
    with pytest.raises(ValueError):
        find_plasma_boundary(fld, limiter=limiter)


def test_twin_reconstruction_has_closed_boundary(iter_mesh, iter_A):
    hole = polygon_centroid(iter_mesh.nodes[iter_mesh.boundary.inner_nodes])
    loop = loop_flux_field(hole[0], hole[1], 3.0, 0.0)
    spec = TwinSpec("TC2", 0.01, 0,
                    g_spec=lambda r, z, nr, nz: loop.weighted_flux(r, z, nr, nz))
    report = run_twin(iter_mesh, spec, 1e-3, A=iter_A)
    psi_p, iso, mode = find_plasma_boundary(report.psi_opt)
    assert iso.encircles(hole)
    inner_trace = report.psi_opt.values[iter_mesh.boundary.inner_nodes]
    assert psi_p < inner_trace.min()
