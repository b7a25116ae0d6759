import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fluxrec import FluxField, Mesh, interpolate
from fluxrec.experiments import TwinSpec, loop_flux_field, run_twin
from fluxrec.mesh import (circle_loop, dee_loop, generate_annulus_mesh,
                          points_in_polygon, polygon_centroid,
                          scale_toward_centroid)
from fluxrec.postprocess import (EmptyIsolineError, NoTransitionError,
                                 _bottleneck_level, _edge_ends, _sample_field,
                                 extract_isoline, find_plasma_boundary)
from conftest import l_hole_square_mesh, strip_mesh
from oracles import (STATE_ORDER, RegionClassifier, bisect_transition,
                     bottleneck_level_dual, bottleneck_level_mst,
                     encircles, extract_isoline_dict, extract_isoline_scan,
                     sample_field_by_centroid_tree, sample_field_polygon_first,
                     sample_field_scan)


@pytest.fixture(scope="module")
def xpoint_field():
    """Loop flux plus a vertical-field term with a saddle at r = 7.8, z = 0."""
    probe = loop_flux_field(6.0, 0.0, 1.0, 0.0)
    gr, _ = probe.grad(7.8, 0.0)
    gamma = -(gr / 7.8) / 2.0
    mf = loop_flux_field(6.0, 0.0, 1.0, gamma)
    r_x = brentq(lambda r: mf.grad(r, 0.0)[0], 7.3, 8.15, xtol=1e-14)
    return mf, r_x, float(mf.psi(r_x, 0.0))


def test_isoline_of_linear_field_is_flat(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: z)
    iso = extract_isoline(fld, 0.5)
    pts = np.vstack(iso.polylines)
    assert np.abs(pts[:, 1] - 0.5).max() < 1e-10
    assert not iso.closed            # the plane z=0.5 exits through the wall


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
    for pt in np.concatenate(iso.polylines):
        # find a triangle containing the point and interpolate
        v0 = tri_pts[:, 0]
        d1 = tri_pts[:, 1] - v0
        d2 = tri_pts[:, 2] - v0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rel = pt - v0
        l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
        l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
        lmin = np.minimum(np.minimum(l1, l2), 1 - l1 - l2)
        t = np.argmax(lmin)
        assert lmin[t] >= -1e-9
        vals = values[desk_mesh.triangles[t]]
        interp = vals[0] * (1 - l1[t] - l2[t]) + vals[1] * l1[t] + vals[2] * l2[t]
        assert abs(interp - level) < 1e-10 * rngspan


def test_isoline_segments_stay_in_their_triangle(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: r * r + z)
    iso = extract_isoline(fld, 38.0)
    h = desk_mesh.max_edge_length
    # consecutive polyline vertices are the two crossings of one triangle
    for poly in iso.polylines:
        assert (np.linalg.norm(np.diff(poly, axis=0), axis=1) <= h + 1e-12).all()


def _generated_field(kind, desk_mesh, desk_A, seed, shape):
    """(mesh, values) of one generated field kind: a random Dirichlet solve,
    a loop-flux X-point field, z or r^2 on the desk mesh, or random values on
    the L-hole square mesh."""
    rng = np.random.default_rng(seed)
    if kind == "dirichlet":
        from fluxrec import solve_dirichlet
        b = desk_mesh.boundary
        return desk_mesh, solve_dirichlet(
            desk_A, rng.standard_normal(len(b.outer_nodes)),
            rng.standard_normal(len(b.inner_nodes))).values
    if kind == "xpoint":
        r_x, strength, tilt = shape
        return desk_mesh, _saddle_field(desk_mesh, r_x, strength, tilt).values
    if kind == "l_hole":
        from conftest import l_hole_square_mesh
        mesh = l_hole_square_mesh()
        return mesh, rng.uniform(size=mesh.node_count)
    func = (lambda r, z: z) if kind == "z" else (lambda r, z: r * r)
    return desk_mesh, interpolate(desk_mesh, func).values


def _isoline_level(values, q, on_node):
    """A quantile level, or the nodal value at that rank."""
    if on_node:
        return float(np.sort(values)[int(q * (len(values) - 1))])
    return float(np.quantile(values, q))


_FIELD_KINDS = st.sampled_from(["dirichlet", "xpoint", "l_hole", "z", "r2"])
_SADDLES = st.tuples(st.floats(7.3, 8.1), st.floats(0.5, 2.0), st.floats(0.9, 1.1))


@settings(max_examples=60, deadline=None)
@given(kind=_FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), shape=_SADDLES,
       q=st.floats(0.0, 1.0), on_node=st.booleans())
def test_isoline_matches_dict_oracle(desk_mesh, desk_A, kind, seed, shape, q,
                                     on_node):
    mesh, values = _generated_field(kind, desk_mesh, desk_A, seed, shape)
    level = _isoline_level(values, q, on_node)
    fast = extract_isoline(FluxField(values, mesh), level)
    slow, segments = extract_isoline_dict(FluxField(values, mesh), level, mesh)
    assert fast.level == slow.level
    # one chain link per crossed triangle
    assert sum(len(p) - 1 for p in fast.polylines) == len(segments)
    assert len(fast.polylines) == len(slow.polylines)
    for p, r in zip(fast.polylines, slow.polylines):
        assert np.array_equal(p, r)
    assert fast.polyline_closed == slow.polyline_closed
    assert fast.closed == slow.closed


def test_contour_open_on_the_inner_loop_is_one_open_polyline(desk_mesh):
    # a cap about a peak on the inner loop: one open polyline whose ends lie
    # on inner boundary edges
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + (z - 0.8) ** 2))
    level = float(fld.values.max()) - 0.2
    fast = extract_isoline(fld, level)
    slow, _ = extract_isoline_dict(fld, level, desk_mesh)
    assert fast.polyline_closed == slow.polyline_closed == [False]
    assert np.array_equal(fast.polylines[0], slow.polylines[0])
    assert not fast.closed


@settings(max_examples=40, deadline=None)
@given(kind=_FIELD_KINDS, seed=st.integers(0, 2 ** 32 - 1), shape=_SADDLES,
       q=st.floats(0.0, 1.0), on_node=st.booleans())
@example(kind="dirichlet", seed=1, shape=(8.0, 1.0, 1.0),
         q=9.096752984130804e-13, on_node=False)
def test_isoline_vertices_lie_on_the_level(desk_mesh, desk_A, kind, seed,
                                           shape, q, on_node):
    # each vertex is located in the triangle whose smallest barycentric
    # coordinate is largest (it must pass -1e-9), and the P1 field is
    # interpolated there: a triangle that holds the vertex, not a neighbour
    # that extrapolates to it; a level on a nodal value is moved by a few
    # 1e-12 of the range, the rest is roundoff on the field's magnitude
    mesh, values = _generated_field(kind, desk_mesh, desk_A, seed, shape)
    level = _isoline_level(values, q, on_node)
    iso = extract_isoline(FluxField(values, mesh), level)
    if not iso.polylines:
        return
    pts = np.vstack(iso.polylines)
    tri_pts = mesh.nodes[mesh.triangles]
    v0 = tri_pts[:, 0]
    d1 = tri_pts[:, 1] - v0
    d2 = tri_pts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = pts[:, None, :] - v0[None]
    l1 = (rel[..., 0] * d2[:, 1] - rel[..., 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[..., 1] - d1[:, 1] * rel[..., 0]) / det
    lmin = np.minimum(np.minimum(l1, l2), 1 - l1 - l2)
    t = np.argmax(lmin, axis=1)
    i = np.arange(len(pts))
    assert (lmin[i, t] >= -1e-9).all()
    vals = values[mesh.triangles[t]]
    interp = (vals[:, 0] * (1 - l1[i, t] - l2[i, t]) + vals[:, 1] * l1[i, t]
              + vals[:, 2] * l2[i, t])
    tol = 1e-10 * np.ptp(values) + 1e-12 * np.abs(values).max()
    assert np.abs(interp - level).max() <= tol


def test_radial_field_has_no_transition(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: r * r)
    with pytest.raises(NoTransitionError):
        find_plasma_boundary(fld)


def _no_transition_message(fld) -> str:
    with pytest.raises(NoTransitionError) as raised:
        find_plasma_boundary(fld)
    return str(raised.value)


@pytest.mark.parametrize("psi, reason", [
    # the outer wall is a flux surface: the wall trace spreads by roundoff
    (lambda r, z: (r - 6.0) ** 2 + z * z, "never escape"),
    # the inner loop is a flux surface that runs on to the wall at its own
    # level: the inner trace spreads by roundoff
    (lambda r, z: np.where(r < 6.0, -((r - 6.0) ** 2 + z * z), -0.64),
     "never closed")], ids=["wall_surface", "inner_surface"])
def test_roundoff_does_not_decide_the_xpoint(desk_mesh, psi, reason):
    # the field, its 6-digit rounding (whose traces are exact) and their
    # negations all find no X-point, with one message
    fld = interpolate(desk_mesh, psi)
    messages = {_no_transition_message(FluxField(sign * v, desk_mesh))
                for v in (fld.values, np.round(fld.values, 6))
                for sign in (1.0, -1.0)}
    assert len(messages) == 1 and reason in messages.pop()


@pytest.mark.parametrize("delta", [1e-6, 1e-5])
def test_xpoint_isoline_stays_in_a_narrow_closed_band(desk_mesh, delta):
    # the inner loop is a flux surface and the right half sits delta below
    # it out to the wall, so the closed band [B, s_max) is narrower than
    # 2e-6 of the field range; its isoline is drawn inside it
    fld = interpolate(desk_mesh, lambda r, z: np.where(
        r < 6.0, -((r - 6.0) ** 2 + z * z), -0.64 - delta))
    for sign in (1.0, -1.0):
        psi_p, iso, mode = find_plasma_boundary(FluxField(sign * fld.values,
                                                          desk_mesh))
        assert mode == "xpoint" and psi_p == sign * (-0.64 - delta)
        assert -0.64 - delta < sign * iso.level < -0.64
        assert iso.polylines


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

    # independent oracle: exhaustive bisection of the region classifier,
    # bracketing the exact level to within 1e-9 of the range
    oracle = bisect_transition(desk_mesh, fld.values, 1e-9)
    assert abs(psi_p - oracle) < 1e-9 * rngspan
    # the discrete transition sits at the interpolant's saddle, within
    # discretization error of the analytic saddle value
    assert abs(psi_p - psi_x) < 1e-3 * rngspan


def _saddle_field(mesh, r_x, strength, tilt):
    """Loop flux plus a vertical field; tilt = 1 puts the saddle at (r_x, 0)."""
    bare = loop_flux_field(6.0, 0.0, strength, 0.0)
    gamma = tilt * -(bare.grad(r_x, 0.0)[0] / r_x) / 2.0
    return interpolate(mesh, loop_flux_field(6.0, 0.0, strength, gamma).psi)


@settings(max_examples=20, deadline=None)
@given(r_x=st.floats(7.3, 8.1), strength=st.floats(0.5, 2.0),
       tilt=st.floats(0.9, 1.1))
def test_exact_level_matches_bisection_oracle(desk_mesh, r_x, strength, tilt):
    fld = _saddle_field(desk_mesh, r_x, strength, tilt)
    psi_p, _, mode = find_plasma_boundary(fld)
    assert mode == "xpoint"
    rngspan = fld.values.max() - fld.values.min()
    assert abs(psi_p - bisect_transition(desk_mesh, fld.values, 1e-9)) \
        < 1e-9 * rngspan


@settings(max_examples=30, deadline=None)
@given(r_x=st.floats(7.5, 8.1), strength=st.floats(0.5, 2.0),
       tilt=st.floats(0.9, 1.1), limited=st.booleans(),
       rho=st.floats(1.0, 1.2), shift=st.tuples(st.floats(-0.1, 0.1),
                                                 st.floats(-0.1, 0.1)))
def test_negated_field_gives_the_negated_boundary(desk_mesh, r_x, strength,
                                                  tilt, limited, rho, shift):
    # the search orients the field with the plasma side high, so the
    # negated field must give the negated levels and the very same contour
    fld = _saddle_field(desk_mesh, r_x, strength, tilt)
    limiter = circle_loop(6.0 + shift[0], shift[1], rho, 64) if limited else None
    psi_p, iso, mode = find_plasma_boundary(fld, limiter=limiter)
    neg_p, neg_iso, neg_mode = find_plasma_boundary(
        FluxField(-fld.values, desk_mesh), limiter=limiter)
    assert mode == neg_mode == ("limiter" if limited else "xpoint")
    assert neg_p == -psi_p
    assert neg_iso.level == -iso.level
    assert len(neg_iso.polylines) == len(iso.polylines)
    for p, q in zip(neg_iso.polylines, iso.polylines):
        assert np.array_equal(p, q)
    assert neg_iso.polyline_closed == iso.polyline_closed
    assert neg_iso.closed == iso.closed


def _check_states_against_oracle(mesh, values, rng):
    """The oracle's states run open -> closed -> empty as the level rises,
    switching exactly at the bottleneck level B and at the inner-trace top."""
    cls = RegionClassifier(mesh, values)
    bottleneck = _bottleneck_level(mesh, _edge_ends(mesh, values))
    s_max = values[mesh.boundary.inner_nodes].max()
    levels = np.sort(np.concatenate([
        rng.uniform(values.min(), values.max(), 12),
        [bottleneck, np.nextafter(bottleneck, -np.inf), s_max,
         np.nextafter(s_max, -np.inf)]]))
    states = [cls.state(level) for level in levels]
    assert np.all(np.diff([STATE_ORDER[s] for s in states]) >= 0)
    exact = ["open" if bottleneck > level else "closed" if level < s_max
             else "empty" for level in levels]
    assert states == exact


@settings(max_examples=20, deadline=None)
@given(r_x=st.floats(7.3, 8.1), strength=st.floats(0.5, 2.0),
       tilt=st.floats(0.9, 1.1), roughness=st.sampled_from([0.0, 1e-3, 3e-2]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_oracle_state_is_monotone_and_matches_the_bottleneck(
        desk_mesh, r_x, strength, tilt, roughness, seed):
    # nodal noise adds many local extrema, so superlevel sets merge and
    # split at many levels
    rng = np.random.default_rng(seed)
    values = _saddle_field(desk_mesh, r_x, strength, tilt).values
    values = values + roughness * np.ptp(values) * rng.standard_normal(len(values))
    _check_states_against_oracle(desk_mesh, values, rng)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_bottleneck_with_corner_triangles_matches_oracle(seed):
    # triangles owning two edges of one wall link to the source or sink once
    from conftest import l_hole_square_mesh
    mesh = l_hole_square_mesh()
    rng = np.random.default_rng(seed)
    _check_states_against_oracle(mesh, rng.uniform(size=mesh.node_count), rng)


def _bottleneck_field(mesh, kind, rounded, flip, rng):
    """Nodal values for the boundary search, scaled to a range of 5: a loop
    flux with a saddle between the walls, the same with nodal noise (many
    basins), uniform noise, or a constant.  Rounding to one decimal ties
    most nodal values."""
    if kind == "constant":
        values = np.full(mesh.node_count, 2.5)
    elif kind == "uniform":
        values = rng.uniform(size=mesh.node_count)
    else:
        hole = mesh.nodes[mesh.boundary.inner_nodes]
        centre = hole.mean(axis=0)
        r_x = rng.uniform(hole[:, 0].max(), mesh.nodes[:, 0].max())
        bare = loop_flux_field(*centre, 1.0, 0.0)
        gamma = rng.uniform(0.9, 1.1) * -(bare.grad(r_x, centre[1])[0] / r_x) / 2.0
        values = interpolate(mesh, loop_flux_field(*centre, 1.0, gamma).psi).values
        if kind == "rough":
            values = values + 3e-2 * np.ptp(values) * rng.standard_normal(len(values))
    if kind != "constant":
        values = 5.0 * (values - values.min()) / np.ptp(values)
    if rounded:
        values = np.round(values, 1)
    return -values if flip else values


def _geometry(name, desk_mesh, iter_mesh, rng):
    """A fixture mesh, the L-hole square, or a generated ring-ladder annulus
    about a seeded star-shaped loop."""
    from conftest import l_hole_square_mesh
    from fluxrec.mesh import generate_annulus_mesh, scale_toward_centroid
    if name == "desk":
        return desk_mesh
    if name == "iter":
        return iter_mesh
    if name == "l_hole":
        return l_hole_square_mesh()
    radii = rng.uniform(0.85, 1.15, rng.integers(8, 40))
    t = 2.0 * np.pi * np.arange(len(radii)) / len(radii)
    outer = np.column_stack([6.0 + 2.0 * radii * np.cos(t), 2.0 * radii * np.sin(t)])
    return generate_annulus_mesh(outer, scale_toward_centroid(outer, rng.uniform(0.3, 0.6)),
                                 rng.uniform(0.3, 0.6))


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(["desk", "iter", "l_hole"]),
       kind=st.sampled_from(["saddle", "rough", "uniform"]),
       rounded=st.booleans(), flip=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_node_graph_bottleneck_equals_triangle_graph_oracle(
        desk_mesh, iter_mesh, geometry, kind, rounded, flip, seed):
    rng = np.random.default_rng(seed)
    mesh = _geometry(geometry, desk_mesh, iter_mesh, rng)
    values = _bottleneck_field(mesh, kind, rounded, flip, rng)
    level = _bottleneck_level(mesh, _edge_ends(mesh, values))
    assert level == bottleneck_level_dual(mesh, values)


@settings(max_examples=120, deadline=None)
@given(geometry=st.sampled_from(["desk", "iter", "l_hole", "ladder"]),
       kind=st.sampled_from(["saddle", "rough", "uniform", "constant"]),
       rounded=st.booleans(), flip=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_contracted_bottleneck_equals_full_graph_oracle(
        desk_mesh, iter_mesh, geometry, kind, rounded, flip, seed):
    # the search runs Kruskal's sweep over the edges between uphill basins
    # only; pointer jumping loops for ever on a pointer cycle, hence the
    # deadline
    rng = np.random.default_rng(seed)
    mesh = _geometry(geometry, desk_mesh, iter_mesh, rng)
    values = _bottleneck_field(mesh, kind, rounded, flip, rng)
    with _deadline(10):
        level = _bottleneck_level(mesh, _edge_ends(mesh, values))
    assert level == bottleneck_level_mst(mesh, values)


@settings(max_examples=80, deadline=None)
@given(geometry=st.sampled_from(["desk", "iter", "l_hole", "ladder"]),
       kind=st.sampled_from(["saddle", "rough", "uniform", "constant"]),
       rounded=st.booleans(), flip=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), q=st.floats(0.0, 1.0),
       on_node=st.booleans())
def test_isoline_matches_triangle_scan_oracle(desk_mesh, iter_mesh, geometry,
                                              kind, rounded, flip, seed, q,
                                              on_node):
    # the cut reaches the crossed triangles through the sides of the
    # crossed edges; the oracle tests the edges of every triangle.  Saddle
    # levels below the X-point, and most levels of noisy fields, give open
    # contours that end on a wall
    rng = np.random.default_rng(seed)
    mesh = _geometry(geometry, desk_mesh, iter_mesh, rng)
    fld = FluxField(_bottleneck_field(mesh, kind, rounded, flip, rng), mesh)
    level = _isoline_level(fld.values, q, on_node)
    fast, slow = extract_isoline(fld, level), extract_isoline_scan(fld, level)
    assert fast.level == slow.level
    assert len(fast.polylines) == len(slow.polylines)
    for p, r in zip(fast.polylines, slow.polylines):
        assert np.array_equal(p, r)
    assert fast.polyline_closed == slow.polyline_closed
    assert fast.closed == slow.closed


def test_widest_wall_path_through_an_interior_maximum():
    # walls at 4 (inner) and 3 (outer), every band node at 0 but one local
    # maximum of 5 that touches both walls: the walls join at 3 only through
    # that basin, which the sweep joins to the inner wall first, at 4; the
    # band's 0 edges join the walls directly, lowest of all
    from conftest import l_hole_square_mesh
    mesh = l_hole_square_mesh()
    b = mesh.boundary
    values = np.zeros(mesh.node_count)
    values[b.inner_nodes] = 4.0
    values[b.outer_nodes] = 3.0
    peak, outer, inner = 15, 14, 16               # nodes (1, 2), (0, 2), (2, 2)
    values[peak] = 5.0
    edges = mesh.edges.nodes.tolist()              # lower index first
    assert [outer, peak] in edges and [peak, inner] in edges
    assert outer in b.outer_nodes and inner in b.inner_nodes
    level = _bottleneck_level(mesh, _edge_ends(mesh, values))
    assert level == bottleneck_level_mst(mesh, values) == 3.0


def test_find_plasma_boundary_takes_only_the_fields_mesh(desk_mesh, xpoint_field):
    fld = interpolate(desk_mesh, xpoint_field[0].psi)
    twin = Mesh(desk_mesh.nodes, desk_mesh.triangles, desk_mesh.boundary_edges,
                desk_mesh.boundary_labels)
    with pytest.raises(ValueError, match="^mesh is not the field's mesh$"):
        find_plasma_boundary(fld, twin)
    assert find_plasma_boundary(fld, desk_mesh)[0] == find_plasma_boundary(fld)[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_limiter_rejected(desk_mesh, bad):
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + z ** 2))
    limiter = circle_loop(6.0, 0.0, 1.5, 16)
    limiter[3, 0] = bad
    with pytest.raises(ValueError, match="^limiter has a non-finite coordinate$"):
        find_plasma_boundary(fld, limiter=limiter)


def _limiter_on_nodes_and_edges(mesh, rng):
    """Seeded limiter circle with a third of its vertices moved onto mesh
    nodes and a third onto midpoints of interior edges, where more than one
    triangle contains the sample point."""
    limiter = circle_loop(6.0 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                          rng.uniform(1.0, 2.0), 48)
    e = mesh.edges
    pairs = e.nodes[e.triangles[:, 1] >= 0]
    mids = 0.5 * (mesh.nodes[pairs[:, 0]] + mesh.nodes[pairs[:, 1]])
    for k in range(0, 48, 3):
        limiter[k] = mesh.nodes[np.argmin(np.linalg.norm(mesh.nodes - limiter[k], axis=1))]
        limiter[k + 1] = mids[np.argmin(np.linalg.norm(mids - limiter[k + 1], axis=1))]
    return limiter


@pytest.mark.parametrize("seed", range(4))
def test_sample_field_matches_per_point_scan(desk_mesh, seed):
    rng = np.random.default_rng(seed)
    fld = interpolate(desk_mesh, lambda r, z: np.sin(r) * np.cos(2.0 * z) + r * z)
    limiter = _limiter_on_nodes_and_edges(desk_mesh, rng)
    fast = _sample_field(fld, limiter)
    slow = sample_field_scan(fld.values, desk_mesh, limiter)
    assert np.array_equal(fast, slow)


def _sample_or_message(sample):
    try:
        return sample()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(["desk", "iter"]),
       offset=st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
       radius=st.floats(0.2, 4.0),
       radii=st.lists(st.floats(0.7, 1.3), min_size=3, max_size=40),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_field_matches_polygon_first_sampler(request, geometry, offset,
                                                    radius, radii, seed):
    # star-shaped limiters about the hole: inside the annulus, across the
    # hole, inside it and past the wall, so every error and the skip of
    # hole points are reached.  A jitter keeps the points off the loops,
    # where the oracle leaves a point to the ray cast's tie rule and the
    # sampler takes the triangle that holds it
    mesh = request.getfixturevalue(f"{geometry}_mesh")
    centre = polygon_centroid(mesh.nodes[mesh.boundary.inner_nodes]) + offset
    t = np.linspace(0.0, 2.0 * np.pi, len(radii), endpoint=False)
    r = radius * np.array(radii)
    limiter = centre + np.column_stack([r * np.cos(t), r * np.sin(t)])
    limiter += np.random.default_rng(seed).uniform(-1e-6, 1e-6, limiter.shape)
    fld = interpolate(mesh, lambda r, z: np.sin(r) * np.cos(2.0 * z) + r * z)
    fast = _sample_or_message(lambda: _sample_field(fld, limiter))
    slow = _sample_or_message(lambda: sample_field_polygon_first(fld, limiter))
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert np.array_equal(fast, slow)


def _assert_samples_as_the_tree_oracle(fld, limiter):
    """The k-d tree sampler's bits, or its message."""
    fast = _sample_or_message(lambda: _sample_field(fld, limiter))
    slow = _sample_or_message(lambda: sample_field_by_centroid_tree(fld, limiter))
    if isinstance(slow, str):
        assert fast == slow
    else:
        assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes()


_VERTEX_KINDS = ("node", "edge", "cell", "random", "hole", "wall")


def _limiter_vertex(mesh, kind, rng):
    """A limiter vertex of one kind: a mesh node, a point of a mesh edge,
    a point on a cell line of the triangle grid, a random point of the
    mesh's box, a point of the hole or a point past the outer wall."""
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    if kind == "node":
        return mesh.nodes[rng.integers(mesh.node_count)]
    if kind == "edge":
        a, b = mesh.nodes[mesh.edges.nodes[rng.integers(len(mesh.edges.nodes))]]
        return a + rng.choice([0.5, rng.uniform()]) * (b - a)
    if kind == "cell":
        grid = mesh._triangle_grid
        p = rng.uniform(lo, hi)
        for axis in ([0], [1], [0, 1])[rng.integers(3)]:
            p[axis] = grid.origin[axis] + rng.integers(grid.shape[axis] + 1) * grid.cell
        return p
    if kind == "random":
        return rng.uniform(lo, hi)
    outer = mesh.nodes[mesh.boundary.outer_nodes]
    if kind == "wall":
        centre = polygon_centroid(outer)
        return centre + rng.uniform(1.0, 1.2) * (outer[rng.integers(len(outer))] - centre)
    inner = mesh.nodes[mesh.boundary.inner_nodes]
    for p in rng.uniform(inner.min(axis=0), inner.max(axis=0), (20, 2)):
        if points_in_polygon(p, inner)[0]:
            return p
    return inner.mean(axis=0)


@settings(max_examples=80, deadline=None)
@given(geometry=st.sampled_from(["desk", "iter", "lhole", "ladder"]),
       kinds=st.lists(st.sampled_from(_VERTEX_KINDS), min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_sample_field_matches_centroid_tree_oracle(request, geometry, kinds,
                                                   seed):
    # vertices on nodes, edges and grid cell lines, where several triangles
    # or cells hold a point, and segments across the hole and past the wall:
    # the same bits, or the same message
    rng = np.random.default_rng(seed)
    if geometry == "lhole":
        mesh = l_hole_square_mesh()
    elif geometry == "ladder":
        a = rng.uniform(1.0, 3.0)
        outer = dee_loop(rng.uniform(5.0, 8.0), a, rng.uniform(1.0, 4.0),
                         rng.uniform(0.0, 0.5), int(rng.integers(12, 60)))
        mesh = generate_annulus_mesh(outer, scale_toward_centroid(
            outer, rng.uniform(0.3, 0.7)), a * rng.uniform(0.15, 0.4))
    else:
        mesh = request.getfixturevalue(f"{geometry}_mesh")
    limiter = np.array([_limiter_vertex(mesh, kind, rng) for kind in kinds])
    fld = interpolate(mesh, lambda r, z: np.sin(r) * np.cos(2.0 * z) + r * z)
    _assert_samples_as_the_tree_oracle(fld, limiter)


def test_triangle_held_within_the_tolerance_across_a_cell_line():
    # the longest edge is 2, so the cells are 1 wide, and triangle 0's box
    # starts at r = 2, on a cell line.  The point lies 1e-14 left of that
    # line, outside triangle 0 but within its barycentric tolerance, so
    # triangle 0 is its lowest-index holder: only the box's pad lists
    # triangle 0 in the point's cell
    nodes = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 1.0], [1.0, 1.0], [3.0, 1.0]])
    mesh = Mesh(nodes, np.array([[1, 4, 2], [0, 1, 2], [0, 2, 3]]),
                np.array([[0, 1], [1, 4], [4, 2], [2, 3], [3, 0]]),
                np.array(["outer"] * 5))
    fld = FluxField(np.array([0.3, -1.7, 2.9, 0.1, 5.0]), mesh)
    point = np.array([[2.0 - 1e-14, 1.0 - 1e-14]])
    assert 0 in mesh._triangle_grid.candidates(point)[1]
    got = _sample_field(fld, point)
    assert got.tobytes() == sample_field_scan(fld.values, mesh, point).tobytes()
    assert got.tobytes() == sample_field_by_centroid_tree(fld, point).tobytes()


def test_thin_ring_grid_has_few_cells_and_samples_as_the_oracle():
    # one layer of 1600 triangles spans about 1e5 cells of half its longest
    # edge; the grid takes wider cells, at most about four per triangle
    mesh = generate_annulus_mesh(circle_loop(6.0, 0.0, 3.0, 400),
                                 circle_loop(6.0, 0.0, 2.97, 400), 0.05)
    grid = mesh._triangle_grid
    assert np.prod(grid.shape) <= 5 * mesh.triangle_count
    fld = interpolate(mesh, lambda r, z: np.sin(r) * np.cos(2.0 * z) + r * z)
    for radius, count in ((2.985, 7), (2.999, 64), (2.96, 16), (3.01, 5)):
        _assert_samples_as_the_tree_oracle(fld, circle_loop(6.0, 0.0, radius, count))


@pytest.mark.parametrize("far", [1e300, -1e300, -1.7e308])
@pytest.mark.parametrize("axis", [0, 1])
def test_far_limiter_vertex_leaves_the_outer_boundary(desk_mesh, far, axis):
    # raised before the polyline is subdivided, with no overflow warning
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + z ** 2))
    limiter = circle_loop(6.0, 0.0, 1.5, 16)
    limiter[3, axis] = far
    with pytest.raises(ValueError, match="^limiter leaves the outer boundary$"):
        find_plasma_boundary(fld, limiter=limiter)


def test_located_limiter_runs_no_loop_test(desk_mesh, monkeypatch):
    def loop_test(points, loop):
        raise AssertionError("a loop test ran")
    monkeypatch.setattr("fluxrec.postprocess.points_in_polygon", loop_test)
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + z ** 2))
    psi_p, _, mode = find_plasma_boundary(fld, limiter=circle_loop(6.0, 0.0, 1.5, 64))
    assert mode == "limiter" and abs(psi_p + 1.5 ** 2) < 0.05


def test_limiter_points_on_the_inner_loop_are_sampled(desk_mesh):
    # a triangle holds each of them, so no loop test sees them
    fld = interpolate(desk_mesh, lambda r, z: np.sin(r) * np.cos(2.0 * z) + r * z)
    nodes = desk_mesh.boundary.inner_nodes[::10]
    got = _sample_field(fld, desk_mesh.nodes[nodes])
    n = len(got) // len(nodes)          # the segments are congruent chords
    assert len(got) == n * len(nodes)
    assert np.abs(got[::n] - fld.values[nodes]).max() <= 1e-12


@pytest.mark.parametrize("centre, radius, message", [
    ((6.0, 0.0), 5.0, "limiter leaves the outer boundary"),
    ((6.0, 0.0), 0.5, "limiter lies entirely inside the plasma hole"),
])
def test_limiter_sampling_errors(desk_mesh, centre, radius, message):
    fld = interpolate(desk_mesh, lambda r, z: r * z)
    limiter = circle_loop(*centre, radius, 16)
    for sample in (lambda: _sample_field(fld, limiter),
                   lambda: sample_field_polygon_first(fld, limiter),
                   lambda: sample_field_scan(fld.values, desk_mesh, limiter)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sample()


def test_empty_limiter_gives_the_polygon_first_error(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: r * z)
    for sample in (_sample_field, sample_field_polygon_first):
        with pytest.raises(ValueError,
                           match="^limiter lies entirely inside the plasma hole$"):
            sample(fld, np.zeros((0, 2)))


def _outside_mesh_messages(monkeypatch, limiter):
    # on a valid mesh every point inside the outer loop lies in a triangle,
    # so the outer-loop test is stubbed to let points beyond the mesh through
    from conftest import build_square_mesh
    mesh = build_square_mesh(4)
    fld = interpolate(mesh, lambda r, z: r + z)
    limiter = np.array(limiter)
    messages = []
    for module, sample in (
            ("fluxrec.postprocess", lambda: _sample_field(fld, limiter)),
            ("oracles", lambda: sample_field_scan(fld.values, mesh, limiter))):
        monkeypatch.setattr(f"{module}.points_in_polygon",
                            lambda pts, loop: np.ones(len(pts), dtype=bool))
        with pytest.raises(ValueError, match="is outside the mesh") as err:
            sample()
        messages.append(str(err.value))
    return messages


def test_limiter_point_outside_the_mesh_is_named(monkeypatch):
    messages = _outside_mesh_messages(
        monkeypatch, [[1.5, 0.5], [1.9, 0.5], [2.5, 0.5]])
    assert messages[0] == messages[1]


def test_limiter_wholly_outside_the_mesh_is_named(monkeypatch):
    # no point lies in a triangle, and none in the (absent) hole
    messages = _outside_mesh_messages(
        monkeypatch, [[2.5, 0.5], [3.0, 0.5], [2.8, 0.8]])
    assert messages[0] == messages[1]


def test_limiter_mode_recovers_touch_value(desk_mesh):
    fld = interpolate(desk_mesh, lambda r, z: -((r - 6.0) ** 2 + z ** 2))
    theta = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    limiter = np.column_stack([6.0 + 1.5 * np.cos(theta),
                               1.5 * np.sin(theta)])
    psi_p, iso, mode = find_plasma_boundary(fld, limiter=limiter)
    assert mode == "limiter"
    assert abs(psi_p + 1.5 ** 2) < 0.05
    assert encircles(iso, [6.0, 0.0])


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
    psi_p, iso, mode = find_plasma_boundary(report.result.psi_opt)
    assert encircles(iso, hole)
    inner_trace = report.result.psi_opt.values[iter_mesh.boundary.inner_nodes]
    assert psi_p < inner_trace.min()


@contextmanager
def _deadline(seconds: int):
    """Fail, rather than stall the suite, when the block runs too long."""
    def fail(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    previous = signal.signal(signal.SIGALRM, fail)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("values", [
    np.full(4, 2.0),                        # constant, nonzero
    1e6 + 1e-7 * np.arange(4.0),            # range far below one ulp of 1e-12 steps
])
def test_level_at_a_tie_below_one_ulp_returns(values):
    fld = FluxField(values, strip_mesh())
    with _deadline(5):
        for level in values.tolist():
            iso = extract_isoline(fld, level)
            assert all(np.isfinite(poly).all() for poly in iso.polylines)
        top = extract_isoline(fld, float(values.max()))
    assert top.polylines == []
