import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fluxrec.mesh import (INNER, OUTER, Mesh, MeshFormatError, MeshGeometryError,
                          MeshTopologyError, MeshValidationError, _angles_about,
                          _ray_crossings, _stitch_rings, chain_loop, circle_loop,
                          dee_loop, generate_annulus_mesh, load_mesh, points_in_polygon,
                          polygon_area, polygon_centroid, save_mesh,
                          scale_toward_centroid, triangle_areas)
from conftest import build_square_mesh, l_hole_square_mesh, strip_mesh
from oracles import (boundary_index_dict, edge_table_dict, generate_annulus_mesh_by_loop,
                     points_in_polygon_by_edge, ray_crossings_by_ray,
                     stitch_rings_two_pointer)

STRIP_FILE = """\
# minimal strip
nodes 4
1.0 0.0
2.0 0.0
2.0 1.0
1.0 1.0
triangles 2
0 1 2
0 2 3
boundary_edges 4
0 1 outer
1 2 outer
2 3 outer
3 0 outer
"""


def test_load_strip_file(tmp_path):
    path = tmp_path / "strip.mesh"
    path.write_text(STRIP_FILE)
    m = load_mesh(path)
    assert m.triangle_count == 2
    assert np.all(triangle_areas(m.nodes, m.triangles) > 0)


def test_node_at_zero_radius_rejected(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text(STRIP_FILE.replace("1.0 0.0", "0.0 0.0", 1))
    with pytest.raises(MeshValidationError, match="r > 0"):
        load_mesh(path)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text(STRIP_FILE.replace("0 1 2", "0 1"))
    with pytest.raises(MeshFormatError):
        load_mesh(path)


def test_index_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text(STRIP_FILE.replace("0 2 3", "0 2 9"))
    with pytest.raises(MeshFormatError, match="out of range"):
        load_mesh(path)


def test_iter_like_mesh_counts(iter_mesh, tmp_path):
    path = tmp_path / "iter.mesh"
    save_mesh(iter_mesh, path)
    m = load_mesh(path)
    b = m.boundary
    assert m.node_count == 977
    assert m.triangle_count == 1804
    assert len(b.outer_nodes) == 120
    assert len(b.inner_nodes) == 30


def test_square_loop_perimeter():
    m = strip_mesh()
    b = m.boundary
    closing = np.linalg.norm(m.nodes[b.outer_nodes[-1]] - m.nodes[b.outer_nodes[0]])
    assert b.outer_arcs[0] == 0.0
    assert np.all(np.diff(b.outer_arcs) > 0)
    assert b.outer_arcs[-1] + closing == pytest.approx(4.0, abs=1e-15)


def test_boundary_index_orientation_canonicalized(tmp_path):
    # flipping the stored edge direction must not change the index
    path = tmp_path / "strip.mesh"
    path.write_text(STRIP_FILE)
    ref = load_mesh(path).boundary
    flipped = STRIP_FILE.replace("0 1 outer", "1 0 outer").replace(
        "2 3 outer", "3 2 outer")
    path.write_text(flipped)
    alt = load_mesh(path).boundary
    assert np.array_equal(ref.outer_nodes, alt.outer_nodes)
    assert np.allclose(ref.outer_arcs, alt.outer_arcs)


def test_boundary_loops_are_ccw_outer_cw_inner(desk_mesh):
    b = desk_mesh.boundary
    assert polygon_area(desk_mesh.nodes[b.outer_nodes]) > 0
    assert polygon_area(desk_mesh.nodes[b.inner_nodes]) < 0


def test_desk_annulus_counts(desk_mesh):
    b = desk_mesh.boundary
    assert desk_mesh.node_count == 1000
    assert len(b.inner_nodes) == 30
    assert len(b.outer_nodes) == 110


def test_generate_circle_pair():
    m = generate_annulus_mesh(circle_loop(6.0, 0.0, 3.0, 40),
                              circle_loop(6.0, 0.0, 1.5, 20), 0.5)
    assert m.max_edge_length <= 1.5 * 0.5
    assert len(m.boundary.inner_nodes) >= 20


def test_generate_identical_loops_rejected():
    loop = circle_loop(6.0, 0.0, 2.0, 24)
    with pytest.raises(MeshGeometryError):
        generate_annulus_mesh(loop, loop.copy(), 0.3)


def test_generate_dee_with_scaled_offset():
    outer = dee_loop(6.2, 3.3, 4.8, 0.4, 80)
    inner = scale_toward_centroid(outer, 0.5)
    m = generate_annulus_mesh(outer, inner, 0.45)
    assert m.max_edge_length <= 1.5 * 0.45


def test_generate_intersecting_loops_rejected():
    outer = circle_loop(6.0, 0.0, 2.0, 24)
    inner = circle_loop(7.5, 0.0, 1.0, 24)  # pokes through the outer loop
    with pytest.raises(MeshGeometryError):
        generate_annulus_mesh(outer, inner, 0.3)


@pytest.mark.parametrize("target_h", [math.nan, math.inf, 0.0, -1.0])
def test_generate_rejects_target_h_not_finite_and_positive(target_h):
    with pytest.raises(MeshGeometryError, match="target_h must be finite and positive"):
        generate_annulus_mesh(circle_loop(6.0, 0.0, 2.0, 24),
                              circle_loop(6.0, 0.0, 1.0, 12), target_h)


@pytest.mark.parametrize("params, message", [
    ({"target_h": 1e-12}, "target_h 1e-12 would mesh the annulus with over 10000000 nodes"),
    ({"target_h": 5e-324}, "target_h 5e-324 would mesh the annulus with over 10000000 nodes"),
    ({"target_h": 0.3, "node_budget": 10 ** 15},
     "node_budget 1000000000000000 is over 10000000 nodes")],
    ids=["tiny_target_h", "target_h_whose_square_underflows", "node_budget"])
def test_generate_refuses_a_mesh_over_the_node_cap(params, message):
    # refused before any array sized by 1 / target_h is made, which would
    # take terabytes here; a ValueError but no MeshGeometryError, as it is
    # the request, not the geometry, that is at fault
    with pytest.raises(ValueError, match=f"^{message}$") as err:
        generate_annulus_mesh(circle_loop(6.0, 0.0, 2.0, 24),
                              circle_loop(6.0, 0.0, 1.0, 12), **params)
    assert not isinstance(err.value, MeshGeometryError)


@pytest.mark.parametrize("which", ["outer", "inner"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_generate_rejects_non_finite_loop(which, bad):
    loops = {"outer": circle_loop(6.0, 0.0, 2.0, 24),
             "inner": circle_loop(6.0, 0.0, 1.0, 12)}
    loops[which][5, 1] = bad
    with pytest.raises(MeshGeometryError,
                       match=f"^{which} loop has a non-finite coordinate$"):
        generate_annulus_mesh(loops["outer"], loops["inner"], 0.3)


@pytest.mark.parametrize("reversed_loops", [("outer",), ("inner",), ("outer", "inner")],
                         ids=["outer", "inner", "both"])
@pytest.mark.parametrize("node_budget", [None, 1000])
def test_generate_takes_a_clockwise_loop_as_its_reversal(reversed_loops, node_budget):
    loops = {"outer": circle_loop(6.0, 0.0, 2.9, 110),
             "inner": circle_loop(6.0, 0.0, 0.8, 30)}
    want = _mesh_or_error(generate_annulus_mesh, loops["outer"], loops["inner"],
                          0.2, node_budget)
    assert not isinstance(want, str)
    for name in reversed_loops:
        # a contiguous copy, as a polyline file gives
        loops[name] = loops[name][::-1].copy()
    assert _mesh_or_error(generate_annulus_mesh, loops["outer"], loops["inner"],
                          0.2, node_budget) == want


@pytest.mark.parametrize("which", ["outer", "inner"])
@pytest.mark.parametrize("closing", [True, False], ids=["closing", "inside"])
def test_generate_refuses_a_repeated_vertex(which, closing):
    loops = {"outer": circle_loop(6.0, 0.0, 2.9, 110),
             "inner": circle_loop(6.0, 0.0, 0.8, 30)}
    loop = loops[which]
    first, second = (0, len(loop)) if closing else (5, 6)
    loops[which] = np.insert(loop, second, loop[first], axis=0)
    r, z = loop[first].tolist()
    want = f"{which} loop repeats vertex {first} ({r!r}, {z!r}) as vertex {second}"
    if closing:
        want += "; a closed polyline must not repeat its first point"
    with pytest.raises(MeshGeometryError) as err:
        generate_annulus_mesh(loops["outer"], loops["inner"], 0.2)
    assert str(err.value) == want


def _star_loop(r0, z0, a, radii):
    """Star-shaped loop: radius a * radii[k] at evenly spaced angles."""
    t = 2.0 * np.pi * np.arange(len(radii)) / len(radii)
    rho = a * np.asarray(radii)
    return np.column_stack([r0 + rho * np.cos(t), z0 + rho * np.sin(t)])


def _mesh_or_error(generate, *args):
    """The arrays of a generated mesh, bit for bit, or the MeshGeometryError text."""
    try:
        m = generate(*args)
    except MeshGeometryError as exc:
        return str(exc)
    return [(arr.dtype.str, arr.shape, arr.tobytes()) for arr in
            (m.nodes, m.triangles, m.boundary_edges, m.boundary_labels)]


_LUMPY = [1.0, 1.1, 0.9, 1.05] * 4


@settings(max_examples=40, deadline=None)
@given(r0=st.floats(4.0, 8.0), z0=st.floats(-1.0, 1.0), a=st.floats(1.0, 3.0),
       radii=st.lists(st.floats(0.85, 1.15), min_size=8, max_size=40),
       shrink=st.floats(0.3, 0.7), h_over_a=st.floats(0.15, 0.4),
       budget_share=st.none() | st.floats(0.4, 1.6))
# on this loop pair the shares give a negative, a positive and an infeasible
# node-budget deficit
@example(6.0, 0.0, 2.0, _LUMPY, 0.4, 0.15, 0.97)
@example(6.0, 0.0, 2.0, _LUMPY, 0.4, 0.15, 1.3)
@example(6.0, 0.0, 2.0, _LUMPY, 0.4, 0.15, 0.1)
def test_generator_matches_loop_oracle(r0, z0, a, radii, shrink, h_over_a,
                                       budget_share):
    outer = _star_loop(r0, z0, a, radii)
    args = [outer, scale_toward_centroid(outer, shrink), a * h_over_a]
    if budget_share is not None:
        try:
            natural = generate_annulus_mesh(*args).node_count
        except MeshGeometryError:
            natural = 100
        args.append(int(budget_share * natural))
    assert (_mesh_or_error(generate_annulus_mesh, *args)
            == _mesh_or_error(generate_annulus_mesh_by_loop, *args))


# a sixteenth of a turn apart, so keys tie within and across the two rings
_ANGLE = (st.integers(0, 15).map(lambda k: k * np.pi / 8)
          | st.floats(0.0, 2.0 * np.pi, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(ang_a=st.lists(_ANGLE, min_size=1, max_size=30),
       ang_b=st.lists(_ANGLE, min_size=1, max_size=30), data=st.data())
def test_stitch_rings_matches_two_pointer_oracle(ang_a, ang_b, data):
    na = len(ang_a)
    ids = np.array(data.draw(st.permutations(range(na + len(ang_b)))))
    args = (ids[:na], np.sort(ang_a), ids[na:], np.sort(ang_b))
    want = np.array(stitch_rings_two_pointer(*args), dtype=np.int64)
    assert np.array_equal(_stitch_rings(*args), want)


@settings(max_examples=50, deadline=None)
@given(r0=st.floats(4.0, 8.0), z0=st.floats(-1.0, 1.0), a=st.floats(1.0, 3.0),
       radii=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=40),
       angles=st.lists(st.floats(-4.0 * np.pi, 4.0 * np.pi), max_size=40))
def test_ray_crossings_match_per_ray_oracle(r0, z0, a, radii, angles):
    loop = _star_loop(r0, z0, a, radii)
    center = polygon_centroid(loop)
    # rays through the loop vertices tie with the sorted vertex angles
    theta = np.r_[angles, _angles_about(loop, center), 0.0, 2.0 * np.pi]
    assert (_ray_crossings(loop, center, theta).tobytes()
            == ray_crossings_by_ray(loop, center, theta).tobytes())


def test_ray_along_an_edge_keeps_the_edge_start():
    # the ray at angle 0 meets the edge from the vertex at angle pi to the
    # vertex at angle 0, which runs along it through the center
    loop = np.array([[7.0, 0.0], [6.0, 1.0], [5.0, 0.0]])
    center, theta = np.array([6.0, 0.0]), np.array([0.0])
    got = _ray_crossings(loop, center, theta)
    assert np.array_equal(got, [[5.0, 0.0]])
    assert got.tobytes() == ray_crossings_by_ray(loop, center, theta).tobytes()


# coordinates across the whole float range, the largest near its limit
_COORD = (st.sampled_from([1.7e308, -1.7e308, 1e300, -1e300, 0.0, 6.0, -1.7])
          | st.floats(-1.7e308, 1.7e308))


@settings(max_examples=100, deadline=None)
@given(r0=st.floats(4.0, 8.0), z0=st.floats(-1.0, 1.0), a=st.floats(1e-3, 3.0),
       radii=st.lists(st.floats(0.5, 1.5), min_size=3, max_size=40),
       far=st.lists(st.tuples(_COORD, _COORD), max_size=10),
       near=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), max_size=10))
@example(6.0, 0.0, 2.9, [1.0] * 16, [(6.0, -1.7e308)], [])
def test_points_in_polygon_matches_per_edge_oracle(r0, z0, a, radii, far, near):
    # pytest turns a RuntimeWarning, such as an overflow in the crossing
    # abscissa of a far point, into an error
    loop = _star_loop(r0, z0, a, radii)
    points = np.array([*far, *((r0 + a * dr, z0 + a * dz) for dr, dz in near),
                       *loop, (r0, z0)]).reshape(-1, 2)
    assert np.array_equal(points_in_polygon(points, loop),
                          points_in_polygon_by_edge(points, loop))


@pytest.mark.parametrize("fixture", ["desk_mesh", "iter_mesh", "wide_mesh"])
def test_area_matches_shoelace(fixture, request):
    m = request.getfixturevalue(fixture)
    b = m.boundary
    total = float(np.sum(triangle_areas(m.nodes, m.triangles)))
    outer_area = polygon_area(m.nodes[b.outer_nodes])
    inner_area = abs(polygon_area(m.nodes[b.inner_nodes])) if len(b.inner_nodes) else 0.0
    expected = outer_area - inner_area
    assert abs(total - expected) < 1e-12 * expected


def test_square_mesh_area_matches_shoelace():
    m = build_square_mesh(6)
    total = float(np.sum(triangle_areas(m.nodes, m.triangles)))
    assert abs(total - 1.0) < 1e-12


@pytest.mark.parametrize("fixture", ["desk_mesh", "iter_mesh"])
def test_roundtrip_bit_exact(fixture, request, tmp_path):
    m = request.getfixturevalue(fixture)
    path = tmp_path / "m.mesh"
    save_mesh(m, path)
    m2 = load_mesh(path)
    assert np.array_equal(m.nodes, m2.nodes)
    assert np.array_equal(m.triangles, m2.triangles)
    assert np.array_equal(m.boundary_edges, m2.boundary_edges)
    assert np.array_equal(m.boundary_labels, m2.boundary_labels)


def test_boundary_nodes_partition(desk_mesh):
    b = desk_mesh.boundary
    boundary_nodes = set(desk_mesh.boundary_edges.ravel().tolist())
    outer = set(b.outer_nodes.tolist())
    inner = set(b.inner_nodes.tolist())
    assert outer | inner == boundary_nodes
    assert not outer & inner


def test_two_loops_same_label_is_topology_error():
    edges = np.array([[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]])
    with pytest.raises(MeshTopologyError):
        chain_loop(edges, OUTER)


def test_unlabeled_boundary_edge_rejected():
    m = strip_mesh()
    with pytest.raises(MeshValidationError, match="unlabeled"):
        Mesh(m.nodes, m.triangles, m.boundary_edges[:3], m.boundary_labels[:3])


def test_inverted_triangle_rejected():
    m = strip_mesh()
    tris = m.triangles.copy()
    tris[0] = tris[0][::-1]
    with pytest.raises(MeshValidationError, match="area"):
        Mesh(m.nodes, tris, m.boundary_edges, m.boundary_labels)


def _strip_with(extra_edges=(), extra_labels=(), nodes=None, tris=None):
    m = strip_mesh()
    edges = np.vstack([m.boundary_edges, np.reshape(extra_edges, (-1, 2))])
    labels = np.concatenate([m.boundary_labels, np.asarray(extra_labels, dtype="U8")])
    return Mesh(m.nodes if nodes is None else nodes,
                m.triangles if tris is None else tris, edges, labels)


def test_edge_shared_by_three_triangles_rejected():
    m = strip_mesh()
    nodes = np.vstack([m.nodes, [[3.0, 0.0]]])
    tris = np.vstack([m.triangles, [[0, 4, 2]]])
    with pytest.raises(MeshValidationError,
                       match=r"^edge \(0, 2\) shared by 3 triangles$"):
        _strip_with(nodes=nodes, tris=tris)


def test_boundary_edge_listed_twice_rejected():
    with pytest.raises(MeshValidationError,
                       match=r"^boundary edge \(0, 1\) listed twice$"):
        _strip_with([[1, 0]], [OUTER])


def test_labeled_interior_edge_rejected():
    with pytest.raises(MeshValidationError,
                       match=r"^interior edge \(0, 2\) carries a boundary label$"):
        _strip_with([[2, 0]], [OUTER])


def test_labeled_non_triangle_edge_rejected():
    with pytest.raises(MeshValidationError,
                       match=r"^boundary edge \(1, 3\) is not a triangle edge$"):
        _strip_with([[1, 3]], [INNER])


def _assert_boundary_matches_dict_reference(m):
    b = m.boundary
    for nodes, arcs, (ref_nodes, ref_arcs) in zip(
            (b.outer_nodes, b.inner_nodes), (b.outer_arcs, b.inner_arcs),
            boundary_index_dict(m)):
        assert nodes.dtype == np.int64
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(arcs, ref_arcs)


@pytest.mark.parametrize("fixture", ["desk_mesh", "iter_mesh", "wide_mesh"])
def test_boundary_matches_dict_reference(fixture, request):
    _assert_boundary_matches_dict_reference(request.getfixturevalue(fixture))


@pytest.mark.parametrize("build", [strip_mesh, build_square_mesh,
                                   l_hole_square_mesh])
def test_small_mesh_boundary_matches_dict_reference(build):
    _assert_boundary_matches_dict_reference(build())


def _triangles_mesh(corners):
    """Mesh of counter-clockwise triangles given by their corners, which
    share no edge; every edge is labeled outer."""
    nodes, index = [], {}
    for p in (tuple(c) for tri in corners for c in tri):
        if p not in index:
            index[p] = len(nodes)
            nodes.append(p)
    tris = np.array([[index[tuple(c)] for c in tri] for tri in corners])
    edges = np.array([(t[k], t[(k + 1) % 3]) for t in tris for k in range(3)])
    return Mesh(np.array(nodes, dtype=float), tris, edges,
                np.array([OUTER] * len(edges)))


def _relabeled_strip(labels):
    m = strip_mesh()
    return Mesh(m.nodes, m.triangles, m.boundary_edges, np.array(labels))


@pytest.mark.parametrize("build, message", [
    (lambda: _relabeled_strip([OUTER, OUTER, INNER, INNER]),
     "boundary 'outer': fewer than 3 edges"),
    (lambda: _relabeled_strip([INNER, OUTER, OUTER, OUTER]),
     "boundary 'outer': node 1 has degree 1, expected 2"),
    (lambda: _triangles_mesh([[(2, 1), (1, 0), (3, 0)], [(2, 1), (3, 2), (1, 2)]]),
     "boundary 'outer': node 0 has degree 4, expected 2"),
    (lambda: _triangles_mesh([[(1, 0), (2, 0), (1, 1)], [(3, 0), (4, 0), (3, 1)]]),
     "boundary 'outer': 6 edges chain into a loop of 3 nodes; multiple components?"),
])
def test_boundary_topology_errors(build, message):
    with pytest.raises(MeshTopologyError) as err:
        build()
    assert str(err.value) == message


@settings(max_examples=30, deadline=None)
@given(r0=st.floats(5.0, 8.0), a=st.floats(1.0, 3.0), b=st.floats(1.0, 4.0),
       triangularity=st.floats(0.0, 0.5), count=st.integers(12, 60),
       shrink=st.floats(0.3, 0.7), h_over_a=st.floats(0.15, 0.4))
def test_edge_table_matches_dict_reference(r0, a, b, triangularity, count,
                                           shrink, h_over_a):
    outer = dee_loop(r0, a, b, triangularity, count)
    m = generate_annulus_mesh(outer, scale_toward_centroid(outer, shrink),
                              a * h_over_a)
    nodes, owners, _, triangle_rows = edge_table_dict(m)
    assert np.array_equal(m.edges.nodes, nodes)
    assert np.array_equal(m.edges.triangles, owners)
    assert np.array_equal(m.edges.triangle_rows, triangle_rows)
    _assert_boundary_matches_dict_reference(m)


@settings(max_examples=40, deadline=None)
@given(geometry=st.sampled_from(["desk", "iter", "square", "ladder"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_edge_triangles_are_the_triangles_holding_the_edge(
        desk_mesh, iter_mesh, geometry, seed):
    rng = np.random.default_rng(seed)
    if geometry == "desk":
        m = desk_mesh
    elif geometry == "iter":
        m = iter_mesh
    elif geometry == "square":
        m = build_square_mesh(int(rng.integers(1, 9)))
    else:
        outer = _star_loop(6.0, 0.0, 2.0,
                           rng.uniform(0.85, 1.15, rng.integers(8, 40)))
        inner = scale_toward_centroid(outer, rng.uniform(0.3, 0.6))
        m = generate_annulus_mesh(outer, inner, rng.uniform(0.3, 0.6))
    e = m.edges
    holders = [[] for _ in range(len(e.nodes))]
    for t, rows in enumerate(e.triangle_rows.tolist()):
        for row in rows:
            holders[row].append(t)
    assert e.triangles.tolist() == [h + [-1] * (2 - len(h)) for h in holders]
    # the edges missing a second triangle are exactly the boundary edges
    assert np.array_equal(e.nodes[e.triangles[:, 1] < 0],
                          np.unique(np.sort(m.boundary_edges, axis=1), axis=0))
    assert e.nodes[:, 0].flags.c_contiguous and e.nodes[:, 1].flags.c_contiguous


@settings(max_examples=20, deadline=None)
@given(r0=st.floats(4.0, 8.0), z0=st.floats(-1.0, 1.0), a=st.floats(1.0, 3.0),
       radii=st.lists(st.floats(0.85, 1.15), min_size=8, max_size=40),
       shrink=st.floats(0.3, 0.7), h_over_a=st.floats(0.15, 0.4))
def test_save_load_is_bit_exact(tmp_path_factory, r0, z0, a, radii, shrink,
                                h_over_a):
    outer = _star_loop(r0, z0, a, radii)
    try:
        m = generate_annulus_mesh(outer, scale_toward_centroid(outer, shrink),
                                  a * h_over_a)
    except MeshGeometryError:
        assume(False)
    path = tmp_path_factory.mktemp("roundtrip") / "m.mesh"
    save_mesh(m, path)
    back = load_mesh(path)
    for name in ("nodes", "triangles", "boundary_edges", "boundary_labels"):
        assert np.array_equal(getattr(back, name), getattr(m, name))
    for name in ("nodes", "triangle_rows"):
        assert np.array_equal(getattr(back.edges, name), getattr(m.edges, name))
    for name in ("outer_nodes", "inner_nodes", "outer_arcs", "inner_arcs"):
        assert np.array_equal(getattr(back.boundary, name), getattr(m.boundary, name))


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


# one case per MeshFormatError message: (edit of STRIP_FILE, line, message);
# line None for a message without one
@pytest.mark.parametrize("edit, line, message", [
    (lambda t: _edit(t, "triangles 2", "triangle 2"), 7,
     "expected 'triangles', got 'triangle'"),
    (lambda t: _edit(t, "nodes 4", "nodes 4 4"), 2,
     "expected 2 tokens for 'nodes' header, got 3"),
    (lambda t: _edit(t, "nodes 4", "nodes four"), 2, "bad count 'four'"),
    (lambda t: _edit(t, "boundary_edges 4", "boundary_edges -4"), 10, "negative count"),
    (lambda t: t.rsplit("3 0 outer", 1)[0], None,
     "unexpected end of file while reading boundary edge 3"),
    (lambda t: t.split("triangles")[0], None,
     "unexpected end of file while reading 'triangles' header"),
    (lambda t: _edit(t, "0 1 2", "0 1"), 8, "expected 3 tokens for triangle 0, got 2"),
    (lambda t: _edit(t, "2.0 0.0", "2.0 zero"), 4, "bad coordinate"),
    (lambda t: _edit(t, "0 2 3", "0 2 3.0"), 9, "bad triangle index"),
    (lambda t: _edit(t, "0 2 3", "0 2 4"), 9, "triangle index out of range"),
    (lambda t: _edit(t, "2 3 outer", "2 x outer"), 13, "bad edge index"),
    (lambda t: _edit(t, "3 0 outer", "3 -1 outer"), 14, "edge index out of range"),
    (lambda t: _edit(t, "1 2 outer", "1 2 wall"), 12, "unknown label 'wall'"),
    (lambda t: t + "3 0 outer\n", 15, "trailing content"),
    # the first fault in file order wins, whatever its kind
    (lambda t: _edit(_edit(t, "0 1 2", "0 1 7"), "0 2 3", "0 2"), 8,
     "triangle index out of range"),
    (lambda t: _edit(_edit(t, "0 1 outer", "0 1 wall"), "2 3 outer", "2 3"), 11,
     "unknown label 'wall'"),
    (lambda t: _edit(t, "1 2 outer", "1 9 wall"), 12, "edge index out of range"),
    (lambda t: _edit(t, "1 2 outer", "1 2"), 12,
     "expected 3 tokens for boundary edge 1, got 2"),
    # comments, blank lines and surrounding blanks keep the line numbers
    (lambda t: _edit(_edit(t, "2.0 1.0", " 2.0\t1.0 # c\n\n"), "0 2 3", "0 2 3.5"), 11,
     "bad triangle index"),
    # numpy's reader, not Python's int or float, decides what is a number:
    # digit-group underscores are refused in every column and in a count
    (lambda t: _edit(t, "2.0 1.0", "2.0 1_0"), 5, "bad coordinate"),
    (lambda t: _edit(t, "0 1 2", "0 1_0 2"), 8, "bad triangle index"),
    (lambda t: _edit(t, "1 2 outer", "1 1_0 outer"), 12, "bad edge index"),
    (lambda t: _edit(t, "nodes 4", "nodes 0_4"), 2, "bad count '0_4'"),
])
def test_mesh_format_error_names_line_and_fault(tmp_path, edit, line, message):
    path = tmp_path / "bad.mesh"
    path.write_text(edit(STRIP_FILE))
    where = f"{path}:{line}" if line else f"{path}"
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == f"{where}: {message}"


@pytest.mark.parametrize("old, new, message", [
    ("0 2 3", "0 2 99999999999999999999", ":9: bad triangle index"),
    ("2 3 outer", "2 99999999999999999999 outer", ":13: bad edge index"),
    ("boundary_edges 4", "boundary_edges 100000000000000",
     ": unexpected end of file while reading boundary edge 4"),
])
def test_index_beyond_int64_and_count_beyond_file(tmp_path, old, new, message):
    path = tmp_path / "bad.mesh"
    path.write_text(_edit(STRIP_FILE, old, new))
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}{message}"
