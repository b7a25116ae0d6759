"""Slow reference implementations that the fast library paths are checked
against.  They build their own adjacency from the triangle list and their
own boundary-label dicts, so they share no code with ``Mesh.edges``; the
plasma-boundary oracles span a tree over every edge of their graph; the
text-format oracles read one token and write one value at a time, and the
mesh-generator oracle works one point, ray and triangle at a time; the
interface-load and constant-term oracles lift the data by two sparse
solves, the interface oracles solve for whole blocks of lifted columns,
and the dense-Schur oracle forms the whole boundary Dirichlet-to-Neumann
matrix by one solve per boundary node with a factor of its own and
Cholesky-factors its outer block; the
stiffness oracle forms its local blocks by ``np.einsum``; every
field-solve oracle factors its matrix afresh in node
order, and the interior-order oracle takes COLAMD's order from a
factorization of the interior block; the SuperLU-defaults oracles make
fem's factorizations at SuperLU's own supernode relaxation and panel
width; the sweep oracle solves one epsilon
at a time, the eager-solve oracle computes every diagnostic with u, the
grid-check oracle runs each rule as a pass of its own and the corner
oracle keeps log J and log R_D as two arrays; the
limiter-sampling oracles locate points by a k-d tree of the triangle
centroids or by a scan of every triangle, and one of them tests every
point against both loops before it locates it; the point-in-polygon
oracle casts its ray across one edge at a time; the triangle-scan isoline
oracle, the former library cut, finds the crossed triangles by testing the
edges of every triangle of ``Mesh.edges.triangle_rows``.

The last section holds the checks that the library's pipeline never runs:
the misfit as a direct volume integral, the interface quadratic form, the
optimality residual, the weighted normal derivative, the energy norm of a
gap field and whether an isoline encircles a point.  They solve through
the ``fem`` module's own functions (``fem.solve_dirichlet``,
``fem.solve_neumann``), so a test that counts those solves sees theirs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  minimum_spanning_tree)
from scipy.spatial import cKDTree
from scipy.sparse.linalg import spilu, splu

from fluxrec import fem
from fluxrec.completion import (CauchyData, KVSystem, NearSingularError,
                                _near_singular, _resolved, assemble_kv)
from fluxrec.fem import FemError, FluxField, StiffnessMatrix
from fluxrec.mesh import (INNER, OUTER, Mesh, MeshFormatError, MeshGeometryError,
                          _angles_about, _EdgeBoundExceeded, _resample_closed,
                          chain_walk, distance_to_polyline, loops_intersect,
                          points_in_polygon, polygon_area, polygon_centroid,
                          triangle_areas)
from fluxrec.postprocess import EmptyIsolineError, Isoline
from fluxrec.regularization import DegenerateCurveError, LCurve

STATE_ORDER = {"open": 0, "closed": 1, "empty": 2}   # as the level rises


class RegionClassifier:
    """Classify the inner-attached region of {psi > level} on the triangle graph.

    Two triangles are connected when their shared edge carries values above
    the level somewhere (max endpoint value > level), which is exactly the
    connectivity of the P1 superlevel set.  States:

      'empty'  - no inner-boundary edge reaches above the level;
      'closed' - the attached region exists and avoids the outer boundary;
      'open'   - the attached region touches the outer boundary.
    """

    def __init__(self, mesh: Mesh, values: np.ndarray):
        self.values = values
        tri = mesh.triangles
        owners: dict[tuple[int, int], list[int]] = {}
        for ti, (a, b, c) in enumerate(tri):
            for p, q in ((a, b), (b, c), (c, a)):
                key = (int(min(p, q)), int(max(p, q)))
                owners.setdefault(key, []).append(ti)
        inter = [(k, o) for k, o in owners.items() if len(o) == 2]
        self.edge_nodes = np.array([k for k, _ in inter], dtype=np.int64)
        self.edge_tris = np.array([o for _, o in inter], dtype=np.int64)

        def boundary_rows(label):
            mask = mesh.boundary_labels == label
            rows = []
            for a, b in mesh.boundary_edges[mask]:
                key = (int(min(a, b)), int(max(a, b)))
                rows.append((key[0], key[1], owners[key][0]))
            return np.array(rows, dtype=np.int64).reshape(-1, 3)

        self.inner_rows = boundary_rows(INNER)
        self.outer_rows = boundary_rows(OUTER)
        self.n_tris = len(tri)

    def state(self, level: float) -> str:
        v = self.values
        seeds = self.inner_rows[
            np.maximum(v[self.inner_rows[:, 0]], v[self.inner_rows[:, 1]]) > level, 2]
        if len(seeds) == 0:
            return "empty"
        emax = np.maximum(v[self.edge_nodes[:, 0]], v[self.edge_nodes[:, 1]])
        open_edges = self.edge_tris[emax > level]
        graph = coo_matrix(
            (np.ones(len(open_edges)), (open_edges[:, 0], open_edges[:, 1])),
            shape=(self.n_tris, self.n_tris))
        _, labels = connected_components(graph, directed=False)
        region = np.zeros(self.n_tris, dtype=bool)
        region[np.isin(labels, np.unique(labels[seeds]))] = True
        wall = self.outer_rows[
            np.maximum(v[self.outer_rows[:, 0]], v[self.outer_rows[:, 1]]) > level, 2]
        return "open" if region[wall].any() else "closed"


def bisect_transition(mesh: Mesh, values: np.ndarray, rel_tol: float) -> float:
    """Open-to-closed transition level of the classifier, bisected from the
    outer-wall minimum (open) to the inner-wall maximum until the bracket is
    narrower than rel_tol times the field range."""
    cls = RegionClassifier(mesh, values)
    span = float(values.max() - values.min())
    a = float(values[mesh.boundary.outer_nodes].min())
    b = float(values[mesh.boundary.inner_nodes].max())
    assert cls.state(a) == "open"
    while b - a > rel_tol * span:
        mid = 0.5 * (a + b)
        if cls.state(mid) == "open":
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def bottleneck_level_dual(mesh: Mesh, values: np.ndarray) -> float:
    """Highest level at which {values > level} joins the two walls, on the
    triangle graph: the former library search, reading its edge owners from
    the dict-built edge table.

    Two triangles are joined above a level when the top endpoint value of
    their shared edge exceeds it.  A source is linked to the triangles on
    inner-boundary edges and a sink to those on outer-boundary edges, each
    link weighted by its edge's top value.  The max-min weight over
    source-sink paths is the smallest weight on the source-sink path of a
    maximum spanning tree, built by ranking the weights; -inf when no path
    exists.
    """
    nodes, owners, labels, _ = edge_table_dict(mesh)
    m = mesh.triangle_count
    source, sink = m, m + 1
    top = np.maximum(values[nodes[:, 0]], values[nodes[:, 1]])
    interior = owners[:, 1] >= 0
    rows = [owners[interior, 0]]
    cols = [owners[interior, 1]]
    weights = [top[interior]]
    for end, label in ((source, INNER), (sink, OUTER)):
        # one link per triangle, as the sparse matrix would sum duplicates: a
        # triangle owning two edges of one wall links with the higher value
        link = np.full(m, -np.inf)
        on_wall = labels == label
        np.maximum.at(link, owners[on_wall, 0], top[on_wall])
        linked = np.flatnonzero(link > -np.inf)
        rows.append(np.full(len(linked), end))
        cols.append(linked)
        weights.append(link[linked])
    weights = np.concatenate(weights)
    order = np.argsort(-weights, kind="stable")
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)     # 1 = top weight; 0 is no edge
    graph = coo_matrix((rank, (np.concatenate(rows), np.concatenate(cols))),
                       shape=(m + 2, m + 2)).tocsr()
    tree = minimum_spanning_tree(graph)
    tree = (tree + tree.T).tocsr()
    _, pred = breadth_first_order(tree, source, directed=False,
                                  return_predecessors=True)
    if pred[sink] < 0:
        return -np.inf
    path = [sink]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    worst = int(np.asarray(tree[path[:-1], path[1:]]).max())
    return float(weights[order[worst - 1]])


def bottleneck_level_mst(mesh: Mesh, values: np.ndarray) -> float:
    """Highest level at which {values > level} joins the two walls, on the
    whole node graph: the former library search, with no contraction, its
    edges read from the dict-built edge table and its wall nodes from the
    labeled boundary edges.

    Two nodes are joined above a level when both ends of their mesh edge
    exceed it.  A source is linked to the inner-boundary nodes and a sink to
    the outer-boundary nodes, each link weighted by its node's value, and
    each mesh edge by the smaller of its two end values.  Every weight is
    ranked by one stable argsort, and the max-min weight over source-sink
    paths is the smallest weight on the source-sink path of a maximum
    spanning tree of the whole graph; -inf when no path exists.
    """
    a, b = edge_table_dict(mesh)[0].T
    inner, outer = (np.unique(mesh.boundary_edges[mesh.boundary_labels == label])
                    for label in (INNER, OUTER))
    n = mesh.node_count
    source, sink = n, n + 1
    weights = np.concatenate([np.minimum(values[a], values[b]),
                              values[inner], values[outer]])
    rows = np.concatenate([a, np.full(len(inner), source), np.full(len(outer), sink)])
    cols = np.concatenate([b, inner, outer])
    order = np.argsort(-weights, kind="stable")
    rank = np.empty(len(order))
    rank[order] = np.arange(1, len(order) + 1)     # 1 = top weight; 0 is no edge
    graph = coo_matrix((rank, (rows, cols)), shape=(n + 2, n + 2)).tocsr()
    tree = minimum_spanning_tree(graph)
    tree = (tree + tree.T).tocsr()
    _, pred = breadth_first_order(tree, source, directed=False,
                                  return_predecessors=True)
    if pred[sink] < 0:
        return -np.inf
    path = [sink]
    while path[-1] != source:
        path.append(int(pred[path[-1]]))
    worst = int(np.asarray(tree[path[:-1], path[1:]]).max())
    return float(weights[order[worst - 1]])


def _centroid_tree(mesh: Mesh) -> cKDTree:
    """k-d tree of the triangle centroids."""
    return cKDTree(mesh.nodes[mesh.triangles].mean(axis=1))


def sample_field_by_centroid_tree(fld: FluxField,
                                  polyline: np.ndarray) -> np.ndarray:
    """P1 field values at points of a polyline (subdivided per segment),
    located through a k-d tree of the triangle centroids: the former
    library sampler.

    Each point takes the lowest-index triangle whose barycentric coordinates
    pass a 1e-12 tolerance.  Candidates are the triangles with centroid
    within the longest mesh edge of the point, which misses none: every
    point of a triangle lies within 2/3 of its longest edge of its centroid.
    The (point, triangle) candidate pairs come as two index arrays, from a
    k-d tree of the points against the centroid tree.
    Only the points that no triangle holds are tested against the loops:
    one outside the outer boundary raises, one inside the inner hole is
    skipped, and any other lies outside the mesh and raises.  A point on a
    loop, within the tolerance, is held by a triangle and sampled.
    """
    mesh = fld.mesh
    h = mesh.max_edge_length
    step = np.roll(polyline, -1, axis=0) - polyline
    # one dot product per segment, rounded as np.linalg.norm rounds one vector
    length = np.sqrt(step[:, None, :] @ step[:, :, None]).ravel()
    n = np.maximum(1, np.ceil(length / (0.5 * h))).astype(np.int64)
    seg = np.repeat(np.arange(len(polyline)), n)
    k = np.arange(len(seg)) - (np.cumsum(n) - n)[seg]
    pts = polyline[seg] + (k / n[seg])[:, None] * step[seg]

    pairs = cKDTree(pts).sparse_distance_matrix(_centroid_tree(mesh), h,
                                                output_type="ndarray")
    pi, ti = pairs["i"], pairs["j"]
    tri_pts = mesh.nodes[mesh.triangles[ti]]
    v0 = tri_pts[:, 0]
    d1 = tri_pts[:, 1] - v0
    d2 = tri_pts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = pts[pi] - v0
    l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
    ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)

    # lowest-index containing triangle per point: sort the hits by (point, triangle)
    hits = np.flatnonzero(ok)
    hits = hits[np.lexsort((ti[hits], pi[hits]))]
    first = hits[np.diff(pi[hits], prepend=-1) != 0]
    located = np.zeros(len(pts), dtype=bool)
    located[pi[first]] = True
    loose = pts[~located]
    bidx = mesh.boundary
    if not points_in_polygon(loose, mesh.nodes[bidx.outer_nodes]).all():
        raise ValueError("limiter leaves the outer boundary")
    if len(bidx.inner_nodes):
        loose = loose[~points_in_polygon(loose, mesh.nodes[bidx.inner_nodes])]
    if len(first) == len(loose) == 0:
        raise ValueError("limiter lies entirely inside the plasma hole")
    if len(loose):
        raise ValueError(f"limiter point {loose[0]} is outside the mesh")
    vals = fld.values[mesh.triangles[ti[first]]]
    l1, l2 = l1[first], l2[first]
    return vals[:, 0] * (1 - l1 - l2) + vals[:, 1] * l1 + vals[:, 2] * l2


def sample_field_polygon_first(fld: FluxField,
                              polyline: np.ndarray) -> np.ndarray:
    """P1 field values at points of a polyline (subdivided per segment),
    every point tested against both loops before any triangle is located.

    Points inside the inner hole are skipped; points outside the outer
    boundary raise.  Each point takes the lowest-index triangle whose
    barycentric coordinates pass a 1e-12 tolerance.  Candidates are the
    triangles with centroid within the longest mesh edge of the point, which
    misses none: every point of a triangle lies within 2/3 of its longest
    edge of its centroid.
    """
    mesh = fld.mesh
    h = mesh.max_edge_length
    step = np.roll(polyline, -1, axis=0) - polyline
    # one dot product per segment, rounded as np.linalg.norm rounds one vector
    length = np.sqrt(step[:, None, :] @ step[:, :, None]).ravel()
    n = np.maximum(1, np.ceil(length / (0.5 * h))).astype(np.int64)
    seg = np.repeat(np.arange(len(polyline)), n)
    k = np.arange(len(seg)) - (np.cumsum(n) - n)[seg]
    pts = polyline[seg] + (k / n[seg])[:, None] * step[seg]

    bidx = mesh.boundary
    outer_loop = mesh.nodes[bidx.outer_nodes]
    if not points_in_polygon(pts, outer_loop).all():
        raise ValueError("limiter leaves the outer boundary")
    if len(bidx.inner_nodes):
        in_hole = points_in_polygon(pts, mesh.nodes[bidx.inner_nodes])
        pts = pts[~in_hole]
    if len(pts) == 0:
        raise ValueError("limiter lies entirely inside the plasma hole")

    near = _centroid_tree(mesh).query_ball_point(pts, h)
    pi = np.repeat(np.arange(len(pts)), [len(c) for c in near])
    ti = np.concatenate(near).astype(np.int64)
    tri_pts = mesh.nodes[mesh.triangles[ti]]
    v0 = tri_pts[:, 0]
    d1 = tri_pts[:, 1] - v0
    d2 = tri_pts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = pts[pi] - v0
    l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
    ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)

    # lowest-index containing triangle per point: sort the hits by (point, triangle)
    hits = np.flatnonzero(ok)
    hits = hits[np.lexsort((ti[hits], pi[hits]))]
    first = hits[np.diff(pi[hits], prepend=-1) != 0]
    if len(first) < len(pts):
        missing = np.setdiff1d(np.arange(len(pts)), pi[first])[0]
        raise ValueError(f"limiter point {pts[missing]} is outside the mesh")
    vals = fld.values[mesh.triangles[ti[first]]]
    l1, l2 = l1[first], l2[first]
    return vals[:, 0] * (1 - l1 - l2) + vals[:, 1] * l1 + vals[:, 2] * l2


def sample_field_scan(values: np.ndarray, mesh: Mesh,
                      polyline: np.ndarray) -> np.ndarray:
    """P1 values along a polyline, locating each point by a scan over every
    triangle: the lowest-index triangle whose barycentric coordinates pass
    a 1e-12 tolerance."""
    h = mesh.max_edge_length
    samples = []
    closed = np.vstack([polyline, polyline[:1]])
    for a, b in zip(closed[:-1], closed[1:]):
        n = max(1, int(np.ceil(np.linalg.norm(b - a) / (0.5 * h))))
        for k in range(n):
            samples.append(a + (k / n) * (b - a))
    pts = np.asarray(samples)

    bidx = mesh.boundary
    if not points_in_polygon(pts, mesh.nodes[bidx.outer_nodes]).all():
        raise ValueError("limiter leaves the outer boundary")
    if len(bidx.inner_nodes):
        pts = pts[~points_in_polygon(pts, mesh.nodes[bidx.inner_nodes])]
    if len(pts) == 0:
        raise ValueError("limiter lies entirely inside the plasma hole")

    tri_pts = mesh.nodes[mesh.triangles]
    v0 = tri_pts[:, 0]
    d1 = tri_pts[:, 1] - v0
    d2 = tri_pts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        rel = p - v0
        l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
        l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
        ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
        cand = np.flatnonzero(ok)
        if len(cand) == 0:
            raise ValueError(f"limiter point {p} is outside the mesh")
        t = cand[0]
        vals = values[mesh.triangles[t]]
        out[i] = vals[0] * (1 - l1[t] - l2[t]) + vals[1] * l1[t] + vals[2] * l2[t]
    return out


def edge_table_dict(mesh: Mesh):
    """Sorted unique edges with owners (-1 padded), labels ("" interior) and
    the row of each triangle's edges (a,b), (b,c), (c,a), built with a dict
    over the triangle list."""
    owners: dict[tuple[int, int], list[int]] = {}
    for ti, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for p, q in ((a, b), (b, c), (c, a)):
            owners.setdefault((min(p, q), max(p, q)), []).append(ti)
    labels = {(min(a, b), max(a, b)): str(lab) for (a, b), lab
              in zip(mesh.boundary_edges.tolist(), mesh.boundary_labels)}
    keys = sorted(owners)
    row = {k: i for i, k in enumerate(keys)}
    tri_rows = [[row[(min(p, q), max(p, q))] for p, q in ((a, b), (b, c), (c, a))]
                for a, b, c in mesh.triangles.tolist()]
    return (np.array(keys), np.array([owners[k] + [-1] * (2 - len(owners[k]))
                                      for k in keys]),
            np.array([labels.get(k, "") for k in keys]),
            np.array(tri_rows, dtype=np.int64).reshape(-1, 3))


def chain_loop_dict(edges: np.ndarray) -> np.ndarray:
    """One closed loop of node indices from the smallest node, leaving it
    along its first listed edge; a dict adjacency walk.  The edges must form
    a single cycle."""
    adj: dict[int, list[int]] = {}
    for a, b in edges.tolist():
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = min(adj)
    loop, prev, cur = [start], -1, start
    while True:
        prev, cur = cur, [n for n in adj[cur] if n != prev][0]
        if cur == start:
            return np.asarray(loop, dtype=np.int64)
        loop.append(cur)


def boundary_index_dict(mesh: Mesh):
    """(nodes, arcs) of the outer and the inner loop, in the
    documented BoundaryIndex order: outer counter-clockwise, inner
    clockwise, each from its minimum-z (then minimum-r) node."""
    out = []
    for label, ccw in ((OUTER, True), (INNER, False)):
        edges = mesh.boundary_edges[mesh.boundary_labels == label]
        if len(edges) == 0:
            out.append((np.zeros(0, dtype=np.int64), np.zeros(0)))
            continue
        loop = chain_loop_dict(edges)
        if (polygon_area(mesh.nodes[loop]) > 0.0) != ccw:
            loop = loop[::-1]
        pts = mesh.nodes[loop]
        start = min(range(len(loop)), key=lambda i: (pts[i, 1], pts[i, 0]))
        loop = np.roll(loop, -start)
        pts = mesh.nodes[loop]
        out.append((loop, np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(pts, axis=0), axis=1))])))
    return out


def extract_isoline_dict(fld: FluxField, level: float,
                         mesh: Mesh) -> tuple[Isoline, list]:
    """Marching triangles with a Python loop over crossed triangles, crossing
    points and ids kept in dicts keyed by node pair, and a dict adjacency
    walk: open chains from their contour endpoints first, in order of first
    crossing, then closed chains.  Returns the isoline and its segments, one
    pair of crossing points per crossed triangle."""
    values = fld.values
    vmin, vmax = float(values.min()), float(values.max())
    if not (vmin <= level <= vmax):
        raise EmptyIsolineError(
            f"level {level} outside field range [{vmin}, {vmax}]")
    rng = max(vmax - vmin, 1e-300)
    lev = float(level)
    while np.any(values == lev):
        lev += 1e-12 * rng

    tri = mesh.triangles
    below = values[tri] < lev
    crossed_tris = np.flatnonzero(below.any(axis=1) & (~below).any(axis=1))
    edge_point: dict[tuple[int, int], np.ndarray] = {}
    edge_ids: dict[tuple[int, int], int] = {}

    def crossing(a: int, b: int):
        key = (a, b) if a < b else (b, a)
        if key not in edge_point:
            va, vb = values[key[0]], values[key[1]]
            t = (lev - va) / (vb - va)
            edge_point[key] = (1.0 - t) * mesh.nodes[key[0]] + t * mesh.nodes[key[1]]
            edge_ids[key] = len(edge_ids)
        return key

    segments, seg_edges = [], []
    for ti in crossed_tris:
        a, b, c = tri[ti]
        cut = [crossing(p, q) for p, q in ((a, b), (b, c), (c, a))
               if (values[p] < lev) != (values[q] < lev)]
        segments.append((edge_point[cut[0]].copy(), edge_point[cut[1]].copy()))
        seg_edges.append((cut[0], cut[1]))

    iso = Isoline(level=float(level))
    if not seg_edges:
        return iso, segments
    adjacency: dict[tuple, list[int]] = {}
    for si, (ea, eb) in enumerate(seg_edges):
        adjacency.setdefault(ea, []).append(si)
        adjacency.setdefault(eb, []).append(si)
    seen = [False] * len(seg_edges)

    def walk(start_edge):
        path, cur = [start_edge], start_edge
        while True:
            nxt_seg = [s for s in adjacency[cur] if not seen[s]]
            if not nxt_seg:
                return path, False
            seen[nxt_seg[0]] = True
            ea, eb = seg_edges[nxt_seg[0]]
            cur = eb if ea == cur else ea
            if cur == start_edge:
                return path, True
            path.append(cur)

    for start in sorted((k for k, v in adjacency.items() if len(v) == 1),
                        key=lambda k: edge_ids[k]):
        if all(seen[s] for s in adjacency[start]):
            continue
        path, _ = walk(start)
        iso.polylines.append(np.array([edge_point[e] for e in path]))
        iso.polyline_closed.append(False)
    for start in sorted(adjacency, key=lambda k: edge_ids[k]):
        if all(seen[s] for s in adjacency[start]):
            continue
        path, is_closed = walk(start)
        pts = np.array([edge_point[e] for e in path])
        if is_closed:
            pts = np.vstack([pts, pts[:1]])
        iso.polylines.append(pts)
        iso.polyline_closed.append(bool(is_closed))
    iso.closed = all(iso.polyline_closed) and bool(iso.polylines)
    return iso, segments


def extract_isoline_scan(fld: FluxField, level: float) -> Isoline:
    """Marching triangles over every triangle: the former library cut.

    The level is perturbed off the nodal values as `extract_isoline` does.
    Each edge row is crossed when one end only lies below the level; every
    triangle's three rows are tested, and each crossed triangle gives its
    two crossed rows in local order.  The crossed edges are numbered in the
    order the triangle list first reaches them and chained by `chain_walk`.
    """
    mesh = fld.mesh
    values = fld.values
    vmin, vmax = float(values.min()), float(values.max())
    if not (vmin <= level <= vmax):
        raise EmptyIsolineError(
            f"level {level} outside field range [{vmin}, {vmax}]")
    rng = max(vmax - vmin, 1e-300)
    lev = float(level)
    while np.any(values == lev):
        lev = max(lev + 1e-12 * rng, np.nextafter(lev, np.inf))

    e = mesh.edges
    below = values < lev                          # strict by construction
    crossed = below[e.nodes[:, 0]] != below[e.nodes[:, 1]]
    cut = crossed[e.triangle_rows]
    # a crossed triangle has exactly two crossed edges, kept in local order,
    # so one of its first two is crossed
    hit = cut[:, 0] | cut[:, 1]
    seg_rows = e.triangle_rows[hit][cut[hit]]
    iso = Isoline(level=float(level))
    if len(seg_rows) == 0:
        return iso

    rows, first, inverse = np.unique(seg_rows, return_index=True,
                                     return_inverse=True)
    order = np.argsort(first)                   # ids by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    links = rank[inverse].reshape(-1, 2)
    lo, hi = e.nodes[rows[order]].T
    va, vb = values[lo], values[hi]
    t = ((lev - va) / (vb - va))[:, None]
    points = (1.0 - t) * mesh.nodes[lo] + t * mesh.nodes[hi]

    for path, is_closed in chain_walk(links):
        iso.polylines.append(points[path + path[:1] if is_closed else path])
        iso.polyline_closed.append(is_closed)
    iso.closed = all(iso.polyline_closed)
    return iso


def points_in_polygon_by_edge(points, loop) -> np.ndarray:
    """Ray casting one point and one loop edge at a time in Python floats:
    an edge counts when the point's horizontal line straddles it and the
    point lies left of the crossing, computed for that edge alone."""
    loop = np.asarray(loop, dtype=float).tolist()
    inside = []
    for x, y in np.atleast_2d(np.asarray(points, dtype=float)).tolist():
        odd = False
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if (y1 > y) != (y2 > y) and x < (x2 - x1) * (y - y1) / (y2 - y1) + x1:
                odd = not odd
        inside.append(odd)
    return np.array(inside, dtype=bool)


# ---------------------------------------------------------------------------
# text formats, one token or one value at a time
# ---------------------------------------------------------------------------

def _number(kind, token: str):
    """`kind` (``int`` or ``float``) of `token`, refusing the digit-group
    underscores (``1_0``) that numpy's C reader refuses."""
    if "_" in token:
        raise ValueError(f"digit separator in {token!r}")
    return kind(token)


def _tokens(path):
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def load_mesh_by_token(path) -> Mesh:
    """The mesh reader as a token stream with per-row Python checks.

    Rows are collected in lists rather than arrays sized by the header
    counts, so a count beyond the file ends at the end of the file, and an
    index beyond int64 is a bad index.
    """
    stream = _tokens(path)

    def next_tokens(expect: int, what: str):
        try:
            lineno, toks = next(stream)
        except StopIteration:
            raise MeshFormatError(f"{path}: unexpected end of file while reading {what}")
        if len(toks) != expect:
            raise MeshFormatError(
                f"{path}:{lineno}: expected {expect} tokens for {what}, got {len(toks)}")
        return lineno, toks

    def header(name: str) -> int:
        lineno, toks = next_tokens(2, f"'{name}' header")
        if toks[0] != name:
            raise MeshFormatError(f"{path}:{lineno}: expected '{name}', got '{toks[0]}'")
        try:
            count = _number(int, toks[1])
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad count '{toks[1]}'")
        if count < 0:
            raise MeshFormatError(f"{path}:{lineno}: negative count")
        return count

    def indices(lineno, toks, what):
        try:
            row = np.array([_number(int, t) for t in toks], dtype=np.int64)
        except (ValueError, OverflowError):
            raise MeshFormatError(f"{path}:{lineno}: bad {what} index")
        if row.min() < 0 or row.max() >= n:
            raise MeshFormatError(f"{path}:{lineno}: {what} index out of range")
        return row

    n = header("nodes")
    nodes = []
    for i in range(n):
        lineno, toks = next_tokens(2, f"node {i}")
        try:
            nodes.append((_number(float, toks[0]), _number(float, toks[1])))
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad coordinate")

    tris = []
    for i in range(header("triangles")):
        lineno, toks = next_tokens(3, f"triangle {i}")
        tris.append(indices(lineno, toks, "triangle"))

    edges, labels = [], []
    for i in range(header("boundary_edges")):
        lineno, toks = next_tokens(3, f"boundary edge {i}")
        edges.append(indices(lineno, toks[:2], "edge"))
        if toks[2] not in (OUTER, INNER):
            raise MeshFormatError(f"{path}:{lineno}: unknown label '{toks[2]}'")
        labels.append(toks[2])

    extra = next(stream, None)
    if extra is not None:
        raise MeshFormatError(f"{path}:{extra[0]}: trailing content")
    return Mesh(np.array(nodes, dtype=float).reshape(-1, 2),
                np.array(tris, dtype=np.int64).reshape(-1, 3),
                np.array(edges, dtype=np.int64).reshape(-1, 2),
                np.array(labels, dtype="U8"))


def _csv_lines(path):
    """(line number, stripped text) of the non-blank lines."""
    with open(path, "r", encoding="ascii") as fh:
        return [(n, line.strip()) for n, line in enumerate(fh, start=1) if line.strip()]


def read_node_csv_by_token(path, header: str, nodes, columns: slice, outside: str,
                           missing: str) -> np.ndarray:
    """The node CSV reader (flux and Cauchy files) one row at a time, each
    field converted by ``int`` or ``float``; the rows' `columns` come back
    in the order of `nodes`."""
    lines = _csv_lines(path)
    first = lines[0][1] if lines and lines[0][0] == 1 else ""
    if first != header:
        raise MeshFormatError(f"{path}: unexpected header {first!r}")
    width, wanted, values = header.count(",") + 1, set(nodes.tolist()), {}
    for i, (lineno, line) in enumerate(lines[1:]):
        toks = line.split(",")
        if len(toks) != width:
            raise MeshFormatError(
                f"{path}:{lineno}: expected {width} tokens for row {i}, got {len(toks)}")
        try:
            node = _number(int, toks[0])
            if not -2**63 <= node < 2**63:
                raise OverflowError
        except (ValueError, OverflowError):
            raise MeshFormatError(f"{path}:{lineno}: bad node index")
        try:
            row = [_number(float, t) for t in toks[columns]]
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad value")
        if node not in wanted:
            raise MeshFormatError(f"{path}:{lineno}: {outside.format(node)}")
        if node in values:
            raise MeshFormatError(f"{path}:{lineno}: node {node} listed twice")
        if not all(map(math.isfinite, row)):
            raise MeshFormatError(f"{path}:{lineno}: non-finite value")
        values[node] = row
    if len(values) < len(nodes):
        raise MeshFormatError(f"{path}: {missing}")
    return np.array([values[k] for k in nodes.tolist()], dtype=float).reshape(
        len(nodes), -1)


def read_polyline_csv_by_token(path) -> np.ndarray:
    """The polyline reader one row at a time, each field by ``float``."""
    rows = [(n, line.replace(",", " ").split()) for n, line in _csv_lines(path)]

    def number(token):
        try:
            float(token)
        except ValueError:
            return False
        return True

    if rows and not any(map(number, rows[0][1])):
        rows = rows[1:]
    points = []
    for i, (lineno, toks) in enumerate(rows):
        if len(toks) != 2:
            raise MeshFormatError(
                f"{path}:{lineno}: expected 2 tokens for point {i}, got {len(toks)}")
        try:
            point = [_number(float, t) for t in toks]
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad coordinate")
        if not all(map(math.isfinite, point)):
            raise MeshFormatError(f"{path}:{lineno}: non-finite coordinate")
        points.append(point)
    if len(points) < 3:
        raise MeshFormatError(f"{path}: fewer than 3 polyline points")
    return np.array(points, dtype=float)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def save_mesh_by_row(mesh, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {mesh.node_count}\n")
        for r, z in mesh.nodes:
            fh.write(f"{float(r)!r} {float(z)!r}\n")
        fh.write(f"triangles {mesh.triangle_count}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        fh.write(f"boundary_edges {len(mesh.boundary_edges)}\n")
        for (a, b), lab in zip(mesh.boundary_edges, mesh.boundary_labels):
            fh.write(f"{a} {b} {lab}\n")


def write_report_by_row(path, entries: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def write_flux_csv_by_row(path, fld) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("node_index,r,z,psi\n")
        for i, ((r, z), v) in enumerate(zip(fld.mesh.nodes, fld.values)):
            fh.write(f"{i},{_fmt(r)},{_fmt(z)},{_fmt(v)}\n")


def write_vtk_by_row(path, fld) -> None:
    mesh = fld.mesh
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("fluxrec field export\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.node_count} double\n")
        for r, z in mesh.nodes:
            fh.write(f"{_fmt(r)} {_fmt(z)} 0.0\n")
        m = mesh.triangle_count
        fh.write(f"CELLS {m} {4 * m}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"3 {i} {j} {k}\n")
        fh.write(f"CELL_TYPES {m}\n")
        fh.write("5\n" * m)
        fh.write(f"POINT_DATA {mesh.node_count}\n")
        fh.write("SCALARS psi double 1\n")
        fh.write("LOOKUP_TABLE default\n")
        for v in fld.values:
            fh.write(f"{_fmt(v)}\n")


def write_cauchy_csv_by_row(path, mesh, data) -> None:
    b = mesh.boundary
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma_v_node,arc_length,f,g\n")
        for node, arc, fv, gv in zip(b.outer_nodes, b.outer_arcs, data.f, data.g):
            fh.write(f"{node},{_fmt(arc)},{_fmt(fv)},{_fmt(gv)}\n")


def write_control_csv_by_row(path, mesh, u) -> None:
    b = mesh.boundary
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma_i_node,arc_length,u\n")
        for node, arc, uv in zip(b.inner_nodes, b.inner_arcs, u):
            fh.write(f"{node},{_fmt(arc)},{_fmt(uv)}\n")


def write_lcurve_csv_by_row(path, curve) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epsilon,J,R_D,is_corner\n")
        for i, (eps, j, rd) in enumerate(zip(curve.epsilons, curve.misfits,
                                             curve.regularizers)):
            fh.write(f"{_fmt(eps)},{_fmt(j)},{_fmt(rd)},"
                     f"{1 if i == curve.corner_index else 0}\n")


def write_isoline_csv_by_row(path, iso) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("polyline_id,vertex_index,r,z\n")
        for pid, poly in enumerate(iso.polylines):
            for k, (r, z) in enumerate(poly):
                fh.write(f"{pid},{k},{_fmt(r)},{_fmt(z)}\n")


# ---------------------------------------------------------------------------
# ring-ladder generator, one point, ray and triangle at a time
# ---------------------------------------------------------------------------

def subdivide_loop_by_point(loop: np.ndarray, h: float) -> np.ndarray:
    """Insert equally spaced points on each edge so no piece exceeds h.

    Original vertices are preserved exactly; new points lie on the edges.
    """
    loop = np.asarray(loop, dtype=float)
    out = []
    for a, b in zip(loop, np.roll(loop, -1, axis=0)):
        out.append(a)
        length = float(np.linalg.norm(b - a))
        pieces = max(1, math.ceil(length / h))
        for k in range(1, pieces):
            t = k / pieces
            out.append((1.0 - t) * a + t * b)
    return np.asarray(out)


def ray_crossings_by_ray(loop: np.ndarray, center: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Intersection of rays from center at given angles with a star-shaped loop."""
    ang = _angles_about(loop, center)
    order = np.argsort(ang, kind="stable")
    ang_sorted = ang[order]
    pts_sorted = loop[order]
    out = np.empty((len(angles), 2))
    for i, theta in enumerate(np.mod(angles, 2.0 * math.pi)):
        j = np.searchsorted(ang_sorted, theta)
        a = pts_sorted[(j - 1) % len(loop)]
        b = pts_sorted[j % len(loop)]
        # solve a + t (b - a) on the ray direction
        d = np.array([math.cos(theta), math.sin(theta)])
        e = b - a
        denom = d[0] * (-e[1]) - d[1] * (-e[0])
        if abs(denom) < 1e-300:
            out[i] = a
            continue
        rhs = a - center
        t_edge = (d[0] * rhs[1] - d[1] * rhs[0]) / denom
        out[i] = a + np.clip(t_edge, 0.0, 1.0) * e
    return out


def stitch_rings_two_pointer(idx_a, ang_a, idx_b, ang_b) -> list[tuple[int, int, int]]:
    """Triangulate the band between two rings sorted by angle (a inside b)."""
    na, nb = len(idx_a), len(idx_b)
    tris = []
    i = j = 0
    two_pi = 2.0 * math.pi

    def next_ang(ang, k, n):
        return ang[(k + 1) % n] + (two_pi if k + 1 >= n else 0.0)

    while i < na or j < nb:
        take_a = i < na and (j >= nb or next_ang(ang_a, i, na) <= next_ang(ang_b, j, nb))
        if take_a:
            tris.append((idx_a[i % na], idx_b[j % nb], idx_a[(i + 1) % na]))
            i += 1
        else:
            tris.append((idx_a[i % na], idx_b[j % nb], idx_b[(j + 1) % nb]))
            j += 1
    return tris


def generate_annulus_mesh_by_loop(outer: np.ndarray, inner: np.ndarray, target_h: float,
                                  node_budget: int | None = None) -> Mesh:
    """`generate_annulus_mesh` with per-point subdivision, per-ray crossings,
    a two-pointer ring stitch and a one-node-at-a-time budget spread, which
    gives up after 10 * |node_budget| + 100 ring visits."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    if target_h <= 0.0:
        raise MeshGeometryError("target_h must be positive")
    for name, loop in (("outer", outer), ("inner", inner)):
        if loop.ndim != 2 or loop.shape[1] != 2 or len(loop) < 3:
            raise MeshGeometryError(f"{name} loop must be an (n>=3, 2) polyline")
        if np.any(loop[:, 0] <= 0.0):
            raise MeshGeometryError(f"{name} loop has r <= 0")
    scale = max(np.ptp(outer[:, 0]), np.ptp(outer[:, 1]))
    if not points_in_polygon(inner, outer).all():
        raise MeshGeometryError("inner loop is not strictly inside the outer loop")
    if np.min(distance_to_polyline(inner, outer)) < 1e-9 * scale:
        raise MeshGeometryError("loops touch or coincide")
    if loops_intersect(outer, inner):
        raise MeshGeometryError("outer and inner loops intersect")

    center = polygon_centroid(inner)
    if not points_in_polygon(center[None, :], inner)[0]:
        raise MeshGeometryError("inner loop is not star-shaped about its centroid")

    # retry with tighter internal spacing until the edge bound holds
    last_err = None
    for shrink in (1.0, 0.75, 0.56, 0.42):
        try:
            return _ladder_mesh_by_loop(outer, inner, center, 0.9 * target_h * shrink,
                                        target_h, node_budget)
        except _EdgeBoundExceeded as exc:
            last_err = exc
    raise MeshGeometryError(str(last_err))


def _ladder_mesh_by_loop(outer: np.ndarray, inner: np.ndarray, center: np.ndarray,
                         h_b: float, target_h: float, node_budget: int | None) -> Mesh:
    ring_inner = subdivide_loop_by_point(inner, h_b)
    ring_outer = subdivide_loop_by_point(outer, h_b)
    for name, ring in (("inner", ring_inner), ("outer", ring_outer)):
        ang = _angles_about(ring, center)
        rolled = np.roll(ang, -int(np.argmin(ang)))
        if np.any(np.diff(rolled) <= 0):
            raise MeshGeometryError(
                f"{name} loop is not star-shaped about the inner centroid; "
                "this generator requires star-shaped loops")

    # radial layer count from the mean gap along matched rays
    probe = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    p_in = ray_crossings_by_ray(ring_inner, center, probe)
    p_out = ray_crossings_by_ray(ring_outer, center, probe)
    gap = float(np.mean(np.linalg.norm(p_out - p_in, axis=1)))
    layers = max(1, round(gap / h_b))

    # intermediate rings: blend along rays, then resample by arc length
    fine = np.sort(np.concatenate([_angles_about(ring_inner, center),
                                   _angles_about(ring_outer, center)]))
    fine_in = ray_crossings_by_ray(ring_inner, center, fine)
    fine_out = ray_crossings_by_ray(ring_outer, center, fine)

    def ring_plan(layer_count):
        plan = []
        for k in range(1, layer_count):
            s = k / layer_count
            blend = (1.0 - s) * fine_in + s * fine_out
            perim = float(np.sum(np.linalg.norm(
                np.roll(blend, -1, axis=0) - blend, axis=1)))
            plan.append((blend, max(3, math.ceil(perim / h_b))))
        return plan

    if node_budget is not None:
        # choose the layer count whose natural node total is closest to the
        # budget, so the per-ring adjustment below stays small
        fixed = len(ring_inner) + len(ring_outer)
        best, best_gap = None, None
        for trial in range(max(2, layers // 2), max(3, 2 * layers + 2)):
            total = fixed + sum(c for _, c in ring_plan(trial))
            miss = abs(total - node_budget)
            if best_gap is None or miss < best_gap:
                best, best_gap = trial, miss
        layers = best
    mids = ring_plan(layers)

    if node_budget is not None:
        fixed = len(ring_inner) + len(ring_outer)
        counts = [c for _, c in mids]
        deficit = node_budget - fixed - sum(counts)
        if not mids:
            raise MeshGeometryError("node budget requires at least one interior ring")
        step = 1 if deficit > 0 else -1
        i = 0
        while deficit != 0:
            j = i % len(counts)
            if counts[j] + step >= 3:
                counts[j] += step
                deficit -= step
            i += 1
            if i > 10 * abs(node_budget) + 100:
                raise MeshGeometryError("cannot satisfy node budget")
        mids = [(blend, c) for (blend, _), c in zip(mids, counts)]

    rings = [ring_inner]
    for blend, count in mids:
        rings.append(_resample_closed(blend, count))
    rings.append(ring_outer)

    nodes = np.concatenate(rings, axis=0)
    offsets = np.cumsum([0] + [len(r) for r in rings])
    tris: list[tuple[int, int, int]] = []
    for k in range(len(rings) - 1):
        a = np.arange(offsets[k], offsets[k + 1])
        b = np.arange(offsets[k + 1], offsets[k + 2])
        ang_a = _angles_about(rings[k], center)
        ang_b = _angles_about(rings[k + 1], center)
        oa, ob = np.argsort(ang_a, kind="stable"), np.argsort(ang_b, kind="stable")
        tris.extend(stitch_rings_two_pointer(a[oa], ang_a[oa], b[ob], ang_b[ob]))
    triangles = np.asarray(tris, dtype=np.int64)

    areas = triangle_areas(nodes, triangles)
    flip = areas < 0.0
    if flip.any():
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
    if np.any(triangle_areas(nodes, triangles) <= 0.0):
        raise MeshGeometryError("degenerate triangle produced; loops too irregular")

    def ring_edges(lo, hi, label):
        idx = np.arange(lo, hi)
        nxt = np.roll(idx, -1)
        return [(int(a), int(b), label) for a, b in zip(idx, nxt)]

    edge_list = ring_edges(offsets[0], offsets[1], INNER) \
        + ring_edges(offsets[-2], offsets[-1], OUTER)
    edges = np.asarray([(a, b) for a, b, _ in edge_list], dtype=np.int64)
    labels = np.asarray([lab for _, _, lab in edge_list])

    mesh = Mesh(nodes, triangles, edges, labels)
    if mesh.max_edge_length > 1.5 * target_h:
        raise _EdgeBoundExceeded(
            f"generated edge length {mesh.max_edge_length:.4g} exceeds "
            f"1.5 * target_h = {1.5 * target_h:.4g}")
    return mesh


def stiffness_by_einsum(mesh: Mesh):
    """The stiffness matrix (CSR) with its local blocks formed by
    ``np.einsum``, the former library form."""
    grads, areas = fem.triangle_gradients(mesh)
    r_quad = mesh.nodes[mesh.triangles][..., 0] @ fem._QUAD_POINTS.T
    weight_int = areas * ((1.0 / r_quad) @ fem._QUAD_WEIGHTS)
    local = np.einsum("mia,mja->mij", grads, grads) * weight_int[:, None, None]
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(-1)
    cols = np.tile(mesh.triangles, (1, 3)).reshape(-1)
    n = mesh.node_count
    return coo_matrix((local.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()


def flux_load_by_edge(A, g) -> np.ndarray:
    """Nodal load of the natural boundary term on the outer loop (the outer
    rows hold StiffnessMatrix.outer_mass @ g), one Gauss point at a time,
    scattered per edge by np.add.at; g may be a 2-D block of columns."""
    mesh = A.mesh
    outer = mesh.boundary.outer_nodes
    nxt = np.roll(np.arange(len(outer)), -1)
    pts = mesh.nodes[outer]
    lengths = np.linalg.norm(pts[nxt] - pts, axis=1)
    g = np.asarray(g, dtype=np.float64)
    if g.ndim == 2:
        lengths = lengths[:, None]
    load = np.zeros((mesh.node_count,) + g.shape[1:])
    for q in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
        gq = (1.0 - q) * g + q * g[nxt]
        np.add.at(load, outer, 0.5 * lengths * gq * (1.0 - q))
        np.add.at(load, outer[nxt], 0.5 * lengths * gq * q)
    return load


def neumann_solve(A, g, v) -> np.ndarray:
    """Nodal Neumann solution (flux g outside, values v inside) from a fresh
    factorization in ascending node order; 2-D blocks give one column each."""
    inner = A.mesh.boundary.inner_nodes
    free = np.setdiff1d(np.arange(A.mesh.node_count), inner)
    csc = A.matrix.tocsc()
    x = np.zeros((A.mesh.node_count,) + np.shape(v)[1:])
    x[inner] = v
    rhs = flux_load_by_edge(A, g)[free] - csc[free][:, inner] @ v
    x[free] = splu(csc[free][:, free].tocsc()).solve(rhs)
    return x


def dirichlet_solve(A, f, v) -> np.ndarray:
    """Nodal Dirichlet solution (values f outside, v inside, no interior
    load) from a fresh factorization in ascending node order; 2-D blocks
    give one column each."""
    b = A.mesh.boundary
    held = np.concatenate([b.outer_nodes, b.inner_nodes])
    free = np.setdiff1d(np.arange(A.mesh.node_count), held)
    csc = A.matrix.tocsc()
    values = np.concatenate([f, v])
    x = np.zeros((A.mesh.node_count,) + np.shape(values)[1:])
    x[held] = values
    x[free] = splu(csc[free][:, free].tocsc()).solve(
        -(csc[free][:, held] @ values))
    return x


def dirichlet_block_interface(A) -> tuple[np.ndarray, np.ndarray]:
    """S_D and T_f from a Dirichlet solve of every inner basis function
    (zero outside): S_D = (A cols_d)[inner], T_f = -(A cols_d)[outer]'."""
    b = A.mesh.boundary
    ni = len(b.inner_nodes)
    a_cols_d = A.matrix @ dirichlet_solve(
        A, np.zeros((len(b.outer_nodes), ni)), np.eye(ni))
    return a_cols_d[b.inner_nodes], -a_cols_d[b.outer_nodes].T


def two_lift_load(system) -> np.ndarray:
    """Interface load -(A (tilde_d - tilde_n))[inner] from fresh Dirichlet and
    Neumann lifts of the system's data, with zero inner values."""
    A, data = system.stiffness, system.data
    zero = np.zeros(len(system.stiffness.mesh.boundary.inner_nodes))
    gap = dirichlet_solve(A, data.f, zero) - neumann_solve(A, data.g, zero)
    return -(A.matrix @ gap)[system.stiffness.mesh.boundary.inner_nodes]


def two_lift_constant(system) -> float:
    """J's constant term as half the energy of the same gap field."""
    A, data = system.stiffness, system.data
    zero = np.zeros(len(system.stiffness.mesh.boundary.inner_nodes))
    gap = dirichlet_solve(A, data.f, zero) - neumann_solve(A, data.g, zero)
    return 0.5 * float(gap @ (A.matrix @ gap))


def schur_by_block_solve(A, nodes=None) -> np.ndarray:
    """S_NN = A_NN - A_NF A_FF^-1 A_FN on the given boundary nodes N (the
    outer loop by default), F the interior nodes, from a fresh factorization
    of A_FF and one solve per node of N."""
    b = A.mesh.boundary
    nodes = b.outer_nodes if nodes is None else nodes
    interior = np.setdiff1d(np.arange(A.mesh.node_count),
                            np.concatenate([b.outer_nodes, b.inner_nodes]))
    csc = A.matrix.tocsc()
    a_fn = csc[interior][:, nodes].toarray()
    a_nn = csc[nodes][:, nodes].toarray()
    return a_nn - a_fn.T @ splu(csc[interior][:, interior].tocsc()).solve(a_fn)


def colamd_interior_order(A) -> np.ndarray:
    """The interior nodes in the column order of a default (COLAMD)
    factorization of A_FF, F the interior nodes: the bordered factor's
    interior order before the constrained minimum-degree order."""
    b = A.mesh.boundary
    interior = np.setdiff1d(np.arange(A.mesh.node_count),
                            np.concatenate([b.outer_nodes, b.inner_nodes]))
    csc = A.matrix.tocsc()
    factor = splu(csc[interior][:, interior].tocsc())
    return interior[np.argsort(factor.perm_c)]


def splu_at_defaults(*args, relax, panel_size, **kwargs):
    """SciPy's splu at SuperLU's default supernode relaxation and panel
    width: a call from fem, which must pass both, with the two dropped."""
    return splu(*args, **kwargs)


def spilu_at_defaults(*args, relax, panel_size, **kwargs):
    """SciPy's spilu at SuperLU's default supernode relaxation and panel
    width: a call from fem, which must pass both, with the two dropped."""
    return spilu(*args, **kwargs)


def neumann_block_interface(A) -> tuple[np.ndarray, np.ndarray]:
    """S_N and T_g from a Neumann solve of every inner basis function
    (zero flux outside): S_N = (A cols_n)[inner], T_g = -cols_n[outer]' B."""
    b = A.mesh.boundary
    ni = len(b.inner_nodes)
    cols_n = neumann_solve(A, np.zeros((len(b.outer_nodes), ni)), np.eye(ni))
    s_n = (A.matrix @ cols_n)[b.inner_nodes]
    t_g = -flux_load_by_edge(A, cols_n[b.outer_nodes])[b.outer_nodes].T
    return s_n, t_g


@dataclass(frozen=True)
class DenseSchurInterface:
    """The boundary Dirichlet-to-Neumann matrix S (outer loop, then inner
    loop), the Cholesky factor R of its outer block S_OO = R'R and the
    interface operators cut from S, as interface_by_dense_schur built them."""

    s: np.ndarray
    r: np.ndarray
    ops: fem.Interface


def interface_by_dense_schur(A) -> DenseSchurInterface:
    """S, R and the interface operators by the dense path: S as the whole
    Schur complement of the interior on the boundary (`schur_by_block_solve`
    on both loops, from a factor of its own), S_OO Cholesky-factored and
    W = R'^-1 T_f' by a triangular solve.

    FemError unless S is symmetric within 1e-12 relative, S_OO is positive
    definite and the eigenvalue checks of StiffnessMatrix.interface hold.
    ValueError on a mesh without an inner loop.
    """
    b = A.mesh.boundary
    if len(b.inner_nodes) == 0:
        raise ValueError("a weighted-Neumann solve or interface system "
                         "requires an inner boundary")
    s = schur_by_block_solve(A, np.concatenate([b.outer_nodes, b.inner_nodes]))
    asym = np.abs(s - s.T).max()
    if asym > 1e-12 * np.abs(s).max():
        raise FemError(f"assemble: boundary Dirichlet-to-Neumann matrix "
                       f"asymmetry {asym:.3e} exceeds 1e-12 relative")
    s = 0.5 * (s + s.T)

    no = len(b.outer_nodes)
    try:
        r = cholesky(s[:no, :no])
    except np.linalg.LinAlgError as exc:
        raise FemError(f"assemble: S_OO is not positive definite: {exc}") from exc
    s_d = s[no:, no:].copy()
    t_f = -s[no:, :no]
    # with S_OO = R'R and W = R'^-1 T_f': S_N = S_D - W'W, and
    # T_g = -(B S_OO^-1 T_f')' = -(B R^-1 W)', B being symmetric
    w = solve_triangular(r, t_f.T, trans="T")
    s_n = s_d - w.T @ w
    s_n = 0.5 * (s_n + s_n.T)
    t_g = -(A.outer_mass @ solve_triangular(r, w)).T
    try:
        eigvals, eigvecs = eigh(s_n, s_d)
    except np.linalg.LinAlgError as exc:
        raise FemError(f"S_D is not positive definite: {exc}") from exc
    if 1.0 - eigvals[-1] < -1e-10:
        raise FemError(
            f"S_D - S_N is indefinite: generalized eigenvalue "
            f"{eigvals[-1]:.12g} exceeds 1 + 1e-10")
    return DenseSchurInterface(s, r, fem.Interface(
        s_d, s_n, eigvals, eigvecs, 0.5 * (1.0 - eigvals), t_f, t_g))


def sweep_by_epsilon(system, grid) -> LCurve:
    """The L-curve points (no corner) one epsilon at a time, each with its
    own near-singular test, V'l and dot products, as sweep computed them
    before its one array pass; RuntimeError below 5 points."""
    grid = np.asarray(grid, dtype=float)
    ops = system.stiffness.interface
    lam, V = ops.eigvals, ops.eigvecs
    constant = system.constant_term
    eps_ok, js, rds, dropped = [], [], [], []
    for eps in grid.tolist():
        d = 1.0 + eps - lam
        d_min, d_max = d.min(), d.max()
        if not d_min > len(system.load) * np.finfo(float).eps * d_max:
            with np.errstate(divide="ignore"):
                condition = d_max / abs(d_min)
            dropped.append((eps, f"interface system at epsilon {eps:g} is "
                                 f"near singular: smallest 1 + eps - lambda "
                                 f"is {d_min:.3e}, condition {condition:.3e}"))
            continue
        c = V.T @ system.load
        a = c / d
        eps_ok.append(eps)
        js.append(float(0.5 * ((1.0 - lam) * a) @ a - c @ a + constant))
        rds.append(0.5 * float(a @ a))
    if len(eps_ok) < 5:
        raise RuntimeError(
            f"only {len(eps_ok)} sweep points succeeded; need at least 5")
    return LCurve(np.array(eps_ok), np.array(js), np.array(rds), dropped=dropped)


@dataclass
class EagerCompletionResult:
    """solve_completion's result as it was before its diagnostics were
    deferred: R_D and the residual come with the solve, J on first read."""

    u_opt: np.ndarray
    R_D: float
    epsilon: float
    residual_norm: float
    system: KVSystem = field(repr=False)
    _J_less_constant: float = field(repr=False)

    @cached_property
    def J(self) -> float:
        return float(self._J_less_constant + self.system.constant_term)

    @property
    def J_eps(self) -> float:
        return self.J + self.epsilon * self.R_D


def _spectral(system: KVSystem, epsilon):
    """(a, J - C, R_D) of the closed-form optimum, in one pass."""
    ops = system.stiffness.interface
    c = ops.eigvecs.T @ system.load
    a = 1.0 + epsilon - ops.eigvals
    np.divide(c, a, out=a)
    terms = ops.weights * a
    terms -= c
    terms *= a
    J_less_constant = np.add.reduce(terms, axis=-1)
    np.multiply(a, a, out=terms)
    return a, J_less_constant, 0.5 * np.add.reduce(terms, axis=-1)


def solve_completion_eager(system: KVSystem, epsilon: float,
                           data: CauchyData | None = None) -> EagerCompletionResult:
    """solve_completion as it ran before its diagnostics were deferred: u,
    R_D, J less its constant term and the residual on every call."""
    epsilon = float(epsilon)
    if not 0.0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if data is not None and data is not system.data:
        A = system.stiffness
        system = assemble_kv(A.mesh, A, data)
    resolved, d_min, d_max = _resolved(system, epsilon)
    if not resolved:
        raise NearSingularError(_near_singular(epsilon, d_min, d_max))
    a, J_less_constant, R_D = _spectral(system, epsilon)
    ops = system.stiffness.interface
    u = ops.eigvecs @ a
    # each norm as sqrt(x @ x), bitwise what np.linalg.norm returns
    load = system.load
    r = ops.s_d @ u
    r *= 1.0 + epsilon
    r -= ops.s_n @ u
    r -= load
    residual = math.sqrt(r @ r) / (math.sqrt(load @ load) or 1.0)
    return EagerCompletionResult(u, float(R_D), epsilon, residual, system,
                                 float(J_less_constant))


def check_grid_in_order(eps_grid: np.ndarray) -> np.ndarray:
    """The sweep's grid check as it ran before its one-comparison fast
    path: each rule a pass of its own, in order of precedence."""
    grid = np.asarray(eps_grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 5:
        raise ValueError("eps_grid must hold at least 5 values")
    if not np.all(np.isfinite(grid)):
        raise ValueError("eps_grid values must be finite")
    if np.any(grid <= 0.0):
        raise ValueError("eps_grid values must be positive")
    # a step up, a tie, or values closer than 1e-9 relative, over which the
    # corner's second differences are roundoff
    close = grid[1:] > (1.0 - 1e-9) * grid[:-1]
    if close.any():
        if np.any(np.diff(grid) >= 0.0):
            raise ValueError("eps_grid must be sorted strictly decreasing")
        hi, lo = grid[close.argmax():][:2].tolist()
        raise ValueError(f"eps_grid values {hi!r} and {lo!r} differ by less "
                         "than 1e-9 relative")
    return grid


def find_corner_by_coordinate(curve: LCurve) -> float:
    """The L-curve corner as find_corner found it before it stacked the two
    log coordinates: each of log J and log R_D an array of its own."""
    if len(curve) < 5:
        raise ValueError("corner detection needs at least 5 points")
    x = np.log(np.maximum(curve.misfits, 1e-300))
    y = np.log(np.maximum(curve.regularizers, 1e-300))

    p0 = np.array([x[0], y[0]])
    pn = np.array([x[-1], y[-1]])
    chord = pn - p0
    span = max(np.linalg.norm(chord), np.ptp(x) + np.ptp(y), 1e-300)
    offsets = np.abs((x - p0[0]) * chord[1] - (y - p0[1]) * chord[0]) / span
    if offsets.max() < 1e-12 * span:
        raise DegenerateCurveError("log-log L-curve points are collinear")

    xp = 0.5 * (x[2:] - x[:-2])
    yp = 0.5 * (y[2:] - y[:-2])
    xpp = x[2:] - 2.0 * x[1:-1] + x[:-2]
    ypp = y[2:] - 2.0 * y[1:-1] + y[:-2]
    speed = np.maximum((xp ** 2 + yp ** 2) ** 1.5, 1e-300)
    curvature = np.abs(xp * ypp - yp * xpp) / speed

    # epsilons are decreasing, so the first argmax is the largest epsilon
    curve.corner_index = int(np.argmax(curvature)) + 1
    return curve.corner_epsilon


# ---------------------------------------------------------------------------
# checks the pipeline does not run
# ---------------------------------------------------------------------------

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


def evaluate(system: KVSystem, data: CauchyData, u, epsilon: float = 0.0):
    """Misfit J, regularizer R_D and total J_eps at a given control.

    J is computed by the direct volume integral (two solves plus the energy
    norm), not through the quadratic form, so it is the reference for the
    identity J(v) = (s_D(v,v) - s_N(v,v))/2 - l(v) + c and for the closed
    form of solve_completion.  R_D = s_D(u, u) / 2 uses the interface
    matrix, which equals the lifted field's energy exactly (the lift pairs
    against itself).
    """
    u = fem._boundary_values(u, len(system.load), "u")
    A = system.stiffness
    psi_d = fem.solve_dirichlet(A, data.f, u)
    psi_n = fem.solve_neumann(A, data.g, u)
    J = 0.5 * energy_norm_sq(psi_d, psi_n, A)
    R_D = 0.5 * float(u @ (system.stiffness.interface.s_d @ u))
    return J, R_D, J + epsilon * R_D


def quadratic_misfit(system: KVSystem, u) -> float:
    """J through the interface quadratic form: v'(S_D - S_N)v/2 - l'v + c."""
    u = fem._boundary_values(u, len(system.load), "u")
    ops = system.stiffness.interface
    return float(0.5 * u @ ((ops.s_d - ops.s_n) @ u) - system.load @ u
                 + system.constant_term)


def optimality_residual(system: KVSystem, u_opt, epsilon: float,
                        data: CauchyData | None = None) -> np.ndarray:
    """Inner-boundary flux mismatch at a control; near zero at the optimum.

    Recovers the weighted normal derivatives of the Dirichlet solution, the
    Neumann solution and the regularizing Dirichlet lift by fresh solves, so
    it checks the optimality condition independently of the assembled
    interface matrices.
    """
    if data is None:
        data = system.data
    A = system.stiffness
    u_opt = fem._boundary_values(u_opt, len(system.load), "u_opt")
    psi_d = fem.solve_dirichlet(A, data.f, u_opt)
    psi_n = fem.solve_neumann(A, data.g, u_opt)
    psi_d0 = fem.solve_dirichlet(A, 0.0, u_opt)
    return (weighted_normal_derivative(psi_d, A, INNER)
            - weighted_normal_derivative(psi_n, A, INNER)
            + epsilon * weighted_normal_derivative(psi_d0, A, INNER))


def encircles(iso: Isoline, point) -> bool:
    """True if some closed polyline winds around the given point."""
    for poly, is_closed in zip(iso.polylines, iso.polyline_closed):
        if is_closed and points_in_polygon(
                np.asarray(point, dtype=float)[None, :], poly[:-1])[0]:
            return True
    return False
