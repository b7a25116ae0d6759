"""Physical outputs from a reconstructed flux.

Isoflux contours by marching triangles, and the plasma-boundary level
search, both read off the field at the two ends of every edge of the mesh's
edge table (README's design paragraph walks through both).  The boundary
level is the join level of the two walls in the field's join tree, which
lives on the vertices and edges of the mesh (Carr, Snoeyink & Axen, Comput.
Geom. 24(2), 2003); `_bottleneck_level` computes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import FluxField, Mesh, chain_walk, points_in_polygon


class EmptyIsolineError(ValueError):
    """Requested level lies outside the field range on every triangle."""


class NoTransitionError(RuntimeError):
    """No closed-to-open contour transition: no X-point level in the domain."""


@dataclass
class Isoline:
    """One flux level's contour as chained polylines.

    closed is True when every chained polyline is a closed loop.
    """

    level: float
    polylines: list = field(default_factory=list)
    polyline_closed: list = field(default_factory=list)
    closed: bool = False


def extract_isoline(fld: FluxField, level: float) -> Isoline:
    """Marching triangles with exact per-edge linear interpolation.

    A level hitting a nodal value exactly is perturbed upward by
    1e-12 * (flux range), and by at least one ulp, to avoid degenerate
    crossings.  Crossing points are computed once per mesh edge, so shared
    endpoints match bit-exactly and segments chain into polylines without
    tolerance games.  The crossed edges are numbered in the order the
    triangle list first reaches them, and `chain_walk` chains them: open
    polylines first, from their ends on the boundary, then closed ones.
    """
    values = fld.values
    return _isoline(fld, level, (values.min(), values.max()),
                    _edge_ends(fld.mesh, values))


def _edge_ends(mesh: Mesh, values: np.ndarray) -> tuple:
    """The values at the lower and at the higher node of every edge."""
    return values[mesh.edges.nodes[:, 0]], values[mesh.edges.nodes[:, 1]]


def _isoline(fld: FluxField, level: float, span: tuple, ends: tuple) -> Isoline:
    """`extract_isoline(fld, level)`, given the field's (min, max) and `_edge_ends`.

    The crossed triangles are the sides of the crossed edges; each holds
    two of them, taken in its local edge order.
    """
    values = fld.values
    vmin, vmax = float(span[0]), float(span[1])
    if not (vmin <= level <= vmax):
        raise EmptyIsolineError(
            f"level {level} outside field range [{vmin}, {vmax}]")
    rng = max(vmax - vmin, 1e-300)
    lev = float(level)
    while np.any(values == lev):
        lev = max(lev + 1e-12 * rng, np.nextafter(lev, np.inf))

    crossed = (ends[0] < lev) != (ends[1] < lev)
    rows = np.flatnonzero(crossed)
    iso = Isoline(level=float(level))
    if len(rows) == 0:
        return iso

    e = fld.mesh.edges
    # every crossed triangle is listed twice, after the -1 of each crossed
    # boundary edge
    sides = np.sort(e.triangles[rows], axis=None)
    tri_rows = e.triangle_rows[sides[np.count_nonzero(sides < 0)::2]]
    seg_rows = tri_rows[crossed[tri_rows]]
    _, first, inverse = np.unique(seg_rows, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)                   # ids by first appearance
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    links = rank[inverse].reshape(-1, 2)
    lo, hi = e.nodes[rows[order]].T
    va, vb = values[lo], values[hi]
    t = ((lev - va) / (vb - va))[:, None]
    points = (1.0 - t) * fld.mesh.nodes[lo] + t * fld.mesh.nodes[hi]

    for path, is_closed in chain_walk(links):
        iso.polylines.append(points[path + path[:1] if is_closed else path])
        iso.polyline_closed.append(is_closed)
    iso.closed = all(iso.polyline_closed)
    return iso


# ---------------------------------------------------------------------------
# plasma boundary search
# ---------------------------------------------------------------------------

def _bottleneck_level(mesh: Mesh, ends: tuple) -> float:
    """Highest level at which {values > level} joins the two walls.

    On the node graph, two nodes are joined above a level when both ends of
    their mesh edge exceed it: the above-level vertices of a triangle are
    joined by its edges, and the P1 superlevel set crosses from one triangle
    to the next exactly through such a vertex, so this is the connectivity
    of the superlevel set.  A source is linked to the inner-boundary nodes
    and a sink to the outer-boundary nodes, each link weighted by its node's
    value, and each edge by its lower node's value.  The returned level B
    is the max-min weight over source-sink paths, so the inner-attached
    region at a level L escapes through the wall exactly when B > L.  It is
    the weight at which Kruskal's sweep, uniting the ends of each edge from
    the top weight down, first unites the source and the sink; -inf when it
    never does.

    With the nodes ordered by value, the lower index higher on a tie, and
    the walls above every node, each node's edge to a higher neighbour is
    the one Kruskal takes while the node is still alone, so these uphill
    edges are taken in one array step, by pointer jumping to the top of
    each basin, and the rest are taken one basin pair at a time, by the top
    edge between the pair.  `ends` are the values' `_edge_ends`.
    """
    a, b = mesh.edges.nodes.T                     # a < b: a is higher on ties
    a_higher = ends[0] >= ends[1]
    lo, hi = np.where(a_higher, b, a), np.where(a_higher, a, b)
    n = mesh.node_count
    source, sink = n, n + 1
    up = np.arange(n + 2)
    up[lo] = hi
    up[mesh.boundary.inner_nodes] = source
    up[mesh.boundary.outer_nodes] = sink
    while True:                                   # pointer jumping to the roots
        root = up[up]
        if np.array_equal(root, up):
            break
        up = root
    cross = np.flatnonzero(root[a] != root[b])
    weights = np.minimum(ends[0][cross], ends[1][cross])
    order = np.argsort(-weights)                  # top first, ties in any order
    u, v = root[lo[cross]][order], root[hi[cross]][order]
    # the first edge of each basin pair in that order is its top edge
    pairs = np.minimum(u, v) * (n + 2) + np.maximum(u, v)
    by_pair = np.argsort(pairs)
    pairs = pairs[by_pair]
    run_start = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=run_start[1:])
    top = np.sort(np.minimum.reduceat(by_pair, np.flatnonzero(run_start)))
    joined = {}                                   # basin -> a basin it joined

    def find(x):
        while x in joined:
            joined[x] = joined.get(joined[x], joined[x])    # path halving
            x = joined[x]
        return x

    start, size = 0, 64             # the loop mostly stops early, so the top
    while start < len(top):         # edges go to Python in doubling chunks
        chunk = top[start:start + size]
        start, size = start + size, 2 * size
        for p, q, level in zip(u[chunk].tolist(), v[chunk].tolist(),
                               weights[order[chunk]].tolist()):
            p, q = find(p), find(q)
            if p != q:
                joined[p] = q
                if find(source) == find(sink):
                    return level
    return -np.inf


def find_plasma_boundary(fld: FluxField, mesh: Mesh | None = None,
                         limiter: np.ndarray | None = None):
    """Plasma boundary flux value and its isoline.

    A field whose inner trace is lower on average than its outer one is
    negated, so that the plasma (inner) side is high, and the value and the
    isoline level are negated back.  There, the inner-attached region of
    {psi > L} is 'open' (escapes through the outer wall) for L below the
    bottleneck level B, 'closed' for B <= L < s_max and 'empty' from s_max,
    the top of the inner-boundary trace, up.  Without a limiter, the
    boundary value is B itself, the level at which the closed flux surfaces
    open to the wall (the X-point level); its isoline is drawn 2e-6 of the
    field range inside the closed band, or halfway across a narrower one.
    With a limiter polyline, the boundary value is the extremal flux sampled
    along the limiter, provided its surface is closed around the inner
    boundary.  A bottleneck within 1e-9 of the field range of the wall
    extreme or of s_max counts as reaching it, so roundoff in a flux-surface
    wall or inner trace does not decide whether an X-point exists.  `mesh`,
    if given, must be the field's own mesh.

    Returns (psi_p, Isoline, mode) with mode 'xpoint' or 'limiter'.  Raises
    NoTransitionError when the closed state never occurs (every level's
    contour escapes, or none does), meaning no X-point exists in the domain;
    ValueError for another mesh or a non-finite limiter coordinate.
    """
    if mesh is not None and mesh is not fld.mesh:
        raise ValueError("mesh is not the field's mesh")
    if limiter is not None:
        limiter = np.asarray(limiter, dtype=float)
        if not np.isfinite(limiter).all():
            raise ValueError("limiter has a non-finite coordinate")
    mesh = fld.mesh
    b = mesh.boundary
    inner_trace = fld.values[b.inner_nodes]
    outer_trace = fld.values[b.outer_nodes]
    if len(inner_trace) == 0:
        raise ValueError("plasma boundary search requires an inner boundary")

    # plasma side: the inner boundary carries the extreme flux.  The search
    # works on the field oriented with the plasma side high; negation is
    # exact, so the level and its isoline are negated back bit for bit
    flip = inner_trace.mean() < outer_trace.mean()
    if flip:
        fld = FluxField(-fld.values, mesh)
        inner_trace, outer_trace = -inner_trace, -outer_trace
    span = fld.values.min(), fld.values.max()
    rng = float(span[1] - span[0])
    margin = 1e-9 * rng
    ends = _edge_ends(mesh, fld.values)
    bottleneck = _bottleneck_level(mesh, ends)
    s_max = float(inner_trace.max())

    if limiter is not None:
        mode, level = "limiter", float(_sample_field(fld, limiter).max())
        if not bottleneck <= level + margin < s_max:
            raise NoTransitionError(
                "no closed flux surface encircling the inner boundary "
                "inside the limiter")
        iso = _isoline(fld, level + margin, span, ends)
    else:
        lo = float(outer_trace.min())
        if bottleneck <= lo + margin:
            state = "closed" if lo < s_max else "empty"
            raise NoTransitionError(
                f"contours never escape through the outer wall (state {state!r} "
                "at the wall extreme); no X-point in the domain")
        if bottleneck >= s_max - margin:
            raise NoTransitionError(
                "the inner-attached flux region is never closed: contours are "
                "open at every level; no X-point in the domain")
        mode, level = "xpoint", bottleneck
        inside = min(2e-6 * rng, 0.5 * (s_max - bottleneck))
        iso = _isoline(fld, bottleneck + inside, span, ends)
    if flip:
        level, iso.level = -level, -iso.level
    return level, iso, mode


def _sample_field(fld: FluxField, polyline: np.ndarray) -> np.ndarray:
    """P1 field values at points of a polyline (subdivided per segment).

    Each point takes the lowest-index triangle whose barycentric coordinates
    pass a 1e-12 tolerance.  Its candidates are the triangles listed in its
    cell of the mesh's triangle grid, which misses none: a triangle that
    passes the test has a padded bounding box holding the point, and is
    listed, in ascending order, in every cell that box meets.  So the first
    candidate that passes is the point's triangle.  Only the points that no
    triangle holds are tested against the loops: one outside the outer
    boundary raises, one inside the inner hole is skipped, and any other
    lies outside the mesh and raises.  A point on a loop, within the
    tolerance, is held by a triangle and sampled.  The polyline's vertices
    beyond the grid, which no triangle holds, take the outer-loop test
    before it is subdivided, so a far vertex raises without being cut into
    countless points.
    """
    mesh = fld.mesh
    bidx = mesh.boundary
    outer = mesh.nodes[bidx.outer_nodes]
    grid = mesh._triangle_grid
    beyond = polyline[~grid.covers(polyline)]
    if len(beyond) and not points_in_polygon(beyond, outer).all():
        raise ValueError("limiter leaves the outer boundary")
    h = mesh.max_edge_length
    step = np.roll(polyline, -1, axis=0) - polyline
    # one dot product per segment, rounded as np.linalg.norm rounds one vector
    length = np.sqrt(step[:, None, :] @ step[:, :, None]).ravel()
    n = np.maximum(1, np.ceil(length / (0.5 * h))).astype(np.int64)
    seg = np.repeat(np.arange(len(polyline)), n)
    k = np.arange(len(seg)) - (np.cumsum(n) - n)[seg]
    pts = polyline[seg] + (k / n[seg])[:, None] * step[seg]

    pi, ti = grid.candidates(pts)
    tri_pts = mesh.nodes[mesh.triangles[ti]]
    v0 = tri_pts[:, 0]
    d1 = tri_pts[:, 1] - v0
    d2 = tri_pts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    rel = pts[pi] - v0
    l1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
    ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)

    # the pairs come by point and then triangle: a point's first hit is its
    # lowest-index containing triangle
    hits = np.flatnonzero(ok)
    first = hits[np.diff(pi[hits], prepend=-1) != 0]
    located = np.zeros(len(pts), dtype=bool)
    located[pi[first]] = True
    loose = pts[~located]
    if len(loose):
        if not points_in_polygon(loose, outer).all():
            raise ValueError("limiter leaves the outer boundary")
        if len(bidx.inner_nodes):
            loose = loose[~points_in_polygon(loose,
                                             mesh.nodes[bidx.inner_nodes])]
    if len(first) == len(loose) == 0:
        raise ValueError("limiter lies entirely inside the plasma hole")
    if len(loose):
        raise ValueError(f"limiter point {loose[0]} is outside the mesh")
    vals = fld.values[mesh.triangles[ti[first]]]
    l1, l2 = l1[first], l2[first]
    return vals[:, 0] * (1 - l1 - l2) + vals[:, 1] * l1 + vals[:, 2] * l2
