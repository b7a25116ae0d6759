"""Annular triangulations with tagged boundary loops.

The computational domain is the region between two closed polylines in the
(r, z) half-plane: an outer loop (the vessel wall, where Cauchy data live)
and an inner loop (the fictitious contour where the unknown Dirichlet value
is sought).  Single-loop meshes (no inner hole) are also accepted; they are
useful for auxiliary verification domains.

Meshes are plain node/triangle/boundary-edge arrays, immutable after
construction, with a line-oriented text serialization that round-trips
coordinates bit-exactly.  Its text-format section owns the rules of every
text file of the package (mesh, CSV, CLI config): a line reader, a block
parser in which numpy's C reader alone decides what is a number (one call
a block, the first bad row named as ``path:line``), and a row writer.
Validation builds, once per mesh, the table of unique edges with their
triangles and the edges of each triangle, and chains each boundary loop
once; the post-processing reads the table instead of rebuilding edge maps.
One walk over graphs of degree at most 2 (`chain_walk`) chains both
the boundary loops and the isoflux contours.  The ring-ladder generator is
array code: one stable merge of sorted angles stitches each band between
two rings; it refuses a mesh of over `_MAX_NODES` nodes before making any
array of that size, and the reference meshes are built by it here.

The arrays that live on a mesh, a nodal flux (`FluxField`, with `trace`
and `interpolate`) and the outer-loop Cauchy data (`CauchyData`), are
defined here too, as they solve nothing.  The module imports no other
module of the package, and needs numpy alone.
"""

from __future__ import annotations

import bisect
import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

OUTER = "outer"
INNER = "inner"


class MeshFormatError(ValueError):
    """Malformed mesh or CSV file: bad header, row, token or index."""


class MeshValidationError(ValueError):
    """Mesh arrays violate a structural invariant."""


class MeshTopologyError(MeshValidationError):
    """Boundary edges of one label do not chain into a single closed loop."""


class MeshGeometryError(ValueError):
    """Input loops unsuitable for meshing (intersecting, degenerate, ...)."""


# ---------------------------------------------------------------------------
# polygon helpers
# ---------------------------------------------------------------------------

def polygon_area(loop: np.ndarray) -> float:
    """Signed shoelace area of a closed polyline given without repeated endpoint."""
    loop = np.asarray(loop, dtype=float)
    r, z = loop[:, 0], loop[:, 1]
    rn, zn = np.roll(r, -1), np.roll(z, -1)
    return 0.5 * float(np.sum(r * zn - rn * z))


def polygon_centroid(loop: np.ndarray) -> np.ndarray:
    """Area centroid of a simple closed polyline (vertices not repeated)."""
    loop = np.asarray(loop, dtype=float)
    r, z = loop[:, 0], loop[:, 1]
    rn, zn = np.roll(r, -1), np.roll(z, -1)
    cross = r * zn - rn * z
    area = 0.5 * np.sum(cross)
    if abs(area) < 1e-300:
        raise MeshGeometryError("degenerate polygon: zero area")
    cr = np.sum((r + rn) * cross) / (6.0 * area)
    cz = np.sum((z + zn) * cross) / (6.0 * area)
    return np.array([cr, cz])


def points_in_polygon(points: np.ndarray, loop: np.ndarray) -> np.ndarray:
    """Ray-casting point-in-polygon test, vectorized over query points."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    loop = np.asarray(loop, dtype=float)
    x, y = points[:, 0][:, None], points[:, 1][:, None]
    x1, y1 = loop[:, 0][None, :], loop[:, 1][None, :]
    x2, y2 = np.roll(loop[:, 0], -1)[None, :], np.roll(loop[:, 1], -1)[None, :]
    straddle = (y1 > y) != (y2 > y)
    # a row the point does not straddle may divide by zero, or overflow for
    # a point near the float limit; the straddle mask drops those rows
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xcross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
    hits = straddle & (x < xcross)
    return np.sum(hits, axis=1) % 2 == 1


def distance_to_polyline(points: np.ndarray, loop: np.ndarray) -> np.ndarray:
    """Min distance from each query point to a closed polyline."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(loop, dtype=float)
    b = np.roll(a, -1, axis=0)
    ab = b - a                                    # (m, 2)
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    ap = points[:, None, :] - a[None, :, :]       # (n, m, 2)
    t = np.clip(np.einsum("nmj,mj->nm", ap, ab) / denom, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(points[:, None, :] - proj, axis=2)
    return d.min(axis=1)


def _segments_intersect(p1, p2, q1, q2) -> np.ndarray:
    """Proper-intersection test between segment batches (broadcast over pairs)."""
    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))


def loops_intersect(loop_a: np.ndarray, loop_b: np.ndarray) -> bool:
    """True if any edge of loop_a properly crosses any edge of loop_b."""
    a1 = np.asarray(loop_a, dtype=float)
    a2 = np.roll(a1, -1, axis=0)
    b1 = np.asarray(loop_b, dtype=float)
    b2 = np.roll(b1, -1, axis=0)
    hits = _segments_intersect(a1[:, None, :], a2[:, None, :],
                               b1[None, :, :], b2[None, :, :])
    return bool(hits.any())


def scale_toward_centroid(loop: np.ndarray, factor: float) -> np.ndarray:
    """Shrink a loop toward its own area centroid by the given factor."""
    loop = np.asarray(loop, dtype=float)
    c = polygon_centroid(loop)
    return c + factor * (loop - c)


def triangle_areas(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Signed areas, positive for counter-clockwise triangles."""
    p = nodes[triangles]
    return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                  - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))


# ---------------------------------------------------------------------------
# mesh container and validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of an annular (or simply connected) domain.

    Attributes
    ----------
    nodes : (N, 2) float array
        Node coordinates (r, z) in meters, r > 0.
    triangles : (M, 3) int array
        Counter-clockwise vertex triples.
    boundary_edges : (K, 2) int array
        Node pairs lying on the domain boundary.
    boundary_labels : (K,) str array
        One of ``"outer"`` / ``"inner"`` per boundary edge.
    edges : EdgeTable
        Every unique edge with its triangles, built once by validation.
    boundary : BoundaryIndex
        Ordered boundary loops, chained once by validation.

    Points are located through `_triangle_grid`, a uniform cell grid of the
    triangles built on first use and kept with the mesh.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_labels: np.ndarray
    edges: "EdgeTable" = field(init=False, repr=False, compare=False)
    boundary: "BoundaryIndex" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = np.ascontiguousarray(np.asarray(self.nodes, dtype=np.float64))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        edges = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        labels = np.asarray(self.boundary_labels)
        table, outer_loop, inner_loop = validate_mesh(nodes, tris, edges, labels)
        for name, arr in (("nodes", nodes), ("triangles", tris),
                          ("boundary_edges", edges), ("boundary_labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "edges", table)
        outer_loop, outer_arcs = _orient_and_anchor(nodes, outer_loop, ccw=True)
        inner_loop, inner_arcs = _orient_and_anchor(nodes, inner_loop, ccw=False)
        object.__setattr__(self, "boundary", BoundaryIndex(
            outer_loop, inner_loop, outer_arcs, inner_arcs))

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def triangle_count(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def max_edge_length(self) -> float:
        lo, hi = self.edges.nodes.T
        return float(np.max(np.linalg.norm(self.nodes[hi] - self.nodes[lo], axis=1)))

    @cached_property
    def _triangle_grid(self) -> "_TriangleGrid":
        """Uniform cell grid of the triangles, for locating points."""
        return _TriangleGrid.build(self.nodes[self.triangles],
                                  self.max_edge_length)


# cell side of the triangle grid, as a fraction of the longest mesh edge
_GRID_CELL = 0.5
# pad of each triangle's bounding box, as a fraction of the longest mesh
# edge.  A point whose barycentric coordinates are all >= -1e-12 lies
# within 2e-12 box widths of the box, and no box is wider than the longest
# edge: the pad covers that bound 5e5 times over, which leaves room for
# the rounding of the barycentric test on thin triangles
_GRID_PAD = 1e-6


@dataclass(frozen=True)
class _TriangleGrid:
    """Triangles bucketed by the cells of a uniform grid (Akman et al.,
    Computer-Aided Design 21(7), 1989).

    Cell (i, j) is the square `origin + cell * [i, i+1) x [j, j+1)`, with
    flat index `i * shape[1] + j`.  It lists, in ascending order, every
    triangle whose bounding box, padded by `_GRID_PAD` longest edges, meets
    it: `triangles[starts[c]:starts[c + 1]]` (CSR, int32).  The grid spans
    the padded boxes, from `origin` to `corner`; a point outside that span
    lies in no triangle.  A point's cell is computed from its coordinates
    by the same rounding as the boxes' cells, which is monotone, so a point
    inside a padded box falls in one of that box's cells.
    """

    origin: np.ndarray
    corner: np.ndarray
    cell: float
    shape: tuple
    starts: np.ndarray
    triangles: np.ndarray

    @classmethod
    def build(cls, corners: np.ndarray, h: float) -> "_TriangleGrid":
        """Grid of the (M, 3, 2) triangle `corners`, whose longest edge is h."""
        pad = _GRID_PAD * h
        lo = np.minimum(np.minimum(corners[:, 0], corners[:, 1]), corners[:, 2]) - pad
        hi = np.maximum(np.maximum(corners[:, 0], corners[:, 1]), corners[:, 2]) + pad
        origin, corner = lo.min(axis=0), hi.max(axis=0)
        # at most about four cells per triangle, should a thin mesh span
        # far more cells of side h / 2 than it has triangles
        cell = max(_GRID_CELL * h,
                   math.sqrt(np.prod(corner - origin) / (4 * len(corners))))
        first = np.floor((lo - origin) / cell).astype(np.int64)
        span = np.floor((hi - origin) / cell).astype(np.int64) - first + 1
        shape = tuple(int(k) for k in (first + span).max(axis=0))
        # one key (cell, triangle) per cell of each box, taken by offset
        # from the box's first cell, and sorted by cell and then triangle
        m = len(corners)
        keys = []
        for di in range(span[:, 0].max()):
            for dj in range(span[:, 1].max()):
                t = np.flatnonzero((span[:, 0] > di) & (span[:, 1] > dj))
                keys.append(((first[t, 0] + di) * shape[1] + first[t, 1] + dj) * m + t)
        key = np.concatenate(keys)
        key.sort()
        starts = np.zeros(shape[0] * shape[1] + 1, dtype=np.int32)
        np.cumsum(np.bincount(key // m, minlength=len(starts) - 1),
                  out=starts[1:])
        return cls(origin, corner, cell, shape, starts,
                   (key % m).astype(np.int32))

    def covers(self, points: np.ndarray) -> np.ndarray:
        """Whether each point lies within the grid's span."""
        return ((points >= self.origin) & (points <= self.corner)).all(axis=1)

    def candidates(self, points: np.ndarray) -> tuple:
        """(point, triangle) index pairs: each point with its cell's
        triangles, by point and then triangle.  A point beyond the span
        takes the nearest cell, none of whose triangles holds it."""
        ij = np.floor((points - self.origin) / self.cell)
        np.clip(ij, 0, np.subtract(self.shape, 1), out=ij)    # before the cast
        ij = ij.astype(np.int64)
        cells = ij[:, 0] * self.shape[1] + ij[:, 1]
        start = self.starts[cells]
        count = self.starts[cells + 1] - start
        pi = np.repeat(np.arange(len(points)), count)
        offset = np.repeat(start - (np.cumsum(count) - count), count)
        return pi, self.triangles[np.arange(len(pi)) + offset]


@dataclass(frozen=True)
class EdgeTable:
    """Unique edges of a triangulation, one row each, sorted by node pair.

    Attributes
    ----------
    nodes : (E, 2) int array
        Node pairs, lower index first, rows in lexicographic order; stored
        column by column (Fortran order), so each end is contiguous.
    triangles : (E, 2) int array
        The triangles holding each edge, in triangle order; -1 for the
        missing second one of a boundary edge.
    triangle_rows : (M, 3) int array
        Row of each triangle's edges (a, b), (b, c), (c, a), for its
        vertices (a, b, c).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    triangle_rows: np.ndarray


def build_edge_table(triangles: np.ndarray, boundary_edges: np.ndarray) -> EdgeTable:
    """Edge table of a triangulation with its labeled boundary edges.

    Raises MeshValidationError when a boundary edge is listed twice, an edge
    is shared by more than two triangles, an edge of one triangle is
    unlabeled, an edge of two triangles is labeled, or a labeled edge is no
    triangle edge; checked in that order, and within the middle three the
    edge that the triangle list reaches first is reported.
    """
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    blo = np.minimum(boundary_edges[:, 0], boundary_edges[:, 1])
    bhi = np.maximum(boundary_edges[:, 0], boundary_edges[:, 1])
    base = int(max(hi.max(initial=0), bhi.max(initial=0))) + 1
    bcodes = blo * base + bhi

    border = np.argsort(bcodes, kind="stable")
    repeats = border[1:][bcodes[border[1:]] == bcodes[border[:-1]]]
    if len(repeats):
        i = repeats.min()
        raise MeshValidationError(
            f"boundary edge {(int(blo[i]), int(bhi[i]))} listed twice")

    # the stable sort keeps each edge's uses in triangle order, so the first
    # use of a run is where the triangle list reaches the edge
    codes = lo * base + hi
    order = np.argsort(codes, kind="stable")
    starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
    counts = np.diff(np.r_[starts, len(order)])
    first = order[starts]
    unique_codes = codes[first]
    rows = np.searchsorted(unique_codes, bcodes)
    matched = np.r_[unique_codes, -1][rows] == bcodes    # -1 is no edge's code
    labeled = np.zeros(len(starts), dtype=bool)
    labeled[rows[matched]] = True

    bad = (counts > 2) | ((counts == 1) & ~labeled) | ((counts == 2) & labeled)
    if bad.any():
        k = np.flatnonzero(bad)[np.argmin(first[bad])]
        key = (int(lo[first[k]]), int(hi[first[k]]))
        if counts[k] > 2:
            raise MeshValidationError(f"edge {key} shared by {counts[k]} triangles")
        if counts[k] == 1:
            raise MeshValidationError(f"edge {key} is on the boundary but unlabeled")
        raise MeshValidationError(f"interior edge {key} carries a boundary label")
    if not matched.all():
        i = int(np.argmin(matched))
        raise MeshValidationError(
            f"boundary edge {(int(blo[i]), int(bhi[i]))} is not a triangle edge")

    nodes = np.stack([lo[first], hi[first]]).T       # contiguous columns
    # a run's uses are in triangle order, and use k lies in triangle k // 3
    uses = np.r_[order // 3, -1]
    triangles = np.column_stack([uses[starts],
                                 np.where(counts == 2, uses[starts + 1], -1)])
    triangle_rows = np.empty(len(order), dtype=np.int64)
    triangle_rows[order] = np.repeat(np.arange(len(starts)), counts)
    triangle_rows = triangle_rows.reshape(-1, 3)
    for arr in (nodes, triangles, triangle_rows):
        arr.setflags(write=False)
    return EdgeTable(nodes, triangles, triangle_rows)


def chain_walk(links: np.ndarray) -> list[tuple[list[int], bool]]:
    """Walk a graph of degree at most 2 into its paths and cycles.

    links is a (K, 2) array of vertex pairs; the vertices are 0..n-1 and
    each is an end of some link.  Paths come first, walked from their
    degree-1 ends in ascending order, then cycles, each from its lowest
    vertex not yet visited; every step takes the lowest-index unused link.
    Returns (vertices, closed) per chain; a cycle's start is not repeated.
    """
    ends = np.asarray(links, dtype=np.int64).ravel()
    degree = np.bincount(ends)
    start = np.cumsum(degree) - degree
    # each vertex's links in index order, then a -1 sentinel
    by_vertex = np.r_[np.argsort(ends, kind="stable") // 2, -1]
    first = by_vertex[start]
    second = np.where(degree == 2, by_vertex[start + 1], -1)
    # a link leads from v to link_sum[link] - v; arriving at w by a link,
    # the next is both_links[w] - link, which is -1 at a path's end
    link_sum = (ends[0::2] + ends[1::2]).tolist()
    both_links = (first + second).tolist()
    first = first.tolist()
    seen = [False] * len(degree)
    chains = []

    def walk(v):
        path, link = [v], first[v]
        seen[v] = True
        while True:
            w = link_sum[link] - v
            if w == path[0]:
                return path, True
            path.append(w)
            seen[w] = True
            v, link = w, both_links[w] - link
            if link < 0:
                return path, False

    for v in np.flatnonzero(degree == 1).tolist():
        if not seen[v]:
            chains.append(walk(v))
    for v in range(len(degree)):
        if not seen[v]:
            chains.append(walk(v))
    return chains


def chain_loop(edges: np.ndarray, label: str) -> np.ndarray:
    """Chain undirected edges into one closed simple loop of node indices,
    from the lowest node along its first listed edge.

    Raises MeshTopologyError if the edges do not form exactly one cycle.
    """
    if len(edges) < 3:
        raise MeshTopologyError(f"boundary '{label}': fewer than 3 edges")
    nodes, ids = np.unique(edges, return_inverse=True)
    ids = ids.ravel()
    degree = np.bincount(ids)
    bad = degree[ids] != 2
    if bad.any():
        k = ids[np.argmax(bad)]               # the bad node listed first
        raise MeshTopologyError(
            f"boundary '{label}': node {nodes[k]} has degree {degree[k]}, expected 2")
    chains = chain_walk(ids.reshape(-1, 2))
    if len(chains) > 1:
        raise MeshTopologyError(
            f"boundary '{label}': {len(edges)} edges chain into a loop of "
            f"{len(chains[0][0])} nodes; multiple components?")
    return nodes[chains[0][0]]


def validate_mesh(nodes, triangles, edges, labels) -> tuple:
    """Check all structural mesh invariants, raising on the first violation.

    Returns the edge table and the outer and inner loops of node indices
    (the inner one empty without an inner boundary), which the checks build.
    """
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise MeshValidationError("nodes must be (N, 2)")
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise MeshValidationError("triangles must be (M, 3)")
    if len(edges) != len(labels):
        raise MeshValidationError("boundary edge/label count mismatch")
    n = nodes.shape[0]
    if triangles.size and (triangles.min() < 0 or triangles.max() >= n):
        raise MeshValidationError("triangle node index out of range")
    if len(edges) and (edges.min() < 0 or edges.max() >= n):
        raise MeshValidationError("boundary edge node index out of range")
    if not np.all(np.isfinite(nodes)):
        raise MeshValidationError("non-finite node coordinate")
    if np.any(nodes[:, 0] <= 0.0):
        bad = int(np.argmin(nodes[:, 0]))
        raise MeshValidationError(
            f"node {bad} has r = {nodes[bad, 0]} <= 0; the 1/r weight requires r > 0")
    areas = triangle_areas(nodes, triangles)
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshValidationError(
            f"triangle {bad} has non-positive area {areas[bad]}; "
            "vertices must be counter-clockwise")
    unknown = set(np.unique(labels)) - {OUTER, INNER}
    if unknown:
        raise MeshValidationError(f"unknown boundary labels {sorted(unknown)}")

    table = build_edge_table(triangles, edges)

    outer_edges = edges[labels == OUTER]
    inner_edges = edges[labels == INNER]
    if len(outer_edges) == 0:
        raise MeshValidationError("no outer boundary edges")
    outer_loop = chain_loop(outer_edges, OUTER)
    inner_loop = np.zeros(0, dtype=np.int64)
    if len(inner_edges):
        inner_loop = chain_loop(inner_edges, INNER)
        inside = points_in_polygon(nodes[inner_loop], nodes[outer_loop])
        if not inside.all():
            raise MeshValidationError("inner loop is not strictly inside the outer loop")
        outer_in_inner = points_in_polygon(nodes[outer_loop], nodes[inner_loop])
        if outer_in_inner.any():
            raise MeshValidationError("outer loop nodes lie inside the inner loop")
    return table, outer_loop, inner_loop


# ---------------------------------------------------------------------------
# boundary index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryIndex:
    """Ordered traversal of each boundary loop with arc-length parameters.

    The outer loop runs counter-clockwise and the inner loop clockwise, so the
    outward normal of the domain points away from it on both.  Arc lengths are
    measured from the loop's start node (minimum z, ties broken by minimum r)
    and stop at the last node: the closing edge back to the start is not
    included.
    """

    outer_nodes: np.ndarray
    inner_nodes: np.ndarray
    outer_arcs: np.ndarray
    inner_arcs: np.ndarray

    def nodes_for(self, where: str) -> np.ndarray:
        if where == OUTER:
            return self.outer_nodes
        if where == INNER:
            return self.inner_nodes
        raise ValueError(f"unknown boundary {where!r}")


def _orient_and_anchor(nodes: np.ndarray, loop: np.ndarray, ccw: bool):
    if len(loop) == 0:
        return loop, np.zeros(0)
    pts = nodes[loop]
    if (polygon_area(pts) > 0.0) != ccw:
        loop = loop[::-1].copy()
        pts = nodes[loop]
    start = np.lexsort((pts[:, 0], pts[:, 1]))[0]
    loop = np.roll(loop, -start)
    pts = nodes[loop]
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    return loop, np.concatenate([[0.0], np.cumsum(seg)])


def boundary_node_normals(mesh: Mesh, where: str) -> np.ndarray:
    """Unit outward normals of the domain at boundary nodes.

    Averages the two adjacent edge normals; second-order accurate on smooth
    boundaries.  On the outer loop the normal points away from the domain,
    on the inner loop it points into the hole.
    """
    idx = mesh.boundary.nodes_for(where)
    pts = mesh.nodes[idx]
    nxt = np.roll(pts, -1, axis=0)
    prv = np.roll(pts, 1, axis=0)

    # right-of-travel edge normal; with outer CCW and inner CW this points
    # away from the domain on both loops
    def edge_normal(a, b):
        t = b - a
        return np.stack([t[:, 1], -t[:, 0]], axis=1)

    n1 = edge_normal(prv, pts)
    n2 = edge_normal(pts, nxt)
    n = n1 / np.maximum(np.linalg.norm(n1, axis=1), 1e-300)[:, None] \
        + n2 / np.maximum(np.linalg.norm(n2, axis=1), 1e-300)[:, None]
    n /= np.maximum(np.linalg.norm(n, axis=1), 1e-300)[:, None]
    return n


# ---------------------------------------------------------------------------
# arrays on a mesh
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class CauchyData:
    """Paired Dirichlet trace f and weighted Neumann trace g on the outer loop."""

    f: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        f = np.ascontiguousarray(np.asarray(self.f, dtype=np.float64))
        g = np.ascontiguousarray(np.asarray(self.g, dtype=np.float64))
        if f.shape != g.shape or f.ndim != 1:
            raise ValueError("f and g must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise ValueError("non-finite Cauchy data")
        f.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    def check(self, mesh: Mesh) -> None:
        n = len(mesh.boundary.outer_nodes)
        if len(self.f) != n:
            raise ValueError(f"Cauchy data length {len(self.f)} != {n} outer nodes")


def trace(field: FluxField, where: str) -> np.ndarray:
    """Nodal values along a boundary in BoundaryIndex ordering."""
    return field.values[field.mesh.boundary.nodes_for(where)].copy()


def interpolate(mesh: Mesh, func) -> FluxField:
    """Nodal interpolant of func(r, z) as a FluxField."""
    return FluxField(func(mesh.nodes[:, 0], mesh.nodes[:, 1]), mesh)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def _read_lines(path, comment: str | None = None) -> tuple[list[int], list[str]]:
    """Line numbers and stripped text of the non-blank lines of an ASCII
    file, each line first cut at `comment`.  A byte beyond ASCII raises
    MeshFormatError at its line."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    if "\ufffd" in text:
        line = text.count("\n", 0, text.index("\ufffd")) + 1
        raise MeshFormatError(f"{path}:{line}: not ASCII text")
    lines = text.split("\n")
    if comment and comment in text:
        lines = [line.split(comment, 1)[0] for line in lines]
    lines = list(map(str.strip, lines))
    return [i for i, line in enumerate(lines, start=1) if line], list(filter(None, lines))


def _records(lines, fields, sep) -> np.ndarray | None:
    """`lines` read by numpy's C reader (`np.loadtxt`) as one record of
    `fields` each, or None where it refuses them or warns: numpy versions
    once read an integer column's ``1.0`` with only a DeprecationWarning."""
    dtype = np.dtype([("", kind, shape) for kind, shape, _ in fields])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return (np.loadtxt(lines, dtype, delimiter=sep, comments=None, ndmin=1)
                    if lines else np.empty(0, dtype))   # loadtxt warns on no lines
    except (ValueError, OverflowError, Warning):
        return None


def _fault(line, fields, sep, what: str, i: int) -> str:
    """Why the reader refuses row `i`, `line`: its token count, or else the
    first field refused when read alone, the other fields as text."""
    width = sum(math.prod(shape) for _, shape, _ in fields)
    if len(tokens := line.split(sep)) != width:
        return f"expected {width} tokens for {what} {i}, got {len(tokens)}"
    for k, (_, _, message) in enumerate(fields):
        alone = [(kind if j == k else object, shape, None)
                 for j, (kind, shape, _) in enumerate(fields)]
        if _records([line], alone, sep) is None:
            return message


def _parse_rows(path, numbers, lines, sep, what: str, fields,
                checks=None) -> list[np.ndarray]:
    """Convert a block of stripped lines, fields split at `sep` (None: runs
    of blanks), by one call of numpy's C reader, which alone decides what
    is a number.

    A field is (dtype, shape, message): its columns' type, their shape in a
    row (``()``: one column, read as a 1-D array) and the error if the
    reader refuses one; an ``object`` field keeps its columns as text,
    unchecked.  `checks` maps the arrays to (mask, format, values) triples
    flagging bad rows.  Raises MeshFormatError as ``path:line`` at the
    first row the reader refuses (`_fault` names why) or that is flagged
    (reported as ``format.format(value)``); within a row the earlier field
    or check wins.  Bisection over the block's prefixes finds the first
    refused row, and the rows before it are checked.
    """
    records, first = _records(lines, fields, sep), None
    if records is None:             # row i: the first whose prefix is refused
        i = bisect.bisect_left(range(len(lines)), True,
                               key=lambda k: _records(lines[:k + 1], fields, sep) is None)
        records = _records(lines[:i], fields, sep)
        first = i, _fault(lines[i], fields, sep, what, i)
    arrays = [records[name] for name in records.dtype.names]
    flags = checks(*arrays) if checks else []
    bad = np.logical_or.reduce([mask for mask, _, _ in flags], initial=False)
    if bad.any():                   # rows before the first fault, so they are earlier
        i = int(np.argmax(bad))
        text, values = next((t, v) for mask, t, v in flags if mask[i])
        first = i, text.format(values[i])
    if first:
        raise MeshFormatError(f"{path}:{numbers[first[0]]}: {first[1]}")
    return arrays


def _text(values) -> list[str]:
    """Each value as ``str`` prints its Python scalar (``tolist``), which is
    what ``"{}".format`` prints: a float in its shortest round-trip repr."""
    return list(map(str, values.tolist() if isinstance(values, np.ndarray) else values))


# rows joined into one string per write, which bounds the strings of a block
_CHUNK_ROWS = 4096


def _write_rows(path, *blocks) -> None:
    """Write blocks of (head, row format, column, ...) as ASCII text.

    A row format puts one separator between its fields, after a constant
    lead and before a constant tail: a VTK cell row has the lead ``3 ``,
    blanks between its indices and a line end for tail.  A column is text,
    a list of str rendered by the caller (and maybe shared with other
    files), or an array, rendered here by `_text`.  Rows are joined in C
    (``str.join`` over ``zip`` of the columns) and go out `_CHUNK_ROWS` at a
    time.
    """
    with open(path, "w", encoding="ascii") as fh:
        for head, row, *columns in blocks:
            lead, *seps, tail = row.split("{}")
            texts = [_text(c) if isinstance(c, np.ndarray) else c for c in columns]
            rows = iter(texts[0]) if not seps else map(seps[0].join, zip(*texts))
            fh.write(head)
            while chunk := list(islice(rows, _CHUNK_ROWS)):
                fh.write(lead + (tail + lead).join(chunk) + tail)


def load_mesh(path) -> Mesh:
    """Read a mesh from the plain-text format.

    Layout: ``nodes N`` then N lines ``r z``; ``triangles M`` then M lines
    ``i j k``; ``boundary_edges K`` then K lines ``a b label``.  Indices are
    0-based, ``#`` starts a comment, labels are ``outer`` / ``inner``.  A
    malformed file raises MeshFormatError at its first faulty line.
    """
    numbers, lines = _read_lines(path, "#")
    at = 0

    def block(name: str, what: str, fields, checks=None):
        """The rows counted by the `name` header, parsed."""
        nonlocal at
        if at == len(lines):
            raise MeshFormatError(
                f"{path}: unexpected end of file while reading '{name}' header")
        toks, where = lines[at].split(), f"{path}:{numbers[at]}"
        if len(toks) != 2:
            raise MeshFormatError(
                f"{where}: expected 2 tokens for '{name}' header, got {len(toks)}")
        if toks[0] != name:
            raise MeshFormatError(f"{where}: expected '{name}', got '{toks[0]}'")
        read = _records(toks[1:], [(np.int64, (), None)], None)
        if read is None and not re.fullmatch("[+-]?[0-9]+", toks[1]):
            raise MeshFormatError(f"{where}: bad count '{toks[1]}'")
        # an integer the reader refuses is past int64, and so past the file
        count = (int(read[0][0]) if read is not None
                 else -1 if toks[1][0] == "-" else len(lines))
        if count < 0:
            raise MeshFormatError(f"{where}: negative count")
        start, at = at + 1, at + 1 + count        # slices never exceed the file
        arrays = _parse_rows(path, numbers[start:at], lines[start:at], None, what,
                             fields, checks)
        if at > len(lines):
            raise MeshFormatError(f"{path}: unexpected end of file while reading "
                                  f"{what} {len(lines) - start}")
        return arrays

    def out_of_range(index):
        return ((index < 0) | (index >= len(nodes))).any(axis=1)

    nodes, = block("nodes", "node", [(float, (2,), "bad coordinate")])
    tris, = block("triangles", "triangle", [(np.int64, (3,), "bad triangle index")],
                  lambda t: [(out_of_range(t), "triangle index out of range", t)])
    edges, labels = block(
        "boundary_edges", "boundary edge",
        [(np.int64, (2,), "bad edge index"), (object, (), None)],
        lambda e, lab: [(out_of_range(e), "edge index out of range", lab),
                        (~np.isin(lab, (OUTER, INNER)), "unknown label '{}'", lab)])
    if at < len(lines):
        raise MeshFormatError(f"{path}:{numbers[at]}: trailing content")
    return Mesh(nodes, tris, edges, labels.astype("U8"))


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text format; floats use shortest round-trip repr."""
    _write_rows(
        path,
        (f"nodes {mesh.node_count}\n", "{} {}\n", *mesh.nodes.T),
        (f"triangles {mesh.triangle_count}\n", "{} {} {}\n", *mesh.triangles.T),
        (f"boundary_edges {len(mesh.boundary_edges)}\n", "{} {} {}\n",
         *mesh.boundary_edges.T, mesh.boundary_labels))


# ---------------------------------------------------------------------------
# structured annulus generator (ring ladder, star-shaped loops)
# ---------------------------------------------------------------------------

def _subdivide_loop(loop: np.ndarray, h: float) -> np.ndarray:
    """Insert equally spaced points on each edge so no piece exceeds h.

    Original vertices are preserved exactly; new points lie on the edges.
    """
    loop = np.asarray(loop, dtype=float)
    nxt = np.roll(loop, -1, axis=0)
    edge = nxt - loop
    # one dot product per edge, rounded as np.linalg.norm rounds one vector
    length = np.sqrt(edge[:, None, :] @ edge[:, :, None]).ravel()
    pieces = np.maximum(1, np.ceil(length / h)).astype(np.int64)
    first = np.cumsum(pieces) - pieces
    edge_of = np.repeat(np.arange(len(loop)), pieces)
    t = ((np.arange(len(edge_of)) - first[edge_of]) / pieces[edge_of])[:, None]
    out = (1.0 - t) * loop[edge_of] + t * nxt[edge_of]
    out[first] = loop
    return out


def _angles_about(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = points - center
    return np.mod(np.arctan2(d[:, 1], d[:, 0]), 2.0 * math.pi)


def _ray_crossings(loop: np.ndarray, center: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Intersection of rays from center at given angles with a star-shaped loop."""
    ang = _angles_about(loop, center)
    order = np.argsort(ang, kind="stable")
    theta = np.mod(angles, 2.0 * math.pi)
    j = np.searchsorted(ang[order], theta)
    a = loop[order[(j - 1) % len(loop)]]
    e = loop[order[j % len(loop)]] - a
    # solve a + t (b - a) on the ray direction; a parallel edge keeps a
    dr, dz = np.cos(theta), np.sin(theta)
    denom = dr * (-e[:, 1]) - dz * (-e[:, 0])
    rhs = a - center
    with np.errstate(divide="ignore", invalid="ignore"):
        t_edge = (dr * rhs[:, 1] - dz * rhs[:, 0]) / denom
    parallel = (np.abs(denom) < 1e-300)[:, None]
    return np.where(parallel, a, a + np.clip(t_edge, 0.0, 1.0)[:, None] * e)


def _resample_closed(points: np.ndarray, count: int) -> np.ndarray:
    """Resample a closed polyline at `count` points equidistant in arc length."""
    seg = np.linalg.norm(np.roll(points, -1, axis=0) - points, axis=1)
    arcs = np.concatenate([[0.0], np.cumsum(seg)])
    total = arcs[-1]
    targets = np.arange(count) * total / count
    idx = np.searchsorted(arcs, targets, side="right") - 1
    idx = np.clip(idx, 0, len(points) - 1)
    local = (targets - arcs[idx]) / np.maximum(seg[idx], 1e-300)
    nxt = (idx + 1) % len(points)
    return points[idx] * (1.0 - local[:, None]) + points[nxt] * local[:, None]


def _stitch_rings(idx_a, ang_a, idx_b, ang_b) -> np.ndarray:
    """Triangulate the band between two rings sorted by angle (a inside b).

    Each step advances one ring to its next angle (the last one wraps by
    2 pi), the ring whose next angle comes first, ring a on ties: a stable
    merge of the two sorted key sequences.
    """
    na, nb = len(idx_a), len(idx_b)
    two_pi = 2.0 * math.pi
    keys = np.r_[ang_a[1:], ang_a[0] + two_pi, ang_b[1:], ang_b[0] + two_pi]
    take_a = np.argsort(keys, kind="stable") < na
    i = np.cumsum(take_a) - take_a                 # steps of ring a so far
    j = np.arange(na + nb) - i
    third = np.where(take_a, idx_a[(i + 1) % na], idx_b[(j + 1) % nb])
    return np.column_stack([idx_a[i % na], idx_b[j % nb], third])


# The largest mesh the generator makes: 10**7 nodes, 800 times desk r2's
# 12 465, whose arrays (nodes, triangles, edge table, the ladder's rings)
# already take gigabytes.  A target_h of 1e-12 would ask for terabytes.
_MAX_NODES = 10 ** 7


def _refuse_repeated_vertex(name: str, loop: np.ndarray) -> None:
    """MeshGeometryError naming the first vertex of the closed loop that its
    successor repeats (the last vertex's successor is the first)."""
    same = np.flatnonzero((loop == np.roll(loop, -1, axis=0)).all(axis=1))
    if len(same):
        i = int(same[0])
        first, second = sorted((i, (i + 1) % len(loop)))
        r, z = loop[first].tolist()
        closing = ("; a closed polyline must not repeat its first point"
                   if i == len(loop) - 1 else "")
        raise MeshGeometryError(f"{name} loop repeats vertex {first} "
                                f"({r!r}, {z!r}) as vertex {second}{closing}")


def generate_annulus_mesh(outer: np.ndarray, inner: np.ndarray, target_h: float,
                          node_budget: int | None = None) -> Mesh:
    """Mesh the region between two closed polylines with a ring ladder.

    Both loops must be star-shaped about the inner loop's centroid (true for
    circles, D-shapes and their scaled offsets).  Boundary polylines are
    reproduced exactly: original vertices are kept, edges are only subdivided.
    The maximum generated edge length is at most 1.5 * target_h.

    Parameters
    ----------
    outer, inner : (n, 2) arrays
        Closed polylines, r > 0, in either orientation: a clockwise loop is
        taken reversed, so a loop and its reversal give bitwise the same
        mesh.  A closed polyline must not repeat its first point at its end,
        nor any vertex as the next: MeshGeometryError names the loop and the
        repeated vertex.
    target_h : float
        Requested characteristic edge length, finite and positive.
    node_budget : int, optional
        If given, intermediate ring sizes are nudged so the total node count
        equals the budget exactly (boundary counts are never altered).

    Raises ValueError, not MeshGeometryError, for a node_budget over
    `_MAX_NODES`, or a target_h whose mesh, of about area / (0.9 target_h)^2
    nodes, would be over it.
    """
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    if not 0.0 < target_h < math.inf:
        raise MeshGeometryError(f"target_h must be finite and positive, got {target_h!r}")
    for name, loop in (("outer", outer), ("inner", inner)):
        if loop.ndim != 2 or loop.shape[1] != 2 or len(loop) < 3:
            raise MeshGeometryError(f"{name} loop must be an (n>=3, 2) polyline")
        if not np.isfinite(loop).all():
            raise MeshGeometryError(f"{name} loop has a non-finite coordinate")
        if np.any(loop[:, 0] <= 0.0):
            raise MeshGeometryError(f"{name} loop has r <= 0")
        _refuse_repeated_vertex(name, loop)
    # a clockwise loop is meshed as its reversal, copied so that its layout,
    # and so every rounding after, is that of the counter-clockwise input
    outer, inner = (loop[::-1].copy() if polygon_area(loop) < 0.0 else loop
                    for loop in (outer, inner))
    # the ladder's first try spaces nodes 0.9 target_h apart both ways; this
    # runs before any array sized by 1 / target_h is made, and multiplies,
    # so a target_h whose square underflows is refused too
    area = abs(polygon_area(outer)) - abs(polygon_area(inner))
    if area > _MAX_NODES * (0.9 * target_h) ** 2:
        raise ValueError(f"target_h {target_h!r} would mesh the annulus with "
                         f"over {_MAX_NODES} nodes")
    if node_budget is not None and node_budget > _MAX_NODES:
        raise ValueError(f"node_budget {node_budget} is over {_MAX_NODES} nodes")
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
            return _ladder_mesh(outer, inner, center, 0.9 * target_h * shrink,
                                target_h, node_budget)
        except _EdgeBoundExceeded as exc:
            last_err = exc
    raise MeshGeometryError(str(last_err))


class _EdgeBoundExceeded(Exception):
    pass


def _ladder_mesh(outer: np.ndarray, inner: np.ndarray, center: np.ndarray,
                 h_b: float, target_h: float, node_budget: int | None) -> Mesh:
    ring_inner = _subdivide_loop(inner, h_b)
    ring_outer = _subdivide_loop(outer, h_b)
    for name, ring in (("inner", ring_inner), ("outer", ring_outer)):
        ang = _angles_about(ring, center)
        rolled = np.roll(ang, -int(np.argmin(ang)))
        if np.any(np.diff(rolled) <= 0):
            raise MeshGeometryError(
                f"{name} loop is not star-shaped about the inner centroid; "
                "this generator requires star-shaped loops")

    # radial layer count from the mean gap along matched rays
    probe = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    p_in = _ray_crossings(ring_inner, center, probe)
    p_out = _ray_crossings(ring_outer, center, probe)
    gap = float(np.mean(np.linalg.norm(p_out - p_in, axis=1)))
    layers = max(1, round(gap / h_b))

    # intermediate rings: blend along rays, then resample by arc length
    fine = np.sort(np.concatenate([_angles_about(ring_inner, center),
                                   _angles_about(ring_outer, center)]))
    fine_in = _ray_crossings(ring_inner, center, fine)
    fine_out = _ray_crossings(ring_outer, center, fine)

    def blends(layer_count):
        """(layer_count - 1, len(fine), 2) intermediate rings, inside out."""
        s = (np.arange(1, layer_count) / layer_count)[:, None, None]
        return (1.0 - s) * fine_in + s * fine_out

    def ring_counts(blend):
        perim = np.linalg.norm(np.roll(blend, -1, axis=1) - blend, axis=2).sum(axis=1)
        return np.maximum(3, np.ceil(perim / h_b)).astype(np.int64)

    fixed = len(ring_inner) + len(ring_outer)
    if node_budget is not None:
        # choose the layer count whose natural node total is closest to the
        # budget (the first on ties), so the per-ring adjustment stays small
        layers = min(range(max(2, layers // 2), max(3, 2 * layers + 2)), key=lambda trial:
                     abs(fixed + ring_counts(blends(trial)).sum() - node_budget))
    mids = blends(layers)
    counts = ring_counts(mids)

    if node_budget is not None:
        # spread the deficit one node per ring in turn, from the innermost
        # ring; a ring gives up nodes only down to 3
        deficit = node_budget - fixed - int(counts.sum())
        if deficit > 0:
            turns, extra = divmod(deficit, len(counts))
            counts += turns + (np.arange(len(counts)) < extra)
        elif deficit < 0:
            spare = counts - 3
            if spare.sum() < -deficit:
                raise MeshGeometryError("cannot satisfy node budget")
            # turn[p, r]: ring r gives a node on pass p; row-major is visit order
            turn = np.arange(spare.max())[:, None] < spare
            turn &= np.cumsum(turn).reshape(turn.shape) <= -deficit
            counts -= turn.sum(axis=0)

    rings = [ring_inner, *map(_resample_closed, mids, counts), ring_outer]
    nodes = np.concatenate(rings, axis=0)
    offsets = np.cumsum([0] + [len(r) for r in rings])
    angles = [_angles_about(r, center) for r in rings]
    order = [np.argsort(ang, kind="stable") for ang in angles]
    triangles = np.concatenate([
        _stitch_rings(offsets[k] + order[k], angles[k][order[k]],
                      offsets[k + 1] + order[k + 1], angles[k + 1][order[k + 1]])
        for k in range(len(rings) - 1)])

    areas = triangle_areas(nodes, triangles)
    flip = areas < 0.0
    if flip.any():
        triangles[flip] = triangles[flip][:, [0, 2, 1]]
    if np.any(triangle_areas(nodes, triangles) <= 0.0):
        raise MeshGeometryError("degenerate triangle produced; loops too irregular")

    rims = [np.arange(offsets[0], offsets[1]), np.arange(offsets[-2], offsets[-1])]
    edges = np.column_stack([np.concatenate(rims),
                             np.concatenate([np.roll(rim, -1) for rim in rims])])
    labels = np.repeat([INNER, OUTER], [len(rim) for rim in rims])

    mesh = Mesh(nodes, triangles, edges, labels)
    if mesh.max_edge_length > 1.5 * target_h:
        raise _EdgeBoundExceeded(
            f"generated edge length {mesh.max_edge_length:.4g} exceeds "
            f"1.5 * target_h = {1.5 * target_h:.4g}")
    return mesh


def circle_loop(center_r: float, center_z: float, radius: float, count: int) -> np.ndarray:
    """Regular polygon approximating a circle, counter-clockwise."""
    t = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([center_r + radius * np.cos(t),
                            center_z + radius * np.sin(t)])


def dee_loop(center_r: float, a: float, b: float, triangularity: float,
             count: int) -> np.ndarray:
    """D-shaped loop r = R0 + a cos(t + delta sin t), z = b sin t."""
    t = 2.0 * math.pi * np.arange(count) / count
    return np.column_stack([center_r + a * np.cos(t + triangularity * np.sin(t)),
                            b * np.sin(t)])


# ---------------------------------------------------------------------------
# reference meshes
# ---------------------------------------------------------------------------

def desk_annulus_mesh() -> Mesh:
    """Small concentric-circle annulus: ~1000 nodes, 30 inner boundary nodes."""
    outer = circle_loop(6.0, 0.0, 2.9, 110)
    inner = circle_loop(6.0, 0.0, 0.8, 30)
    return generate_annulus_mesh(outer, inner, 0.2, node_budget=1000)


def refined_desk_mesh(refine: int) -> Mesh:
    """Desk annulus geometry at target_h scaled by 1/2**refine."""
    factor = 2 ** refine
    outer = circle_loop(6.0, 0.0, 2.9, 110 * factor)
    inner = circle_loop(6.0, 0.0, 0.8, 30 * factor)
    return generate_annulus_mesh(outer, inner, 0.2 / factor)


def iter_like_mesh() -> Mesh:
    """D-shaped vessel with an empirically shaped inner contour.

    977 nodes, 1804 triangles, 120 outer + 30 inner boundary nodes; both
    loops are sampled uniformly in arc length so no generator subdivision
    occurs and the counts are pinned.  The inner contour is an irregular
    10-gon (fixed jitter): like a hand-drawn contour it has corners, which
    spreads the inner-boundary traces across the interface-operator
    spectrum and gives noise sensitivities comparable to the reference
    tables.
    """
    fine = dee_loop(6.2, 3.35, 5.0, 0.45, 2048)
    outer = _resample_closed(fine, 120)
    corners = _resample_closed(scale_toward_centroid(fine, 0.25), 10)
    rng = np.random.default_rng(12345)
    centroid = polygon_centroid(corners)
    spread = corners - centroid
    corners = centroid + spread * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, 10))[:, None]
    inner = _resample_closed(corners, 30)
    return generate_annulus_mesh(outer, inner, 0.32, node_budget=977)
