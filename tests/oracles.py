"""Slow reference implementations that the fast library paths are checked
against.  They build their own adjacency from the triangle list and their
own boundary-label dicts, so they share no code with ``Mesh.edges``; the
text-format oracles read one token and write one value at a time."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from fluxrec.fem import FluxField
from fluxrec.mesh import (INNER, OUTER, Mesh, MeshFormatError, points_in_polygon,
                          polygon_area)
from fluxrec.postprocess import EmptyIsolineError, Isoline

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
    """(nodes, arcs, perimeter) of the outer and the inner loop, in the
    documented BoundaryIndex order: outer counter-clockwise, inner
    clockwise, each from its minimum-z (then minimum-r) node."""
    out = []
    for label, ccw in ((OUTER, True), (INNER, False)):
        edges = mesh.boundary_edges[mesh.boundary_labels == label]
        if len(edges) == 0:
            out.append((np.zeros(0, dtype=np.int64), np.zeros(0), 0.0))
            continue
        loop = chain_loop_dict(edges)
        if (polygon_area(mesh.nodes[loop]) > 0.0) != ccw:
            loop = loop[::-1]
        pts = mesh.nodes[loop]
        start = min(range(len(loop)), key=lambda i: (pts[i, 1], pts[i, 0]))
        loop = np.roll(loop, -start)
        pts = mesh.nodes[loop]
        arcs = np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(pts, axis=0), axis=1))])
        out.append((loop, arcs, float(arcs[-1] + np.linalg.norm(pts[0] - pts[-1]))))
    return out


def extract_isoline_dict(fld: FluxField, level: float, mesh: Mesh) -> Isoline:
    """Marching triangles with a Python loop over crossed triangles, crossing
    points and ids kept in dicts keyed by node pair, and a dict adjacency
    walk: open chains from their contour endpoints first, in order of first
    crossing, then closed chains.  Boundary labels come from a dict over the
    boundary edge list."""
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

    iso = Isoline(level=float(level), segments=segments)
    if not seg_edges:
        return iso
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

    endpoints = []
    for start in sorted((k for k, v in adjacency.items() if len(v) == 1),
                        key=lambda k: edge_ids[k]):
        if all(seen[s] for s in adjacency[start]):
            continue
        path, _ = walk(start)
        iso.polylines.append(np.array([edge_point[e] for e in path]))
        iso.polyline_closed.append(False)
        endpoints += [path[0], path[-1]]
    for start in sorted(adjacency, key=lambda k: edge_ids[k]):
        if all(seen[s] for s in adjacency[start]):
            continue
        path, is_closed = walk(start)
        pts = np.array([edge_point[e] for e in path])
        if is_closed:
            pts = np.vstack([pts, pts[:1]])
        else:
            endpoints += [path[0], path[-1]]
        iso.polylines.append(pts)
        iso.polyline_closed.append(bool(is_closed))
    labels = {(min(a, b), max(a, b)): str(lab) for (a, b), lab
              in zip(mesh.boundary_edges.tolist(), mesh.boundary_labels)}
    iso.closed = all(iso.polyline_closed) and bool(iso.polylines)
    iso.inside_domain = not any(labels.get(k) == OUTER for k in endpoints)
    return iso


# ---------------------------------------------------------------------------
# text formats, one token or one value at a time
# ---------------------------------------------------------------------------

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
            count = int(toks[1])
        except ValueError:
            raise MeshFormatError(f"{path}:{lineno}: bad count '{toks[1]}'")
        if count < 0:
            raise MeshFormatError(f"{path}:{lineno}: negative count")
        return count

    def indices(lineno, toks, what):
        try:
            row = np.array([int(t) for t in toks], dtype=np.int64)
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
            nodes.append((float(toks[0]), float(toks[1])))
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


def write_vtk_by_row(path, fld, name: str = "psi") -> None:
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
        fh.write(f"SCALARS {name} double 1\n")
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


def write_isoline_csv_by_row(path, isolines) -> None:
    if isinstance(isolines, Isoline):
        isolines = [isolines]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("polyline_id,vertex_index,r,z\n")
        pid = 0
        for iso in isolines:
            for poly in iso.polylines:
                for k, (r, z) in enumerate(poly):
                    fh.write(f"{pid},{k},{_fmt(r)},{_fmt(z)}\n")
                pid += 1
