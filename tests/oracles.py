"""Slow reference implementations that the fast library paths are checked
against.  They build their own adjacency from the triangle list, so they
share no code with ``Mesh.edges``."""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from fluxrec.mesh import INNER, OUTER, Mesh, points_in_polygon

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
    """Sorted unique edges with owners (-1 padded) and labels ("" interior),
    built with a dict over the triangle list."""
    owners: dict[tuple[int, int], list[int]] = {}
    for ti, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for p, q in ((a, b), (b, c), (c, a)):
            owners.setdefault((min(p, q), max(p, q)), []).append(ti)
    labels = {(min(a, b), max(a, b)): str(lab) for (a, b), lab
              in zip(mesh.boundary_edges.tolist(), mesh.boundary_labels)}
    keys = sorted(owners)
    return (np.array(keys), np.array([owners[k] + [-1] * (2 - len(owners[k]))
                                      for k in keys]),
            np.array([labels.get(k, "") for k in keys]))
