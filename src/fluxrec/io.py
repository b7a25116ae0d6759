"""File artifacts: CSV interchange formats, key=value reports, VTK export.

All floats are written with shortest round-trip repr so artifacts are
byte-stable across runs and reload losslessly.
"""

from __future__ import annotations

import numpy as np

from .completion import CauchyData
from .fem import FluxField
from .mesh import Mesh
from .postprocess import Isoline
from .regularization import LCurve


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_report(path, entries: dict) -> None:
    """key = value lines, one per entry."""
    with open(path, "w", encoding="ascii") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {_fmt(value)}\n")


def write_flux_csv(path, fld: FluxField) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("node_index,r,z,psi\n")
        for i, ((r, z), v) in enumerate(zip(fld.mesh.nodes, fld.values)):
            fh.write(f"{i},{_fmt(r)},{_fmt(z)},{_fmt(v)}\n")


def read_flux_csv(path, mesh: Mesh) -> FluxField:
    values = np.full(mesh.node_count, np.nan)
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "node_index,r,z,psi":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            idx, _, _, v = line.split(",")
            i = int(idx)
            if not 0 <= i < len(values):
                raise ValueError(f"{path}:{lineno}: node index {i} outside "
                                 f"[0, {len(values)})")
            values[i] = float(v)
    if np.any(np.isnan(values)):
        raise ValueError(f"{path}: missing node values")
    return FluxField(values, mesh)


def write_vtk(path, fld: FluxField, name: str = "psi") -> None:
    """Legacy ASCII unstructured-grid file with one point scalar field."""
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


def write_cauchy_csv(path, mesh: Mesh, data: CauchyData) -> None:
    """Cauchy data aligned to the outer BoundaryIndex ordering."""
    b = mesh.boundary
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma_v_node,arc_length,f,g\n")
        for node, arc, fv, gv in zip(b.outer_nodes, b.outer_arcs, data.f, data.g):
            fh.write(f"{node},{_fmt(arc)},{_fmt(fv)},{_fmt(gv)}\n")


def read_cauchy_csv(path, mesh: Mesh) -> CauchyData:
    b = mesh.boundary
    f = np.full(len(b.outer_nodes), np.nan)
    g = np.full(len(b.outer_nodes), np.nan)
    order = {int(n): i for i, n in enumerate(b.outer_nodes)}
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "gamma_v_node,arc_length,f,g":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            node, _, fv, gv = line.split(",")
            try:
                i = order[int(node)]
            except KeyError:
                raise ValueError(f"{path}: node {node} is not on the outer boundary")
            f[i], g[i] = float(fv), float(gv)
    if np.any(np.isnan(f)) or np.any(np.isnan(g)):
        raise ValueError(f"{path}: missing outer boundary rows")
    return CauchyData(f, g)


def write_control_csv(path, mesh: Mesh, u: np.ndarray) -> None:
    """Inner-boundary value aligned to the inner BoundaryIndex ordering."""
    b = mesh.boundary
    with open(path, "w", encoding="ascii") as fh:
        fh.write("gamma_i_node,arc_length,u\n")
        for node, arc, uv in zip(b.inner_nodes, b.inner_arcs, u):
            fh.write(f"{node},{_fmt(arc)},{_fmt(uv)}\n")


def write_lcurve_csv(path, curve: LCurve) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epsilon,J,R_D,is_corner\n")
        for i, (eps, j, rd) in enumerate(zip(curve.epsilons, curve.misfits,
                                             curve.regularizers)):
            fh.write(f"{_fmt(eps)},{_fmt(j)},{_fmt(rd)},"
                     f"{1 if i == curve.corner_index else 0}\n")


def write_isoline_csv(path, isolines) -> None:
    """Polylines as polyline_id,vertex_index,r,z rows."""
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


def read_polyline_csv(path) -> np.ndarray:
    """Two-column r,z polyline (with or without a header line)."""
    pts = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            try:
                pts.append((float(parts[0]), float(parts[1])))
            except ValueError:
                continue  # header
    if len(pts) < 3:
        raise ValueError(f"{path}: fewer than 3 polyline points")
    return np.asarray(pts)
