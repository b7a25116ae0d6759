"""File artifacts: CSV interchange formats, key=value reports, VTK export.

The text-format helpers of `fluxrec.mesh` read and write them: a malformed
row raises MeshFormatError as ``path:line``, and floats are written with
shortest round-trip repr, so artifacts are byte-stable and reload losslessly.
The node-indexed files, flux CSVs and VTK files, have one writer,
`save_fields`: it renders the mesh's node columns and each field's values
once for all the files of a call, so a command's node files render each
number once.  `write_flux_csv` writes one file through it.
The module imports only `fluxrec.mesh`, so writing a file loads no solver:
the L-curve and isoline writers read their result's fields by name.
"""

from __future__ import annotations

import numpy as np

from .mesh import (CauchyData, FluxField, Mesh, MeshFormatError, _parse_rows, _read_lines,
                   _text, _write_rows)


def write_report(path, entries: dict) -> None:
    """key = value lines, one per entry."""
    _write_rows(path, ("", "{} = {}\n", list(entries), _text(entries.values())))


def _read_node_csv(path, header: str, mesh: Mesh, nodes: np.ndarray, unread: int,
                   outside: str, missing: str) -> np.ndarray:
    """Float columns of the CSV rows under a first line `header`, one row per
    node of `nodes` and in its order; a row's node index comes first, then
    `unread` columns, not checked.  Raises MeshFormatError for another
    header, at the first malformed row, or row whose node is not in `nodes`
    (`outside` formats the node), repeats an earlier row's or has a
    non-finite value, and for a missing row (`missing`)."""
    numbers, lines = _read_lines(path)
    first = lines[0] if numbers[:1] == [1] else ""
    if first != header:
        raise MeshFormatError(f"{path}: unexpected header {first!r}")

    def checks(index, _, values):
        repeat = np.ones(len(index), dtype=bool)
        repeat[np.unique(index, return_index=True)[1]] = False
        return [(~np.isin(index, nodes), outside, index),
                (repeat, "node {} listed twice", index),
                (~np.isfinite(values).all(axis=1), "non-finite value", index)]

    index, _, values = _parse_rows(
        path, numbers[1:], lines[1:], ",", "row",
        [(np.int64, (), "bad node index"), (object, (unread,), None),
         (float, (header.count(",") - unread,), "bad value")], checks)
    if len(index) < len(nodes):         # rows are distinct nodes of `nodes`
        raise MeshFormatError(f"{path}: {missing}")
    slot = np.full(mesh.node_count, -1)
    slot[nodes] = np.arange(len(nodes))
    out = np.empty_like(values)
    out[slot[index]] = values
    return out


def write_flux_csv(path, fld: FluxField) -> None:
    save_fields(csv=[(path, fld)])


def read_flux_csv(path, mesh: Mesh) -> FluxField:
    n = mesh.node_count
    psi = _read_node_csv(path, "node_index,r,z,psi", mesh, np.arange(n), 2,
                         f"node index {{}} outside [0, {n})", "missing node values")
    return FluxField(psi[:, 0], mesh)


def save_fields(csv=(), vtk=()) -> None:
    """Write fields of one mesh: each (path, field) of `csv` as a flux CSV
    of ``node_index,r,z,psi`` rows, and of `vtk` as a legacy ASCII
    unstructured-grid file with the field as its point scalars.

    The mesh's node columns are rendered once for all the files, and a field
    given for several files once for them all; the text is dropped on
    return.  Raises ValueError for fields of different meshes.
    """
    files = [*csv, *vtk]
    if not files:
        return
    mesh = files[0][1].mesh
    if any(fld.mesh is not mesh for _, fld in files):
        raise ValueError("fields of different meshes")
    fields = {id(fld): fld for _, fld in files}     # each field once
    text = {key: _text(fld.values) for key, fld in fields.items()}
    n, m = mesh.node_count, mesh.triangle_count
    r, z = map(_text, mesh.nodes.T)
    nodes = list(map(",".join, zip(_text(range(n)), r, z))) if csv else []
    for path, fld in csv:
        _write_rows(path, ("node_index,r,z,psi\n", "{},{}\n", nodes, text[id(fld)]))
    for path, fld in vtk:
        _write_rows(
            path,
            ("# vtk DataFile Version 3.0\nfluxrec field export\nASCII\n"
             f"DATASET UNSTRUCTURED_GRID\nPOINTS {n} double\n", "{} {} 0.0\n", r, z),
            (f"CELLS {m} {4 * m}\n", "3 {} {} {}\n", *mesh.triangles.T),
            (f"CELL_TYPES {m}\n" + "5\n" * m + f"POINT_DATA {n}\n"
             "SCALARS psi double 1\nLOOKUP_TABLE default\n", "{}\n", text[id(fld)]))


def write_cauchy_csv(path, mesh: Mesh, data: CauchyData) -> None:
    """Cauchy data aligned to the outer BoundaryIndex ordering."""
    b = mesh.boundary
    _write_rows(path, ("gamma_v_node,arc_length,f,g\n", "{},{},{},{}\n",
                       b.outer_nodes, b.outer_arcs, data.f, data.g))


def read_cauchy_csv(path, mesh: Mesh) -> CauchyData:
    fg = _read_node_csv(path, "gamma_v_node,arc_length,f,g", mesh,
                        mesh.boundary.outer_nodes, 1,
                        "node {} is not on the outer boundary",
                        "missing outer boundary rows")
    return CauchyData(fg[:, 0], fg[:, 1])


def write_control_csv(path, mesh: Mesh, u: np.ndarray) -> None:
    """Inner-boundary value aligned to the inner BoundaryIndex ordering."""
    b = mesh.boundary
    _write_rows(path, ("gamma_i_node,arc_length,u\n", "{},{},{}\n",
                       b.inner_nodes, b.inner_arcs, u))


def write_lcurve_csv(path, curve) -> None:
    """A regularization.LCurve's points, its corner flagged."""
    _write_rows(path, ("epsilon,J,R_D,is_corner\n", "{},{},{},{}\n",
                       curve.epsilons, curve.misfits, curve.regularizers,
                       (np.arange(len(curve)) == curve.corner_index).astype(int)))


def write_isoline_csv(path, iso) -> None:
    """A postprocess.Isoline's polylines as polyline_id,vertex_index,r,z rows."""
    sizes = np.array([len(poly) for poly in iso.polylines], dtype=int)
    _write_rows(path, ("polyline_id,vertex_index,r,z\n", "{},{},{},{}\n",
                       np.repeat(np.arange(len(sizes)), sizes),
                       np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes),
                       *np.concatenate([np.empty((0, 2)), *iso.polylines]).T))


def read_polyline_csv(path) -> np.ndarray:
    """Two-column r,z polyline, comma or blank separated; a first line with
    no number among its tokens is a header.  A non-finite coordinate is a
    malformed row."""
    numbers, lines = _read_lines(path)
    lines = [line.replace(",", " ") for line in lines]
    if lines and not any(map(_is_number, lines[0].split())):
        numbers, lines = numbers[1:], lines[1:]
    pts, = _parse_rows(path, numbers, lines, None, "point",
                       [(float, (2,), "bad coordinate")], lambda p: [
                           (~np.isfinite(p).all(axis=1), "non-finite coordinate", p)])
    if len(pts) < 3:
        raise MeshFormatError(f"{path}: fewer than 3 polyline points")
    return pts


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True
