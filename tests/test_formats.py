"""The block readers and column writers of the text formats against the
token-at-a-time and value-at-a-time oracles in `oracles`."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import cli
from fluxrec import io as fio
from fluxrec.completion import CauchyData, NearSingularError
from fluxrec.fem import FemError, FluxField
from fluxrec.mesh import (MeshFormatError, MeshGeometryError, MeshTopologyError,
                          MeshValidationError, circle_loop, dee_loop,
                          generate_annulus_mesh, load_mesh, save_mesh,
                          scale_toward_centroid)
from fluxrec.postprocess import EmptyIsolineError, Isoline, NoTransitionError
from fluxrec.regularization import DegenerateCurveError, LCurve
from conftest import build_square_mesh, l_hole_square_mesh, strip_mesh
import oracles

BASE_MESHES = [strip_mesh(), build_square_mesh(2), l_hole_square_mesh()]

# tokens a corruption puts in place of another: a word, a non-integral and
# an out-of-range number, a value beyond int64, a label, a header name and a
# count beyond the file; then tokens that numpy's C reader and ``float`` /
# ``int`` judge differently: a digit separator, a hex literal, an integral
# float and an exponent as an index, an explicit sign
BAD_TOKENS = ["x", "1.5", "-1", "9", "99999999999999999999", "nan", "outer",
              "wall", "triangles", "100000000000000",
              "1_0", "0x10", "1.0", "+3", "1e5"]
# the same kinds in a CSV field, with a '#' that is no comment there
CSV_TOKENS = ["x", "1.5", "-1", "0", "99", "nan", "1e999", "", "psi",
              "1_0", "0x10", "1.0", "+3", "1e5", "1#", "#"]


def _mesh_rows(mesh, scale: float, shift: float) -> list[list[str]]:
    """Token rows of the mesh file of `mesh` with (r, z) moved to
    (scale r, scale z + shift)."""
    nodes = mesh.nodes * scale + [0.0, shift]
    return ([["nodes", str(mesh.node_count)]]
            + [[repr(r), repr(z)] for r, z in nodes.tolist()]
            + [["triangles", str(mesh.triangle_count)]]
            + [[str(i) for i in t] for t in mesh.triangles.tolist()]
            + [["boundary_edges", str(len(mesh.boundary_edges))]]
            + [[str(a), str(b), str(lab)] for (a, b), lab
               in zip(mesh.boundary_edges.tolist(), mesh.boundary_labels)])


def _corrupt(draw, rows, start: int, stop: int, tokens) -> list[list[str]]:
    """Up to two corruptions of rows[start:stop]: a token replaced by one of
    `tokens`, dropped or added, a row dropped or repeated, or one appended."""
    rows = [list(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 1, 2, 2]))):
        i = draw(st.integers(start, min(stop, len(rows)) - 1))
        kind = draw(st.sampled_from(["replace", "replace", "replace", "drop_token",
                                     "add_token", "drop_row", "repeat_row", "append"]))
        token = draw(st.sampled_from(tokens))
        if kind == "replace":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = token
        elif kind == "drop_token":
            rows[i].pop()
        elif kind == "add_token":
            rows[i].append(token)
        elif kind == "drop_row":
            del rows[i]
        elif kind == "repeat_row":
            rows.insert(i, list(rows[i]))
        else:
            rows.append(list(rows[i]))
    return rows


@st.composite
def mesh_texts(draw, mesh=None):
    """ASCII mesh files with comments, blank lines, odd blanks and up to two
    corruptions.  The corruptions hit one section (header included) or the
    whole file, so that two faults often meet in one block."""
    if mesh is None:
        mesh = draw(st.sampled_from(BASE_MESHES))
    rows = _mesh_rows(mesh, draw(st.floats(1e-3, 1e3)), draw(st.floats(-1e3, 1e3)))
    n, m = mesh.node_count, mesh.triangle_count
    start, stop = draw(st.sampled_from(
        [(0, len(rows)), (0, n + 1), (n + 1, n + m + 2), (n + m + 2, len(rows))]))
    lines = []
    for row in _corrupt(draw, rows, start, stop, BAD_TOKENS):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "\t# x y z"])))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        tail = draw(st.sampled_from(["", " ", "  # trailing comment", "#"]))
        lines.append(draw(st.sampled_from(["", " "])) + sep.join(row) + tail)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def _csv_text(draw, rows, seps=(",",)) -> str:
    """Rows joined by a drawn separator, the fields after the first row
    sometimes padded with blanks, lines ended by LF or CRLF."""
    sep = draw(st.sampled_from(seps))
    pad = draw(st.sampled_from(["", " ", "\t"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join((sep if i == 0 else pad + sep + pad).join(row) + end
                   for i, row in enumerate(rows))


@st.composite
def flux_texts(draw, mesh):
    """Flux CSV files of psi = r on `mesh` with up to two corruptions: a bad
    or repeated node, a bad value, a wrong field count, a missing row."""
    rows = [["node_index", "r", "z", "psi"]] + [
        [str(i), repr(r), repr(z), repr(r)] for i, (r, z) in enumerate(mesh.nodes.tolist())]
    return _csv_text(draw, _corrupt(draw, rows, 0, len(rows), CSV_TOKENS))


@st.composite
def cauchy_texts(draw, mesh):
    """Cauchy CSV files on the outer nodes of `mesh`, corrupted as flux_texts."""
    b = mesh.boundary
    rows = [["gamma_v_node", "arc_length", "f", "g"]] + [
        [str(k), repr(s), repr(s * s), repr(-s)]
        for k, s in zip(b.outer_nodes.tolist(), b.outer_arcs.tolist())]
    return _csv_text(draw, _corrupt(draw, rows, 0, len(rows), CSV_TOKENS))


@st.composite
def polyline_texts(draw):
    """Polyline files of 3 to 6 points, with or without an r,z header,
    comma or blank separated, with up to two corruptions."""
    points = draw(st.lists(st.tuples(FLOATS, FLOATS), min_size=3, max_size=6))
    rows = ([["r", "z"]] if draw(st.booleans()) else []) + [
        [repr(r), repr(z)] for r, z in points]
    return _csv_text(draw, _corrupt(draw, rows, 0, len(rows), CSV_TOKENS),
                     (",", " ", ", ", "\t"))


def _outcome(read, path):
    """The bytes of the arrays read, or the exception's type and message."""
    try:
        got = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in got]


def _mesh_arrays(load):
    def read(path):
        mesh = load(path)
        return mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.boundary_labels
    return read


@settings(max_examples=200, deadline=None)
@given(text=mesh_texts())
def test_load_mesh_matches_token_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("mesh") / "m.mesh"
    path.write_text(text)
    assert (_outcome(_mesh_arrays(load_mesh), path)
            == _outcome(_mesh_arrays(oracles.load_mesh_by_token), path))


# -0.0, subnormals, huge, integral and ordinary floats
SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, 1.5e-310, 2.2250738585072014e-308,
                           1e300, -1e300, 3.0, -7.0, 1e16, 1e22, 1e-5, 0.1])
FLOATS = SPECIAL | st.floats(allow_nan=False, allow_infinity=False)


def _floats(draw, count):
    return np.array(draw(st.lists(FLOATS, min_size=count, max_size=count)))


@st.composite
def written_objects(draw):
    """A stand-in mesh, field, Cauchy data, inner value, L-curve, isoline and
    report with arbitrary finite floats (the writers read attributes only)."""
    n = draw(st.integers(1, 8))
    m, k, ko, ki = (draw(st.integers(0, 6)) for _ in range(4))
    ints = st.integers(0, 10**12)
    boundary = SimpleNamespace(
        outer_nodes=np.array(draw(st.lists(ints, min_size=ko, max_size=ko)), dtype=np.int64),
        outer_arcs=_floats(draw, ko),
        inner_nodes=np.array(draw(st.lists(ints, min_size=ki, max_size=ki)), dtype=np.int64),
        inner_arcs=_floats(draw, ki))
    mesh = SimpleNamespace(
        nodes=_floats(draw, 2 * n).reshape(n, 2), node_count=n,
        triangles=np.array(draw(st.lists(ints, min_size=3 * m, max_size=3 * m)),
                           dtype=np.int64).reshape(m, 3), triangle_count=m,
        boundary_edges=np.array(draw(st.lists(ints, min_size=2 * k, max_size=2 * k)),
                                dtype=np.int64).reshape(k, 2),
        boundary_labels=np.array(draw(st.lists(st.sampled_from(["outer", "inner"]),
                                               min_size=k, max_size=k)), dtype="U5"),
        boundary=boundary)
    fld = SimpleNamespace(mesh=mesh, values=_floats(draw, n))
    data = SimpleNamespace(f=_floats(draw, ko), g=_floats(draw, ko))
    count = draw(st.integers(0, 5))
    curve = LCurve(_floats(draw, count), _floats(draw, count), _floats(draw, count),
                   corner_index=draw(st.integers(-1, max(count - 1, -1))))
    isoline = Isoline(0.0, polylines=[
        _floats(draw, 2 * size).reshape(size, 2)
        for size in draw(st.lists(st.integers(1, 4), max_size=3))])
    report = dict(zip(["a", "b", "c", "d", "e"], [
        draw(FLOATS), np.float64(draw(FLOATS)), draw(st.integers(-5, 5)),
        draw(st.sampled_from(["TC1", "closed"])), draw(st.booleans())]))
    return mesh, fld, data, _floats(draw, ki), curve, isoline, report


@st.composite
def csv_cases(draw):
    mesh = draw(st.sampled_from(BASE_MESHES))
    kind = draw(st.sampled_from(["flux", "cauchy", "polyline"]))
    text = draw({"flux": flux_texts(mesh), "cauchy": cauchy_texts(mesh),
                 "polyline": polyline_texts()}[kind])
    return mesh, kind, text


@settings(max_examples=300, deadline=None)
@given(case=csv_cases())
def test_csv_readers_match_token_oracles(tmp_path_factory, case):
    mesh, kind, text = case
    path = tmp_path_factory.mktemp("csv") / "f.csv"
    path.write_bytes(text.encode("ascii"))
    n, outer = mesh.node_count, mesh.boundary.outer_nodes
    readers = {
        "flux": (lambda p: [fio.read_flux_csv(p, mesh).values],
                 lambda p: [oracles.read_node_csv_by_token(
                     p, "node_index,r,z,psi", np.arange(n), slice(3, 4),
                     f"node index {{}} outside [0, {n})", "missing node values")[:, 0]]),
        "cauchy": (lambda p: [getattr(fio.read_cauchy_csv(p, mesh), k) for k in "fg"],
                   lambda p: list(oracles.read_node_csv_by_token(
                       p, "gamma_v_node,arc_length,f,g", outer, slice(2, 4),
                       "node {} is not on the outer boundary",
                       "missing outer boundary rows").T)),
        "polyline": (lambda p: [fio.read_polyline_csv(p)],
                     lambda p: [oracles.read_polyline_csv_by_token(p)]),
    }
    read, oracle = readers[kind]
    assert _outcome(read, path) == _outcome(oracle, path)


@settings(max_examples=100, deadline=None)
@given(objects=written_objects())
def test_writers_match_row_oracles(tmp_path_factory, objects):
    mesh, fld, data, u, curve, isoline, report = objects
    out = tmp_path_factory.mktemp("w")
    pairs = [
        (lambda p: save_mesh(mesh, p), lambda p: oracles.save_mesh_by_row(mesh, p)),
        (lambda p: fio.write_report(p, report),
         lambda p: oracles.write_report_by_row(p, report)),
        (lambda p: fio.write_flux_csv(p, fld), lambda p: oracles.write_flux_csv_by_row(p, fld)),
        (lambda p: fio.save_fields(vtk=[(p, fld)]),
         lambda p: oracles.write_vtk_by_row(p, fld)),
        (lambda p: fio.write_cauchy_csv(p, mesh, data),
         lambda p: oracles.write_cauchy_csv_by_row(p, mesh, data)),
        (lambda p: fio.write_control_csv(p, mesh, u),
         lambda p: oracles.write_control_csv_by_row(p, mesh, u)),
        (lambda p: fio.write_lcurve_csv(p, curve),
         lambda p: oracles.write_lcurve_csv_by_row(p, curve)),
        (lambda p: fio.write_isoline_csv(p, isoline),
         lambda p: oracles.write_isoline_csv_by_row(p, isoline)),
    ]
    for i, (write, oracle) in enumerate(pairs):
        write(out / f"{i}.new")
        oracle(out / f"{i}.old")
        assert (out / f"{i}.new").read_bytes() == (out / f"{i}.old").read_bytes(), i


@st.composite
def field_files(draw):
    """The format and field of each of up to six files, in any order, for up
    to three fields, a field in any number of files, on one mesh, generated
    or a stand-in."""
    if draw(st.booleans()):
        outer = draw(st.sampled_from([circle_loop(6.0, 0.0, 2.0, 24),
                                      dee_loop(6.0, 2.0, 3.0, 0.3, 32)]))
        mesh = generate_annulus_mesh(outer, scale_toward_centroid(
            outer, draw(st.floats(0.3, 0.7))), draw(st.floats(0.4, 1.0)))
    else:
        n, m = draw(st.integers(1, 8)), draw(st.integers(0, 6))
        mesh = SimpleNamespace(
            nodes=_floats(draw, 2 * n).reshape(n, 2), node_count=n, triangle_count=m,
            triangles=np.array(draw(st.lists(st.integers(-2, n + 1), min_size=3 * m,
                                             max_size=3 * m)), dtype=np.int64).reshape(m, 3))
    fields = [SimpleNamespace(mesh=mesh, values=_floats(draw, mesh.node_count))
              for _ in range(draw(st.integers(1, 3)))]
    return draw(st.lists(st.tuples(st.sampled_from(["csv", "vtk"]),
                                   st.sampled_from(fields)), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(files=field_files())
def test_shared_rendering_matches_row_oracles(tmp_path_factory, files):
    """Node files written together, once and again, and one at a time, are
    each the row oracle's bytes."""
    out = tmp_path_factory.mktemp("fields")
    paths = [out / f"{i}.{kind}" for i, (kind, _) in enumerate(files)]
    oracle = {"csv": oracles.write_flux_csv_by_row, "vtk": oracles.write_vtk_by_row}
    for path, (kind, fld) in zip(paths, files):
        oracle[kind](path.with_suffix(".old"), fld)
    for _ in range(2):
        fio.save_fields(**{kind: [(path, fld) for path, (k, fld) in zip(paths, files)
                                  if k == kind] for kind in ("csv", "vtk")})
        for path in paths:
            assert path.read_bytes() == path.with_suffix(".old").read_bytes(), path.name
    for path, (kind, fld) in zip(paths, files):
        fio.save_fields(**{kind: [(path, fld)]})
        assert path.read_bytes() == path.with_suffix(".old").read_bytes(), path.name


def test_save_fields_rejects_fields_of_different_meshes(tmp_path):
    a, b = build_square_mesh(2), build_square_mesh(2)
    with pytest.raises(ValueError, match="fields of different meshes"):
        fio.save_fields(csv=[(tmp_path / "a.csv", FluxField(np.zeros(9), a))],
                        vtk=[(tmp_path / "b.vtk", FluxField(np.zeros(9), b))])
    assert not list(tmp_path.iterdir())


def _respell(draw, token: str) -> str:
    """Another spelling of a float token that reads as the same float: a
    trailing zero, an exponent, a plus sign, a leading zero or 17 digits."""
    mantissa, e, exponent = token.partition("e")
    kind = draw(st.sampled_from(["zero", "exponent", "plus", "lead", "digits"]))
    if kind == "zero":
        return mantissa + ("0" if "." in mantissa else ".0") + e + exponent
    if kind == "exponent":
        return token.upper() if e else token + "e0"
    if kind == "plus":
        return token if token.startswith("-") else "+" + token
    if kind == "lead":
        return token if token.startswith("-") else "0" + token
    return "%.16e" % float(token)


def _rewritten(tmp_path, text: str):
    """The mesh file `text` loaded, then saved, and the r column of a flux
    CSV of psi = r on the mesh read."""
    (tmp_path / "m.mesh").write_text(text)
    mesh = load_mesh(tmp_path / "m.mesh")
    save_mesh(mesh, tmp_path / "back.mesh")
    fld = FluxField(mesh.nodes[:, 0].copy(), mesh)
    fio.save_fields(csv=[(tmp_path / "f.csv", fld)], vtk=[(tmp_path / "f.vtk", fld)])
    r = [line.split(",")[1] for line in (tmp_path / "f.csv").read_text().splitlines()[1:]]
    return (tmp_path / "back.mesh").read_text(), r


def test_non_canonical_coordinates_are_written_in_shortest_repr(tmp_path):
    text, r = _rewritten(tmp_path, "nodes 4\n6.50 0\n7.5 0.0\n7.5 6.5e0\n+6.5 +6.5\n"
                         "triangles 2\n0 1 2\n0 2 3\nboundary_edges 4\n"
                         "0 1 outer\n1 2 outer\n2 3 outer\n3 0 outer\n")
    assert text.splitlines()[1:5] == ["6.5 0.0", "7.5 0.0", "7.5 6.5", "6.5 6.5"]
    assert r == ["6.5", "7.5", "7.5", "6.5"]


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(1e-3, 1e3), shift=st.floats(-1e3, 1e3), data=st.data())
def test_written_numbers_come_from_the_floats_not_the_tokens(tmp_path_factory, scale,
                                                             shift, data):
    """A mesh file whose coordinates are spelled otherwise is written back
    as the one written from its floats."""
    mesh = BASE_MESHES[0]
    rows = _mesh_rows(mesh, scale, shift)
    canonical = "\n".join(map(" ".join, rows)) + "\n"
    for row in rows[1:mesh.node_count + 1]:
        row[:] = [_respell(data.draw, token) for token in row]
    text, r = _rewritten(tmp_path_factory.mktemp("spelled"),
                         "\n".join(map(" ".join, rows)) + "\n")
    assert text == canonical
    assert r == [row.split(" ")[0] for row in canonical.splitlines()[1:mesh.node_count + 1]]


@settings(max_examples=50, deadline=None)
@given(values=st.lists(FLOATS, min_size=9, max_size=9),
       fg=st.lists(st.tuples(FLOATS, FLOATS), min_size=8, max_size=8))
def test_csv_round_trips_are_bit_exact(tmp_path_factory, values, fg):
    mesh = build_square_mesh(2)
    out = tmp_path_factory.mktemp("csv")
    fld = FluxField(np.array(values), mesh)
    fio.write_flux_csv(out / "f.csv", fld)
    assert fio.read_flux_csv(out / "f.csv", mesh).values.tobytes() == fld.values.tobytes()
    data = CauchyData(*np.array(fg).T)
    fio.write_cauchy_csv(out / "d.csv", mesh, data)
    back = fio.read_cauchy_csv(out / "d.csv", mesh)
    assert (back.f.tobytes(), back.g.tobytes()) == (data.f.tobytes(), data.g.tobytes())


# the documented exit codes: 4 for a file that cannot be read or is
# malformed, 3 for a mesh validation or meshing failure or a numerical one,
# 2 for any other ValueError (a bad option value, ConfigError included); a
# type maps by its nearest listed base class
EXIT_CODES = {OSError: 4, UnicodeError: 4, MeshFormatError: 4,
              MeshValidationError: 3, MeshGeometryError: 3, RuntimeError: 3,
              np.linalg.LinAlgError: 3, ValueError: 2}


def documented_exit(exc) -> int:
    for cls in type(exc).__mro__:
        if cls in EXIT_CODES:
            return EXIT_CODES[cls]
    raise AssertionError(f"undocumented exception {exc!r} reaches cli.main")


@settings(max_examples=40, deadline=None)
@given(exc=st.sampled_from([
    cli.ConfigError("c"), MeshValidationError("v"), MeshTopologyError("t"),
    MeshGeometryError("g"), FemError("S_D - S_N is indefinite"),
    NearSingularError("s"), FemError("f"), NoTransitionError("n"),
    DegenerateCurveError("d"),
    np.linalg.LinAlgError("l"), MeshFormatError("m"), EmptyIsolineError("e"),
    ValueError("v"), OSError("o"), FileNotFoundError("f"),
    UnicodeDecodeError("ascii", b"\xff", 0, 1, "not ascii")]))
def test_exception_types_map_to_documented_exit_codes(exc):
    def command(cfg):
        raise exc
    with mock.patch.dict(cli._COMMANDS, {"mesh": command}):
        assert cli.main(["mesh"]) == documented_exit(exc)


@st.composite
def contour_inputs(draw):
    mesh = draw(st.sampled_from(BASE_MESHES))
    return draw(mesh_texts(mesh)), draw(flux_texts(mesh))


@settings(max_examples=60, deadline=None)
@given(texts=contour_inputs())
def test_corrupted_files_exit_with_documented_codes(tmp_path_factory, texts):
    out = tmp_path_factory.mktemp("contour")
    (out / "m.mesh").write_text(texts[0])
    (out / "f.csv").write_text(texts[1])
    argv = ["contour", "--mesh", str(out / "m.mesh"), "--field", str(out / "f.csv"),
            "--level", "1.5", "--output-dir", str(out)]
    try:
        cli._COMMANDS["contour"](cli._read_args(argv))
        expected = 0
    except Exception as exc:                     # what reaches cli.main
        expected = documented_exit(exc)
    assert cli.main(argv) == expected


@settings(max_examples=60, deadline=None)
@given(texts=contour_inputs())
def test_corrupted_files_never_exit_as_config_errors(tmp_path_factory, texts):
    """A reader fault is a file fault (4) or an invalid mesh (3), never a
    bad option value (2)."""
    out = tmp_path_factory.mktemp("contour")
    (out / "m.mesh").write_text(texts[0])
    (out / "f.csv").write_text(texts[1])
    try:
        fio.read_flux_csv(out / "f.csv", load_mesh(out / "m.mesh"))
    except (MeshFormatError, MeshValidationError, OSError) as exc:
        code = 3 if isinstance(exc, MeshValidationError) else 4
        assert cli.main(["contour", "--mesh", str(out / "m.mesh"), "--field",
                         str(out / "f.csv"), "--level", "1.5",
                         "--output-dir", str(out)]) == code
