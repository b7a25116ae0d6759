"""Batch command-line front end.

Commands: mesh, complete, twin, lcurve, contour.  Options come from a flat
key=value config file, overridden by command-line flags.  One table,
_OPTIONS, declares each flag, its config key and its kind, which converts a
flag's text and a config value alike; a command converts its options before
it reads any file.  Identical config and seed reproduce byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
`main` alone decides them, by exception kind: a file that cannot be read
or is malformed (OSError, UnicodeError, MeshFormatError) exits 4; a mesh
that fails validation or meshing, or a numerical failure (RuntimeError,
LinAlgError), exits 3; any other ValueError is a bad option value and exits
2.  The library checks each value once, so commands catch nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import completion as cp
from . import experiments as ex
from . import io as fio
from . import postprocess as pp
from . import regularization as reg
from .fem import assemble_stiffness
from .mesh import (MeshFormatError, MeshGeometryError, MeshValidationError, _read_lines,
                   generate_annulus_mesh, load_mesh, save_mesh, scale_toward_centroid)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _boolean(value) -> bool:
    """A set switch, or a config file's `true` or `false`."""
    if value is True or value == "true":
        return True
    if value == "false":
        return False
    raise ValueError(value)


# the built-in mesh geometries, by name
_PRESETS = {"desk": ex.desk_annulus_mesh, "iter": ex.iter_like_mesh}


def _preset(name):
    """The mesh builder of a preset name."""
    return _PRESETS[name]


_NOUNS = {float: "a number", int: "an integer", _boolean: "true or false",
          _preset: " or ".join(_PRESETS)}

# every command's options, as (flag, option, kind, help).  The option is the
# config key; its kind converts a flag's text and a config value alike.  A
# switch, of kind _boolean, takes no value on the command line
_MESH = ("--mesh", "mesh_path", str, "mesh file")
_DATA = ("--data", "data_path", str, "Cauchy data CSV")
_EPSILON = ("--epsilon", "epsilon", float, "regularization strength")
_TWIN = [("--case", "case", str, "twin case: TC1, TC2 or MANUFACTURED:<name>"),
         ("--noise", "noise_level", float, "twin data noise, a fraction of its RMS"),
         ("--seed", "seed", int, "twin data noise seed")]
_OPTIONS = {
    "mesh": [("--preset", "preset", _preset, "built-in geometry: desk or iter"),
             ("--outer-csv", "outer_csv", str, "outer loop polyline CSV (r,z)"),
             ("--inner-csv", "inner_csv", str, "inner loop polyline CSV (r,z)"),
             ("--offset-factor", "offset_factor", float, "inner = outer scaled toward "
              "centroid by this factor in (0, 1) when no inner given (default 0.5)"),
             ("--target-h", "target_h", float, "edge length target")],
    "complete": [_MESH, _DATA, _EPSILON],
    "twin": [_MESH, *_TWIN, _EPSILON,
             ("--table1", "table1", _boolean, "emit the full noise-by-case error grid")],
    "lcurve": [_MESH, _DATA, *_TWIN,
               ("--eps-max", "eps_max", float, "largest epsilon of the grid"),
               ("--eps-min", "eps_min", float, "smallest epsilon of the grid"),
               ("--eps-count", "eps_count", int, "grid size")],
    "contour": [_MESH, ("--field", "field_path", str, "flux CSV"),
                ("--level", "level", float, "flux level of the isoline"),
                ("--plasma-boundary", "plasma_boundary", _boolean, "find the plasma boundary"),
                ("--limiter", "limiter_path", str, "limiter polyline CSV for limiter mode")],
}
_KINDS = {option: kind for rows in _OPTIONS.values() for _, option, kind, _ in rows}


def _read_config(path) -> dict:
    """A config file's options; each key must be an option of some command,
    given once."""
    try:
        numbers, lines = _read_lines(path, "#")
    except (OSError, MeshFormatError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    known = {*_KINDS, "output_dir"}
    cfg, first = {}, {}
    for lineno, line in zip(numbers, lines):
        key, eq, value = line.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown option {key!r}")
        if key in first:
            raise ConfigError(f"{path}:{lineno}: option {key!r} already set "
                              f"at line {first[key]}")
        first[key] = lineno
        cfg[key] = value.strip()
    return cfg


class _Parser(argparse.ArgumentParser):
    """Keeps the attached ``--flag=--`` as the value ``--``.

    argparse before Python 3.13 drops every ``--`` from an option's values,
    so that form would read as an empty list instead of a string.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fluxrec",
        description="Vacuum flux reconstruction from magnetic boundary data")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, rows in _OPTIONS.items():
        p = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output-dir", help="artifact directory")
        for flag, option, kind, text in rows:
            p.add_argument(flag, dest=option, help=text,
                           action="store_true" if kind is _boolean else "store")
    return parser


def _merge(args: argparse.Namespace) -> dict:
    """Config file values with command-line overrides on top, as text (a set
    switch as True)."""
    cfg: dict = {}
    if args.config:
        cfg.update(_read_config(args.config))
    for key, value in vars(args).items():
        if key != "config" and value is not None and value is not False:
            cfg[key] = value
    cfg.setdefault("output_dir", ".")
    return cfg


def _option(cfg, key, default=None):
    """Option `key` converted by its kind, else `default`; with no default
    the option is required."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required option: {key}")
        return default
    kind = _KINDS[key]
    try:
        return kind(cfg[key])
    except (KeyError, ValueError):
        raise ConfigError(f"option {key} must be {_NOUNS[kind]}, got {cfg[key]!r}")


def _given(cfg, **params) -> dict:
    """The options named by params' values that were given, converted, keyed
    by parameter: the library's own defaults stand for the others."""
    return {param: _option(cfg, key) for param, key in params.items() if key in cfg}


def _twin_spec(cfg) -> ex.TwinSpec:
    return ex.TwinSpec(_option(cfg, "case"),
                       **_given(cfg, noise_level="noise_level", seed="seed"))


def _outdir(cfg) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _outdir_and_mesh(cfg):
    """The output directory, made, and the mesh read: a command's options
    are converted first, so a bad value is reported before any file is read."""
    mesh_path = _option(cfg, "mesh_path")
    return _outdir(cfg), load_mesh(mesh_path)


def _csv_mesh(cfg):
    """The builder of the mesh between the polyline files of cfg, its options
    checked."""
    factor = None if "inner_csv" in cfg else _option(cfg, "offset_factor", 0.5)
    if factor is not None and not 0.0 < factor < 1.0:
        raise ConfigError(f"option offset_factor must lie in (0, 1), got {factor!r}")
    target_h = _option(cfg, "target_h")
    if not 0.0 < target_h < np.inf:
        raise ConfigError(f"option target_h must be finite and positive, got {target_h!r}")

    def build():
        outer = fio.read_polyline_csv(cfg["outer_csv"])
        inner = (fio.read_polyline_csv(cfg["inner_csv"]) if factor is None
                 else scale_toward_centroid(outer, factor))
        return generate_annulus_mesh(outer, inner, target_h)
    return build


def _cmd_mesh(cfg) -> int:
    """generate an annulus mesh"""
    if "preset" in cfg:
        build = _option(cfg, "preset")
    elif "outer_csv" in cfg:
        build = _csv_mesh(cfg)
    else:
        raise ConfigError("mesh needs --preset or --outer-csv")
    out = _outdir(cfg)
    m = build()
    path = os.path.join(out, "mesh.txt")
    save_mesh(m, path)
    b = m.boundary
    print(f"mesh: {m.node_count} nodes, {m.triangle_count} triangles, "
          f"{len(b.outer_nodes)} outer + {len(b.inner_nodes)} inner boundary nodes")
    print(f"wrote {path}")
    return EXIT_OK


def _write_completion(out, mesh, result) -> None:
    """u_opt.csv, psi_opt.csv and psi_opt.vtk of a completion result."""
    fio.write_control_csv(os.path.join(out, "u_opt.csv"), mesh, result.u_opt)
    fio.write_flux_csv(os.path.join(out, "psi_opt.csv"), result.psi_opt)
    fio.write_vtk(os.path.join(out, "psi_opt.vtk"), result.psi_opt)


def _cmd_complete(cfg) -> int:
    """solve the data completion problem"""
    data_path, epsilon = _option(cfg, "data_path"), _option(cfg, "epsilon")
    out, mesh = _outdir_and_mesh(cfg)
    data = fio.read_cauchy_csv(data_path, mesh)
    A = assemble_stiffness(mesh)
    result = cp.solve_completion(cp.assemble_kv(mesh, A, data), epsilon)
    fio.write_report(os.path.join(out, "report.txt"), {
        "J": result.J, "R_D": result.R_D, "J_eps": result.J_eps,
        "epsilon": result.epsilon, "residual_norm": result.residual_norm,
    })
    _write_completion(out, mesh, result)
    print(f"J = {result.J:.6g}  R_D = {result.R_D:.6g}  "
          f"J_eps = {result.J_eps:.6g}  (epsilon = {epsilon:g})")
    return EXIT_OK


def _cmd_twin(cfg) -> int:
    """run a twin experiment"""
    if _option(cfg, "table1", False):
        seed = _given(cfg, seed="seed")
        out, mesh = _outdir_and_mesh(cfg)
        text, _ = ex.table1_grid(mesh, **seed)
        with open(os.path.join(out, "table1.txt"), "w", encoding="ascii") as fh:
            fh.write(text)
        print(text, end="")
        return EXIT_OK
    spec, epsilon = _twin_spec(cfg), _option(cfg, "epsilon")
    out, mesh = _outdir_and_mesh(cfg)
    report = ex.run_twin(mesh, spec, epsilon)
    result = report.result
    # at u = 0 both J and J_eps equal the constant term, as R_D(0) = 0
    j0 = result.system.constant_term
    fio.write_report(os.path.join(out, "twin_report.txt"), {
        "case": spec.case, "noise_level": spec.noise_level, "seed": spec.seed,
        "epsilon": result.epsilon, "max_rel_err_u": report.max_rel_err_u,
        "J_at_zero": j0, "J_eps_at_zero": j0,
        "J": result.J, "R_D": result.R_D, "J_eps": result.J_eps,
        "residual_norm": result.residual_norm,
    })
    _write_completion(out, mesh, result)
    fio.write_control_csv(os.path.join(out, "u_ref.csv"), mesh, report.u_ref)
    fio.write_flux_csv(os.path.join(out, "field_rel_err.csv"), report.field_rel_err)
    print(f"max_rel_err_u = {report.max_rel_err_u:.6g}  "
          f"J = {result.J:.6g}  R_D = {result.R_D:.6g}")
    return EXIT_OK


def _cmd_lcurve(cfg) -> int:
    """sweep epsilon and find the corner"""
    spec = None if "data_path" in cfg else _twin_spec(cfg)
    grid = reg.default_grid(**_given(cfg, count="eps_count", lo="eps_min", hi="eps_max"))
    out, mesh = _outdir_and_mesh(cfg)
    A = assemble_stiffness(mesh)
    if spec is None:
        data = fio.read_cauchy_csv(cfg["data_path"], mesh)
    else:
        _, clean = ex.generate_reference(mesh, A, spec)
        data = ex.add_noise(clean, spec.noise_level, spec.seed)
    curve = reg.sweep(cp.assemble_kv(mesh, A, data), data, grid)
    fio.write_lcurve_csv(os.path.join(out, "lcurve.csv"), curve)
    print(f"corner epsilon = {curve.corner_epsilon:g} "
          f"({len(curve)} points, {len(curve.dropped)} dropped)")
    return EXIT_OK


def _cmd_contour(cfg) -> int:
    """extract isolines / plasma boundary"""
    field_path = _option(cfg, "field_path")
    boundary = _option(cfg, "plasma_boundary", False)
    if not (boundary or "level" in cfg):
        raise ConfigError("contour needs --level or --plasma-boundary")
    level = None if boundary else _option(cfg, "level")
    out, mesh = _outdir_and_mesh(cfg)
    fld = fio.read_flux_csv(field_path, mesh)
    if boundary:
        limiter = None
        if "limiter_path" in cfg:
            limiter = fio.read_polyline_csv(cfg["limiter_path"])
        psi_p, iso, mode = pp.find_plasma_boundary(fld, limiter=limiter)
        fio.write_isoline_csv(os.path.join(out, "boundary.csv"), iso)
        fio.write_report(os.path.join(out, "boundary_report.txt"),
                         {"psi_P": psi_p, "mode": mode})
        print(f"psi_P = {psi_p:.6g}  mode = {mode}")
        return EXIT_OK
    iso = pp.extract_isoline(fld, level)
    fio.write_isoline_csv(os.path.join(out, "isoline.csv"), iso)
    print(f"{len(iso.polylines)} polyline(s), closed = {iso.closed}")
    return EXIT_OK


# exit code of a failure by exception kind; the first row that matches wins
# (UnicodeError, MeshFormatError and LinAlgError are ValueErrors too)
_FAILURES = [
    ((OSError, UnicodeError, MeshFormatError), EXIT_IO, "i/o error"),
    ((MeshValidationError, MeshGeometryError), EXIT_NUMERICAL, "mesh error"),
    ((RuntimeError, np.linalg.LinAlgError), EXIT_NUMERICAL, "numerical failure"),
    (ValueError, EXIT_CONFIG, "config error"),      # ConfigError among them
]

_COMMANDS = {
    "mesh": _cmd_mesh,
    "complete": _cmd_complete,
    "twin": _cmd_twin,
    "lcurve": _cmd_lcurve,
    "contour": _cmd_contour,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](_merge(args))
    except (OSError, RuntimeError, ValueError) as exc:
        for kinds, code, kind in _FAILURES:
            if isinstance(exc, kinds):
                print(f"{kind}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
