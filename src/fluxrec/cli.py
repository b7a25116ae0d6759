"""Batch command-line front end.

Commands: mesh, complete, twin, lcurve, contour.  Options come from a flat
key=value config file, overridden by command-line flags.  Artifacts are
deterministic: identical config and seed reproduce byte-identical files.

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

_PRESETS = ("desk", "iter")     # the built-in mesh geometries


class ConfigError(ValueError):
    pass


def _read_config(path) -> dict:
    """A config file's options; each key must be an option of some command,
    given once."""
    try:
        numbers, lines = _read_lines(path, "#")
    except (OSError, MeshFormatError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    known = _option_names(_build_parser())
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


def _option_names(parser) -> set:
    """The destinations of every command's options but --config and --help."""
    commands, = (action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    names = {action.dest for command in commands.values()
             for action in command._actions if action.option_strings}
    return names - {"config", "help"}


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

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output-dir", help="artifact directory")

    p_mesh = sub.add_parser("mesh", help="generate an annulus mesh")
    common(p_mesh)
    p_mesh.add_argument("--preset", choices=_PRESETS,
                        help="built-in geometry")
    p_mesh.add_argument("--outer-csv", help="outer loop polyline CSV (r,z)")
    p_mesh.add_argument("--inner-csv", help="inner loop polyline CSV (r,z)")
    p_mesh.add_argument("--offset-factor", type=float,
                        help="inner = outer scaled toward centroid by this factor in "
                             "(0, 1) when no inner given (default 0.5)")
    p_mesh.add_argument("--target-h", type=float, help="edge length target")

    p_cmp = sub.add_parser("complete", help="solve the data completion problem")
    common(p_cmp)
    p_cmp.add_argument("--mesh", dest="mesh_path")
    p_cmp.add_argument("--data", dest="data_path", help="Cauchy data CSV")
    p_cmp.add_argument("--epsilon", type=float)

    p_twin = sub.add_parser("twin", help="run a twin experiment")
    common(p_twin)
    p_twin.add_argument("--mesh", dest="mesh_path")
    p_twin.add_argument("--case", help="TC1, TC2 or MANUFACTURED:<name>")
    p_twin.add_argument("--noise", dest="noise_level", type=float)
    p_twin.add_argument("--seed", type=int)
    p_twin.add_argument("--epsilon", type=float)
    p_twin.add_argument("--table1", action="store_true",
                        help="emit the full noise-by-case error grid")

    p_lc = sub.add_parser("lcurve", help="sweep epsilon and find the corner")
    common(p_lc)
    p_lc.add_argument("--mesh", dest="mesh_path")
    p_lc.add_argument("--data", dest="data_path")
    p_lc.add_argument("--case", help="twin case used when no data file given")
    p_lc.add_argument("--noise", dest="noise_level", type=float)
    p_lc.add_argument("--seed", type=int)
    p_lc.add_argument("--eps-max", type=float)
    p_lc.add_argument("--eps-min", type=float)
    p_lc.add_argument("--eps-count", type=int)

    p_ct = sub.add_parser("contour", help="extract isolines / plasma boundary")
    common(p_ct)
    p_ct.add_argument("--mesh", dest="mesh_path")
    p_ct.add_argument("--field", dest="field_path", help="flux CSV")
    p_ct.add_argument("--level", type=float)
    p_ct.add_argument("--plasma-boundary", action="store_true")
    p_ct.add_argument("--limiter", dest="limiter_path",
                      help="limiter polyline CSV for limiter mode")
    return parser


def _merge(args: argparse.Namespace) -> dict:
    """Config file values with command-line overrides on top."""
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg.update(_read_config(args.config))
    for key, value in vars(args).items():
        # `is`: a flag set to 0 overrides too, although 0 == False
        if key == "config" or value is None or value is False:
            continue
        cfg[key] = value
    cfg.setdefault("output_dir", ".")
    return cfg


def _boolean(value) -> bool:
    """A set flag, or a config file's `true` or `false`."""
    if value is True or value == "true":
        return True
    if value == "false":
        return False
    raise ValueError(value)


_NOUNS = {float: "a number", int: "an integer", _boolean: "true or false"}


def _option(cfg, key, kind, default=None):
    """Option `key` converted by `kind` (str, float, int or _boolean), else
    `default`; with no default the option is required."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required option: {key}")
        return default
    try:
        return kind(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"option {key} must be {_NOUNS[kind]}, got {cfg[key]!r}")


def _twin_spec(cfg) -> ex.TwinSpec:
    return ex.TwinSpec(_option(cfg, "case", str), _option(cfg, "noise_level", float, 0.0),
                       _option(cfg, "seed", int, 0))


def _load_mesh(cfg):
    return load_mesh(_option(cfg, "mesh_path", str))


def _outdir(cfg) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_mesh(cfg) -> int:
    out = _outdir(cfg)
    preset = cfg.get("preset")
    if preset is not None and preset not in _PRESETS:
        raise ConfigError(f"option preset must be {' or '.join(_PRESETS)}, "
                          f"got {preset!r}")
    if preset == "desk":
        m = ex.desk_annulus_mesh()
    elif preset == "iter":
        m = ex.iter_like_mesh()
    elif "outer_csv" in cfg:
        outer = fio.read_polyline_csv(cfg["outer_csv"])
        if "inner_csv" in cfg:
            inner = fio.read_polyline_csv(cfg["inner_csv"])
        else:
            factor = _option(cfg, "offset_factor", float, 0.5)
            if not 0.0 < factor < 1.0:
                raise ConfigError(f"option offset_factor must lie in (0, 1), got {factor!r}")
            inner = scale_toward_centroid(outer, factor)
        target_h = _option(cfg, "target_h", float)
        if not 0.0 < target_h < np.inf:
            raise ConfigError(f"option target_h must be finite and positive, got {target_h!r}")
        m = generate_annulus_mesh(outer, inner, target_h)
    else:
        raise ConfigError("mesh needs --preset or --outer-csv")
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
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    data = fio.read_cauchy_csv(_option(cfg, "data_path", str), mesh)
    epsilon = _option(cfg, "epsilon", float)
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
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    if _option(cfg, "table1", _boolean, False):
        text, rows = ex.table1_grid(mesh, seed=_option(cfg, "seed", int, 0))
        with open(os.path.join(out, "table1.txt"), "w", encoding="ascii") as fh:
            fh.write(text)
        print(text, end="")
        return EXIT_OK
    spec = _twin_spec(cfg)
    epsilon = _option(cfg, "epsilon", float)
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
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    A = assemble_stiffness(mesh)
    if "data_path" in cfg:
        data = fio.read_cauchy_csv(cfg["data_path"], mesh)
    else:
        spec = _twin_spec(cfg)
        _, clean = ex.generate_reference(mesh, A, spec)
        data = ex.add_noise(clean, spec.noise_level, spec.seed)
    system = cp.assemble_kv(mesh, A, data)
    curve = reg.sweep(system, data, reg.default_grid(
        _option(cfg, "eps_count", int, 20), _option(cfg, "eps_min", float, 1e-6),
        _option(cfg, "eps_max", float, 1e-1)))
    fio.write_lcurve_csv(os.path.join(out, "lcurve.csv"), curve)
    print(f"corner epsilon = {curve.corner_epsilon:g} "
          f"({len(curve)} points, {len(curve.dropped)} dropped)")
    return EXIT_OK


def _cmd_contour(cfg) -> int:
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    fld = fio.read_flux_csv(_option(cfg, "field_path", str), mesh)
    if _option(cfg, "plasma_boundary", _boolean, False):
        limiter = None
        if "limiter_path" in cfg:
            limiter = fio.read_polyline_csv(cfg["limiter_path"])
        psi_p, iso, mode = pp.find_plasma_boundary(fld, limiter=limiter)
        fio.write_isoline_csv(os.path.join(out, "boundary.csv"), iso)
        fio.write_report(os.path.join(out, "boundary_report.txt"),
                         {"psi_P": psi_p, "mode": mode})
        print(f"psi_P = {psi_p:.6g}  mode = {mode}")
        return EXIT_OK
    if "level" not in cfg:
        raise ConfigError("contour needs --level or --plasma-boundary")
    iso = pp.extract_isoline(fld, _option(cfg, "level", float))
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
