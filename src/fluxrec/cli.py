"""Batch command-line front end.

Commands: mesh, complete, twin, lcurve, contour.  One table, _OPTIONS,
declares each flag, its config key and its kind.  Flags override a flat
key=value config file and are read by its rule: a flag is matched by its
full name, a value flag takes `--flag=value` or `--flag value` whatever the
value looks like (`--level -5e-1`), a switch takes none, and the last
repeat holds; -h or --help lists the flags.  A kind converts a flag's text
and a config value alike, and a command checks each value's domain with the
library's own check, and refuses a pair of _CONFLICTS, before it reads any
file; it makes its output directory once its artifacts are computed, so a
failed run leaves none.  Identical config and seed reproduce identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
`main` alone decides them, by exception kind: a file that cannot be read
or is malformed (OSError, UnicodeError, MeshFormatError) exits 4; a mesh
that fails validation or meshing, or a numerical failure (RuntimeError,
LinAlgError), exits 3; any other ValueError, a bad option value or command
line, exits 2.  The library checks each value once, so commands catch nothing.

At load the module imports only `io`, `mesh` and `postprocess`, which need
numpy alone; `complete`, `twin` and `lcurve` import the solver modules, and
with them scipy, when they run.  So `mesh` and `contour` load no scipy.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from . import io as fio
from . import postprocess as pp
from .mesh import (MeshFormatError, MeshGeometryError, MeshValidationError, _read_lines,
                   desk_annulus_mesh, generate_annulus_mesh, iter_like_mesh, load_mesh,
                   save_mesh, scale_toward_centroid)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _boolean(value) -> bool:
    """A config file's `true` or `false`; a set switch reads as `true`."""
    return {"true": True, "false": False}[value]


# the built-in mesh geometries, by name
_PRESETS = {"desk": desk_annulus_mesh, "iter": iter_like_mesh}


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
               ("--eps-count", "eps_count", int, "grid size, at most 10000")],
    "contour": [_MESH, ("--field", "field_path", str, "flux CSV"),
                ("--level", "level", float, "flux level of the isoline"),
                ("--plasma-boundary", "plasma_boundary", _boolean, "find the plasma boundary"),
                ("--limiter", "limiter_path", str, "limiter polyline CSV for limiter mode")],
}
_KINDS = {option: kind for rows in _OPTIONS.values() for _, option, kind, _ in rows}
_COMMON = [("--config", "config", str, "flat key=value config file"),
           ("--output-dir", "output_dir", str, "artifact directory")]


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


def _help(command=None) -> None:
    """Print the commands, or the flags of one, from the table's help texts."""
    if command is None:
        rows = [(name, run.__doc__) for name, run in _COMMANDS.items()]
    else:
        rows = [(flag if kind is _boolean else f"{flag} {option.upper()}", text)
                for flag, option, kind, text in [*_COMMON, *_OPTIONS[command]]]
    print(f"usage: fluxrec {command or 'COMMAND'} [FLAG ...]")
    for name, text in rows:
        print(f"  {name:<31}{text}")


def _read_args(argv) -> dict | None:
    """A command line's options over its --config file's, as text, with the
    command and output_dir (default `.`); None once help is printed."""
    command, *words = argv or [""]
    if command in ("-h", "--help"):
        return _help()
    if command not in _COMMANDS:
        raise ConfigError(f"command must be {', '.join(_COMMANDS)}, got {command!r}")
    rows = {flag: (option, kind) for flag, option, kind, _ in [*_COMMON, *_OPTIONS[command]]}
    flags = {"command": command}
    words = iter(words)
    for word in words:
        if word in ("-h", "--help"):
            return _help(command)
        flag, eq, value = word.partition("=")
        if flag not in rows:
            raise ConfigError(f"{command} has no flag {flag!r}")
        option, kind = rows[flag]
        if kind is _boolean and eq:
            raise ConfigError(f"switch {flag} takes no value, got {word!r}")
        if not eq:
            value = "true" if kind is _boolean else next(words, None)
        if value is None:
            raise ConfigError(f"flag {flag} needs a value")
        flags[option] = value
    cfg = _read_config(flags.pop("config")) if "config" in flags else {}
    return {"output_dir": ".", **cfg, **flags}


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


def _twin_spec(cfg):
    """The experiments.TwinSpec of cfg's twin options."""
    from .experiments import TwinSpec
    return TwinSpec(_option(cfg, "case"),
                    **_given(cfg, noise_level="noise_level", seed="seed"))


def _outdir(cfg) -> str:
    """The output directory, made: a command asks once its artifacts are computed."""
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


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


# each command's pairs of options of which it would drop one: a preset is a
# whole geometry, an inner loop file is not scaled from the outer loop, Table
# 1 runs its own cases, noises and epsilons, and a data file is not a twin's
_CONFLICTS = {
    "mesh": [("preset", "outer_csv"), ("preset", "inner_csv"), ("preset", "target_h"),
             ("preset", "offset_factor"), ("inner_csv", "offset_factor")],
    "twin": [("table1", "case"), ("table1", "noise_level"), ("table1", "epsilon")],
    "lcurve": [("data_path", "case"), ("data_path", "noise_level"), ("data_path", "seed")],
    "contour": [("level", "plasma_boundary")],
}


def _refuse_conflicts(cfg) -> None:
    """Refuse the first _CONFLICTS pair given together; its options are
    converted first, and a switch set to false is not given."""
    command = cfg["command"]
    given = {key for pair in _CONFLICTS[command] for key in pair
             if key in cfg and _option(cfg, key) is not False}
    flags = {option: flag for flag, option, _, _ in _OPTIONS[command]}
    for first, second in _CONFLICTS[command]:
        if {first, second} <= given:
            raise ConfigError(f"{command} takes {flags[first]} or {flags[second]}, not both")


def _cmd_mesh(cfg) -> int:
    """generate an annulus mesh"""
    _refuse_conflicts(cfg)
    if "preset" not in cfg and "outer_csv" not in cfg:
        raise ConfigError("mesh needs --preset or --outer-csv")
    build = _option(cfg, "preset") if "preset" in cfg else _csv_mesh(cfg)
    m = build()
    path = os.path.join(_outdir(cfg), "mesh.txt")
    save_mesh(m, path)
    b = m.boundary
    print(f"mesh: {m.node_count} nodes, {m.triangle_count} triangles, "
          f"{len(b.outer_nodes)} outer + {len(b.inner_nodes)} inner boundary nodes")
    print(f"wrote {path}")
    return EXIT_OK


def _write_completion(out, mesh, result, **fields) -> None:
    """u_opt.csv, psi_opt.csv and psi_opt.vtk of a completion result, and a
    flux CSV of each further field, named by its keyword: the node files
    render the mesh's node columns and psi once."""
    fio.write_control_csv(os.path.join(out, "u_opt.csv"), mesh, result.u_opt)
    psi = result.psi_opt
    fio.save_fields(
        csv=[(os.path.join(out, f"{name}.csv"), fld)
             for name, fld in {"psi_opt": psi, **fields}.items()],
        vtk=[(os.path.join(out, "psi_opt.vtk"), psi)])


def _cmd_complete(cfg) -> int:
    """solve the data completion problem"""
    from . import completion as cp
    from .fem import assemble_stiffness
    data_path = _option(cfg, "data_path")
    epsilon = cp._check_epsilon(_option(cfg, "epsilon"))
    mesh = load_mesh(_option(cfg, "mesh_path"))
    data = fio.read_cauchy_csv(data_path, mesh)
    A = assemble_stiffness(mesh)
    result = cp.solve_completion(cp.assemble_kv(mesh, A, data), epsilon)
    out = _outdir(cfg)
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
    from . import completion as cp, experiments as ex
    _refuse_conflicts(cfg)
    if _option(cfg, "table1", False):
        seed = _given(cfg, seed="seed")
        ex.TwinSpec("TC1", **seed)  # the library's check of the seed
        text, _ = ex.table1_grid(load_mesh(_option(cfg, "mesh_path")), **seed)
        with open(os.path.join(_outdir(cfg), "table1.txt"), "w", encoding="ascii") as fh:
            fh.write(text)
        print(text, end="")
        return EXIT_OK
    spec = _twin_spec(cfg)
    epsilon = cp._check_epsilon(_option(cfg, "epsilon"))
    mesh = load_mesh(_option(cfg, "mesh_path"))
    report = ex.run_twin(mesh, spec, epsilon)
    result = report.result
    # at u = 0 both J and J_eps equal the constant term, as R_D(0) = 0
    j0 = result.system.constant_term
    out = _outdir(cfg)
    fio.write_report(os.path.join(out, "twin_report.txt"), {
        "case": spec.case, "noise_level": spec.noise_level, "seed": spec.seed,
        "epsilon": result.epsilon, "max_rel_err_u": report.max_rel_err_u,
        "J_at_zero": j0, "J_eps_at_zero": j0,
        "J": result.J, "R_D": result.R_D, "J_eps": result.J_eps,
        "residual_norm": result.residual_norm,
    })
    _write_completion(out, mesh, result, field_rel_err=report.field_rel_err)
    fio.write_control_csv(os.path.join(out, "u_ref.csv"), mesh, report.u_ref)
    print(f"max_rel_err_u = {report.max_rel_err_u:.6g}  "
          f"J = {result.J:.6g}  R_D = {result.R_D:.6g}")
    return EXIT_OK


def _cmd_lcurve(cfg) -> int:
    """sweep epsilon and find the corner"""
    from . import completion as cp, experiments as ex, regularization as reg
    from .fem import assemble_stiffness
    _refuse_conflicts(cfg)
    spec = None if "data_path" in cfg else _twin_spec(cfg)
    grid = reg._check_grid(reg.default_grid(
        **_given(cfg, count="eps_count", lo="eps_min", hi="eps_max")))
    mesh = load_mesh(_option(cfg, "mesh_path"))
    A = assemble_stiffness(mesh)
    if spec is None:
        data = fio.read_cauchy_csv(cfg["data_path"], mesh)
    else:
        _, clean = ex.generate_reference(mesh, A, spec)
        data = ex.add_noise(clean, spec.noise_level, spec.seed)
    curve = reg.sweep(cp.assemble_kv(mesh, A, data), data, grid)
    fio.write_lcurve_csv(os.path.join(_outdir(cfg), "lcurve.csv"), curve)
    print(f"corner epsilon = {curve.corner_epsilon:g} "
          f"({len(curve)} points, {len(curve.dropped)} dropped)")
    return EXIT_OK


def _cmd_contour(cfg) -> int:
    """extract isolines / plasma boundary"""
    _refuse_conflicts(cfg)
    field_path = _option(cfg, "field_path")
    boundary = _option(cfg, "plasma_boundary", False)
    if not (boundary or "level" in cfg):
        raise ConfigError("contour needs --level or --plasma-boundary")
    if not boundary and "limiter_path" in cfg:
        raise ConfigError("contour --limiter needs --plasma-boundary, not --level")
    level = None if boundary else _option(cfg, "level")
    mesh = load_mesh(_option(cfg, "mesh_path"))
    fld = fio.read_flux_csv(field_path, mesh)
    if boundary:
        limiter = None
        if "limiter_path" in cfg:
            limiter = fio.read_polyline_csv(cfg["limiter_path"])
        psi_p, iso, mode = pp.find_plasma_boundary(fld, limiter=limiter)
        out = _outdir(cfg)
        fio.write_isoline_csv(os.path.join(out, "boundary.csv"), iso)
        fio.write_report(os.path.join(out, "boundary_report.txt"),
                         {"psi_P": psi_p, "mode": mode})
        print(f"psi_P = {psi_p:.6g}  mode = {mode}")
        return EXIT_OK
    iso = pp.extract_isoline(fld, level)
    fio.write_isoline_csv(os.path.join(_outdir(cfg), "isoline.csv"), iso)
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
    try:
        cfg = _read_args(sys.argv[1:] if argv is None else argv)
        return EXIT_OK if cfg is None else _COMMANDS[cfg["command"]](cfg)
    except (OSError, RuntimeError, ValueError) as exc:
        for kinds, code, kind in _FAILURES:
            if isinstance(exc, kinds):
                print(f"{kind}: {exc}", file=sys.stderr)
                return code


if __name__ == "__main__":
    sys.exit(main())
