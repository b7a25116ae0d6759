"""Batch command-line front end.

Commands: mesh, complete, twin, lcurve, contour.  Options come from a flat
key=value config file, overridden by command-line flags.  Artifacts are
deterministic: identical config and seed reproduce byte-identical files.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
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
from .mesh import (MeshFormatError, MeshGeometryError, MeshValidationError,
                   generate_annulus_mesh, load_mesh, save_mesh,
                   scale_toward_centroid)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _read_config(path) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxrec",
        description="Vacuum flux reconstruction from magnetic boundary data")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--output-dir", help="artifact directory")

    p_mesh = sub.add_parser("mesh", help="generate an annulus mesh")
    common(p_mesh)
    p_mesh.add_argument("--preset", choices=["desk", "iter"],
                        help="built-in geometry")
    p_mesh.add_argument("--outer-csv", help="outer loop polyline CSV (r,z)")
    p_mesh.add_argument("--inner-csv", help="inner loop polyline CSV (r,z)")
    p_mesh.add_argument("--offset-factor", type=float, default=0.5,
                        help="inner = outer scaled toward centroid when no inner given")
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


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")


def _as_float(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required option: {key}")
        return default
    try:
        return float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"option {key} must be a number, got {cfg[key]!r}")


def _as_int(cfg, key, default=None):
    if key not in cfg:
        if default is None:
            raise ConfigError(f"missing required option: {key}")
        return default
    try:
        return int(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"option {key} must be an integer, got {cfg[key]!r}")


def _epsilon(cfg) -> float:
    epsilon = _as_float(cfg, "epsilon")
    if not epsilon >= 0.0:
        raise ConfigError(f"option epsilon must be nonnegative, got {epsilon!r}")
    return epsilon


def _twin_spec(cfg) -> ex.TwinSpec:
    _require(cfg, "case")
    try:
        return ex.TwinSpec(cfg["case"], _as_float(cfg, "noise_level", 0.0),
                           _as_int(cfg, "seed", 0))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_mesh(cfg):
    _require(cfg, "mesh_path")
    return load_mesh(cfg["mesh_path"])


def _outdir(cfg) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def _cmd_mesh(cfg) -> int:
    out = _outdir(cfg)
    preset = cfg.get("preset")
    if preset == "desk":
        m = ex.desk_annulus_mesh()
    elif preset == "iter":
        m = ex.iter_like_mesh()
    elif "outer_csv" in cfg:
        outer = fio.read_polyline_csv(cfg["outer_csv"])
        if "inner_csv" in cfg:
            inner = fio.read_polyline_csv(cfg["inner_csv"])
        else:
            inner = scale_toward_centroid(outer, _as_float(cfg, "offset_factor", 0.5))
        m = generate_annulus_mesh(outer, inner, _as_float(cfg, "target_h"))
    else:
        raise ConfigError("mesh needs --preset or --outer-csv")
    path = os.path.join(out, "mesh.txt")
    save_mesh(m, path)
    b = m.boundary
    print(f"mesh: {m.node_count} nodes, {m.triangle_count} triangles, "
          f"{len(b.outer_nodes)} outer + {len(b.inner_nodes)} inner boundary nodes")
    print(f"wrote {path}")
    return EXIT_OK


def _write_completion(out, mesh, result, data) -> None:
    fio.write_report(os.path.join(out, "report.txt"), {
        "J": result.J, "R_D": result.R_D, "J_eps": result.J_eps,
        "epsilon": result.epsilon, "residual_norm": result.residual_norm,
    })
    fio.write_control_csv(os.path.join(out, "u_opt.csv"), mesh, result.u_opt)
    fio.write_flux_csv(os.path.join(out, "psi_opt.csv"), result.psi_opt)
    fio.write_vtk(os.path.join(out, "psi_opt.vtk"), result.psi_opt)


def _cmd_complete(cfg) -> int:
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    _require(cfg, "data_path")
    data = fio.read_cauchy_csv(cfg["data_path"], mesh)
    epsilon = _epsilon(cfg)
    A = assemble_stiffness(mesh)
    system = cp.assemble_kv(mesh, A, data)
    result = cp.solve_completion(system, epsilon)
    _write_completion(out, mesh, result, data)
    print(f"J = {result.J:.6g}  R_D = {result.R_D:.6g}  "
          f"J_eps = {result.J_eps:.6g}  (epsilon = {epsilon:g})")
    return EXIT_OK


def _cmd_twin(cfg) -> int:
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    if cfg.get("table1"):
        text, rows = ex.table1_grid(mesh, seed=_as_int(cfg, "seed", 0))
        with open(os.path.join(out, "table1.txt"), "w", encoding="ascii") as fh:
            fh.write(text)
        print(text, end="")
        return EXIT_OK
    spec = _twin_spec(cfg)
    epsilon = _epsilon(cfg)
    report = ex.run_twin(mesh, spec, epsilon)
    fio.write_report(os.path.join(out, "twin_report.txt"), {
        "case": spec.case, "noise_level": spec.noise_level, "seed": spec.seed,
        "epsilon": report.epsilon, "max_rel_err_u": report.max_rel_err_u,
        "J_at_zero": report.J0, "J_eps_at_zero": report.J_eps0,
        "J": report.J, "R_D": report.R_D, "J_eps": report.J_eps,
        "residual_norm": report.result.residual_norm,
    })
    fio.write_control_csv(os.path.join(out, "u_opt.csv"), mesh, report.u_opt)
    fio.write_control_csv(os.path.join(out, "u_ref.csv"), mesh, report.u_ref)
    fio.write_flux_csv(os.path.join(out, "psi_opt.csv"), report.psi_opt)
    fio.write_flux_csv(os.path.join(out, "field_rel_err.csv"), report.field_rel_err)
    fio.write_vtk(os.path.join(out, "psi_opt.vtk"), report.psi_opt)
    print(f"max_rel_err_u = {report.max_rel_err_u:.6g}  "
          f"J = {report.J:.6g}  R_D = {report.R_D:.6g}")
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
    try:
        # the grid options are the only ValueError source in the sweep
        curve = reg.sweep(system, data, reg.default_grid(
            _as_int(cfg, "eps_count", 20), _as_float(cfg, "eps_min", 1e-6),
            _as_float(cfg, "eps_max", 1e-1)))
    except ValueError as exc:
        raise ConfigError(f"epsilon grid: {exc}") from None
    fio.write_lcurve_csv(os.path.join(out, "lcurve.csv"), curve)
    print(f"corner epsilon = {curve.corner_epsilon:g} "
          f"({len(curve)} points, {len(curve.dropped)} dropped)")
    return EXIT_OK


def _cmd_contour(cfg) -> int:
    out = _outdir(cfg)
    mesh = _load_mesh(cfg)
    _require(cfg, "field_path")
    fld = fio.read_flux_csv(cfg["field_path"], mesh)
    if cfg.get("plasma_boundary"):
        limiter = None
        if "limiter_path" in cfg:
            limiter = fio.read_polyline_csv(cfg["limiter_path"])
        psi_p, iso, mode = pp.find_plasma_boundary(fld, mesh, limiter=limiter)
        fio.write_isoline_csv(os.path.join(out, "boundary.csv"), iso)
        fio.write_report(os.path.join(out, "boundary_report.txt"),
                         {"psi_P": psi_p, "mode": mode})
        print(f"psi_P = {psi_p:.6g}  mode = {mode}")
        return EXIT_OK
    if "level" not in cfg:
        raise ConfigError("contour needs --level or --plasma-boundary")
    iso = pp.extract_isoline(fld, _as_float(cfg, "level"), mesh)
    fio.write_isoline_csv(os.path.join(out, "isoline.csv"), iso)
    print(f"{len(iso.polylines)} polyline(s), closed = {iso.closed}")
    return EXIT_OK


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
        cfg = _merge(args)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshFormatError, OSError, ValueError) as exc:
        # ValueError here covers malformed data files; numeric domain errors
        # derive from RuntimeError below
        if isinstance(exc, (MeshValidationError, MeshGeometryError)):
            print(f"mesh error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
