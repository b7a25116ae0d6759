import io
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import assemble_stiffness, cli, interpolate
from fluxrec.cli import main
from fluxrec.completion import CauchyData, _check_epsilon
from fluxrec.experiments import TwinSpec, desk_annulus_mesh, generate_reference
from fluxrec.io import (read_cauchy_csv, write_cauchy_csv, write_flux_csv,
                        read_flux_csv)
from fluxrec.mesh import circle_loop, load_mesh, save_mesh
from fluxrec.regularization import _check_grid, default_grid
from conftest import build_square_mesh


@pytest.fixture(scope="module")
def desk_mesh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("mesh") / "desk.mesh"
    save_mesh(desk_annulus_mesh(), path)
    return str(path)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_mesh_preset_command(tmp_path):
    rc = main(["mesh", "--preset", "desk", "--output-dir", str(tmp_path)])
    assert rc == 0
    m = load_mesh(tmp_path / "mesh.txt")
    assert m.node_count == 1000


def test_complete_with_zero_data(desk_mesh_file, tmp_path):
    mesh = load_mesh(desk_mesh_file)
    n = len(mesh.boundary.outer_nodes)
    data_path = tmp_path / "data.csv"
    from fluxrec.completion import CauchyData, _check_epsilon
    write_cauchy_csv(data_path, mesh, CauchyData(np.zeros(n), np.zeros(n)))
    out = tmp_path / "out"
    rc = main(["complete", "--mesh", desk_mesh_file, "--data", str(data_path),
               "--epsilon", "1e-4", "--output-dir", str(out)])
    assert rc == 0
    rows = (out / "u_opt.csv").read_text().strip().splitlines()[1:]
    values = np.array([float(r.split(",")[2]) for r in rows])
    assert np.abs(values).max() < 1e-12


def test_twin_command_and_determinism(desk_mesh_file, tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc = main(["twin", "--mesh", desk_mesh_file, "--case", "TC2",
                   "--noise", "0.01", "--seed", "7", "--epsilon", "1e-3",
                   "--output-dir", str(out)])
        assert rc == 0
        outs.append(out)
    for name in ("twin_report.txt", "u_opt.csv", "u_ref.csv", "psi_opt.csv",
                 "field_rel_err.csv", "psi_opt.vtk"):
        assert _read(outs[0] / name) == _read(outs[1] / name), name
    report = (outs[0] / "twin_report.txt").read_text()
    entries = dict(line.split(" = ") for line in report.strip().splitlines())
    assert 0.0 < float(entries["max_rel_err_u"]) < 0.5


def test_twin_noise_free_report(desk_mesh_file, tmp_path):
    rc = main(["twin", "--mesh", desk_mesh_file, "--case", "TC2",
               "--noise", "0", "--epsilon", "1e-5",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    report = dict(line.split(" = ") for line in
                  (tmp_path / "twin_report.txt").read_text().strip().splitlines())
    assert float(report["max_rel_err_u"]) < 1e-2
    assert float(report["J"]) < float(report["J_at_zero"])


def test_table1_batch(desk_mesh_file, tmp_path):
    rc = main(["twin", "--mesh", desk_mesh_file, "--table1", "--seed", "0",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "table1.txt").read_text().strip().splitlines()
    assert len(lines) == 4


def test_lcurve_command(desk_mesh_file, tmp_path):
    rc = main(["lcurve", "--mesh", desk_mesh_file, "--case", "MANUFACTURED:r2",
               "--noise", "0", "--eps-count", "8", "--eps-min", "1e-7",
               "--eps-max", "1e-2", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "lcurve.csv").read_text().strip().splitlines()
    assert lines[0] == "epsilon,J,R_D,is_corner"
    assert len(lines) >= 6
    corners = [r for r in lines[1:] if r.endswith(",1")]
    assert len(corners) == 1


def test_contour_level_command(desk_mesh_file, tmp_path):
    mesh = load_mesh(desk_mesh_file)
    field_path = tmp_path / "field.csv"
    write_flux_csv(field_path, interpolate(mesh, lambda r, z: z))
    rc = main(["contour", "--mesh", desk_mesh_file, "--field", str(field_path),
               "--level", "0.25", "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "isoline.csv").read_text().strip().splitlines()
    assert lines[0] == "polyline_id,vertex_index,r,z"
    zs = np.array([float(l.split(",")[3]) for l in lines[1:]])
    assert np.abs(zs - 0.25).max() < 1e-10


def test_contour_no_transition_gives_numerical_exit(desk_mesh_file, tmp_path):
    mesh = load_mesh(desk_mesh_file)
    field_path = tmp_path / "field.csv"
    write_flux_csv(field_path, interpolate(mesh, lambda r, z: r * r))
    rc = main(["contour", "--mesh", desk_mesh_file, "--field", str(field_path),
               "--plasma-boundary", "--output-dir", str(tmp_path)])
    assert rc == 3


def test_missing_option_gives_config_exit(desk_mesh_file, tmp_path):
    rc = main(["twin", "--mesh", desk_mesh_file,
               "--output-dir", str(tmp_path)])
    assert rc == 2


def test_missing_file_gives_io_exit(tmp_path):
    rc = main(["complete", "--mesh", str(tmp_path / "nope.mesh"),
               "--data", str(tmp_path / "nope.csv"), "--epsilon", "1e-4",
               "--output-dir", str(tmp_path)])
    assert rc == 4


def test_config_file_with_cli_override(desk_mesh_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"mesh_path = {desk_mesh_file}\n"
        "case = TC2\n"
        "noise_level = 0\n"
        "epsilon = 1e-5\n"
        "# comment line\n"
        f"output_dir = {tmp_path / 'from_cfg'}\n")
    rc = main(["twin", "--config", str(cfg), "--output-dir",
               str(tmp_path / "override")])
    assert rc == 0
    assert (tmp_path / "override" / "twin_report.txt").exists()
    assert not (tmp_path / "from_cfg").exists()


def test_zero_epsilon_reaches_solver(desk_mesh_file, tmp_path, capsys):
    rc = main(["twin", "--mesh", desk_mesh_file, "--case", "TC1",
               "--epsilon", "0", "--output-dir", str(tmp_path)])
    assert rc == 3
    assert "near singular" in capsys.readouterr().err


def test_zero_flags_override_config(desk_mesh_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh_path = {desk_mesh_file}\n"
                   "case = TC2\nepsilon = 1e-3\nnoise_level = 0.05\nseed = 3\n")
    rc = main(["twin", "--config", str(cfg), "--noise", "0", "--seed", "0",
               "--output-dir", str(tmp_path)])
    assert rc == 0
    report = dict(line.split(" = ") for line in
                  (tmp_path / "twin_report.txt").read_text().strip().splitlines())
    assert float(report["noise_level"]) == 0.0
    assert int(report["seed"]) == 0


@pytest.mark.parametrize("value, rc", [("false", 0), ("yes", 2)])
def test_config_table1_is_true_or_false(desk_mesh_file, tmp_path, capsys, value, rc):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh_path = {desk_mesh_file}\ncase = TC2\nepsilon = 1e-3\n"
                   f"table1 = {value}\n")
    assert main(["twin", "--config", str(cfg), "--output-dir", str(tmp_path)]) == rc
    assert not (tmp_path / "table1.txt").exists()
    if rc == 0:
        assert (tmp_path / "twin_report.txt").exists()
    else:
        assert ("config error: option table1 must be true or false, got 'yes'"
                in capsys.readouterr().err)


@pytest.mark.parametrize("value, rc", [("false", 0), ("no", 2), ("True", 2)])
def test_config_plasma_boundary_is_true_or_false(desk_mesh_file, tmp_path, capsys,
                                                 value, rc):
    field_path = tmp_path / "field.csv"
    write_flux_csv(field_path, interpolate(load_mesh(desk_mesh_file), lambda r, z: z))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"plasma_boundary = {value}\n")
    assert main(["contour", "--config", str(cfg), "--mesh", desk_mesh_file,
                 "--field", str(field_path), "--level", "0.25",
                 "--output-dir", str(tmp_path)]) == rc
    assert not (tmp_path / "boundary.csv").exists()
    if rc == 0:
        assert (tmp_path / "isoline.csv").exists()
    else:
        assert (f"config error: option plasma_boundary must be true or false, "
                f"got {value!r}" in capsys.readouterr().err)


@pytest.mark.parametrize("given, message", [
    ({"level": "0.25", "plasma_boundary": None},
     "contour takes --level or --plasma-boundary, not both"),
    ({"level": "0.25", "limiter_path": "limiter.csv"},
     "contour --limiter needs --plasma-boundary, not --level")],
    ids=["level_and_plasma_boundary", "level_and_limiter"])
@pytest.mark.parametrize("from_config", ["none", "level", "other"])
def test_contour_conflicting_options_exit_alike_from_flag_or_config(
        tmp_path, given, message, from_config):
    # no file is read: the mesh, field and limiter do not exist
    flags = {"level": "--level", "plasma_boundary": "--plasma-boundary",
             "limiter_path": "--limiter"}
    argv = ["contour", "--mesh", str(tmp_path / "missing.mesh"),
            "--field", str(tmp_path / "missing.csv")]
    lines = []
    for option, value in given.items():
        if from_config == ("level" if option == "level" else "other"):
            lines.append(f"{option} = {'true' if value is None else value}\n")
        else:
            argv += [flags[option]] + ([] if value is None else [value])
    (tmp_path / "run.cfg").write_text("".join(lines))
    out = tmp_path / "out"
    with redirect_stderr(io.StringIO()) as err:
        assert main([*argv, "--config", str(tmp_path / "run.cfg"),
                     "--output-dir", str(out)]) == 2
    assert err.getvalue() == f"config error: {message}\n"
    assert not out.exists()


def test_config_key_that_is_no_option_gives_config_exit(desk_mesh_file, tmp_path,
                                                        capsys):
    # `noise` is the flag; its option, and so its config key, is `noise_level`
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh_path = {desk_mesh_file}\ncase = TC2\nepsilon = 1e-3\n"
                   "# the noise of the data\nnoise = 0.05\n")
    assert main(["twin", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert f"config error: {cfg}:5: unknown option 'noise'" in capsys.readouterr().err
    assert not (tmp_path / "twin_report.txt").exists()


def test_config_key_given_twice_gives_config_exit(desk_mesh_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh_path = {desk_mesh_file}\nepsilon = 1e-3\ncase = TC1\n"
                   "case = TC2\n")
    assert main(["twin", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert (f"config error: {cfg}:4: option 'case' already set at line 3"
            in capsys.readouterr().err)
    assert not (tmp_path / "twin_report.txt").exists()


@pytest.mark.parametrize("value", ["iter2", "Desk", ""])
def test_config_preset_must_be_a_preset(tmp_path, capsys, value):
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text(f"preset = {value}\n")
    assert main(["mesh", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert (f"config error: option preset must be desk or iter, got {value!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "mesh.txt").exists()


@pytest.mark.parametrize("command", [
    ["twin", "--case", "TC1", "--noise", "0.9", "--epsilon", "1e-3"],
    ["twin", "--case", "TC1", "--epsilon=-1e-3"],
    ["twin", "--case", "TC9", "--epsilon", "1e-3"],
    ["lcurve", "--case", "TC1", "--eps-count", "3"],
    ["lcurve", "--case", "TC1", "--eps-min", "0"],
    ["lcurve", "--case", "TC1", "--eps-min", "nan"],
    ["lcurve", "--case", "TC1", "--eps-min", "1e-3", "--eps-max", "1.0000000000001e-3"],
    ["twin", "--case", "MANUFACTURED:bogus", "--epsilon", "1e-3"],
    ["lcurve", "--case", "MANUFACTURED:bogus"],
])
def test_option_domain_error_gives_config_exit(desk_mesh_file, tmp_path,
                                               capsys, command):
    rc = main([*command, "--mesh", desk_mesh_file,
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["twin", "--case", "TC1", "--epsilon", "1e-3"],
    ["lcurve", "--case", "TC1"],
    ["twin", "--table1"],
])
@pytest.mark.parametrize("noise", ["0", "0.01"])
def test_negative_seed_gives_config_exit(desk_mesh_file, tmp_path, capsys,
                                         command, noise):
    rc = main([*command, "--noise", noise, "--seed", "-3", "--mesh", desk_mesh_file,
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert ("config error: seed must be nonnegative, got -3"
            in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["twin", "complete"])
def test_infinite_epsilon_gives_config_exit(desk_mesh_file, tmp_path, capsys, command):
    options = ["--case", "TC1"]
    if command == "complete":
        mesh = load_mesh(desk_mesh_file)
        _, data = generate_reference(mesh, assemble_stiffness(mesh), TwinSpec("TC1"))
        write_cauchy_csv(tmp_path / "data.csv", mesh, data)
        options = ["--data", str(tmp_path / "data.csv")]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, "--mesh", desk_mesh_file, *options, "--epsilon", "inf",
                   "--output-dir", str(out)])
    assert rc == 2
    assert ("config error: epsilon must be finite and nonnegative, got inf"
            in capsys.readouterr().err)
    assert not out.exists()


def _library_message(check) -> str:
    with pytest.raises(ValueError) as exc:
        check()
    return str(exc.value)


@pytest.mark.parametrize("command, check", [
    (["twin", "--table1", "--seed", "-3"], lambda: TwinSpec("TC1", seed=-3)),
    (["twin", "--case", "TC1", "--epsilon", "inf"],
     lambda: _check_epsilon(np.inf)),
    (["complete", "--data", "data.csv", "--epsilon", "-1"],
     lambda: _check_epsilon(-1.0)),
    (["lcurve", "--case", "TC1", "--eps-count", "3"],
     lambda: _check_grid(default_grid(count=3))),
    (["lcurve", "--case", "TC1", "--eps-min", "1", "--eps-max", "0.1"],
     lambda: _check_grid(default_grid(lo=1.0, hi=0.1))),
], ids=["table1_seed", "twin_epsilon", "complete_epsilon", "eps_count",
        "eps_range"])
def test_option_domain_is_checked_before_the_mesh_is_read(tmp_path, capsys,
                                                          command, check):
    # the mesh file is missing, so a check made after reading it exits 4
    out = tmp_path / "out"
    rc = main([*command, "--mesh", str(tmp_path / "missing.mesh"),
               "--output-dir", str(out)])
    assert rc == 2
    assert (f"config error: {_library_message(check)}\n"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("which", ["outer", "inner", "limiter"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_polyline_coordinate_is_named(desk_mesh_file, tmp_path, capsys,
                                                 which, bad):
    loops = {"outer": circle_loop(6.0, 0.0, 2.5, 60),
             "inner": circle_loop(6.0, 0.0, 1.2, 24),
             "limiter": circle_loop(6.0, 0.0, 1.5, 32)}
    paths = {}
    for name, loop in loops.items():
        rows = [f"{r!r},{z!r}" for r, z in loop.tolist()]
        if name == which:
            r, z = rows[6].split(",")
            rows[6] = f"{r},{bad}" if bad == "nan" else f"{bad},{z}"
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("r,z\n" + "\n".join(rows) + "\n")
    if which == "limiter":
        field = tmp_path / "field.csv"
        write_flux_csv(field, interpolate(load_mesh(desk_mesh_file),
                                          lambda r, z: -((r - 6.0) ** 2 + z ** 2)))
        argv = ["contour", "--mesh", desk_mesh_file, "--field", str(field),
                "--plasma-boundary", "--limiter", str(paths["limiter"])]
    else:
        argv = ["mesh", "--outer-csv", str(paths["outer"]),
                "--inner-csv", str(paths["inner"]), "--target-h", "0.3"]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--output-dir", str(out)])
    assert rc == 4
    assert (f"i/o error: {paths[which]}:8: non-finite coordinate"
            in capsys.readouterr().err)
    assert not any(out.iterdir())


@pytest.mark.parametrize("option, value", [
    ("--target-h", "nan"), ("--target-h", "0"), ("--target-h", "-1"),
    ("--target-h", "inf"), ("--offset-factor", "-0.5"), ("--offset-factor", "0"),
    ("--offset-factor", "1.5"), ("--offset-factor", "nan"),
])
def test_mesh_option_domain_error_gives_config_exit(tmp_path, capsys, option, value):
    outer = tmp_path / "outer.csv"
    np.savetxt(outer, circle_loop(6.0, 0.0, 2.5, 48), delimiter=",")
    options = {"--target-h": "0.4", "--offset-factor": "0.4", option: value}
    rc = main(["mesh", "--outer-csv", str(outer), "--output-dir", str(tmp_path),
               *[f"{flag}={v}" for flag, v in options.items()]])
    assert rc == 2
    assert f"config error: option {option[2:].replace('-', '_')}" in capsys.readouterr().err
    assert not (tmp_path / "mesh.txt").exists()


def test_mesh_over_the_node_cap_gives_config_exit(tmp_path, capsys):
    # the generator refuses the mesh before numpy is asked for terabytes
    for name, radius in (("outer", 2.9), ("inner", 0.8)):
        np.savetxt(tmp_path / f"{name}.csv", circle_loop(6.0, 0.0, radius, 24),
                   delimiter=",")
    out = tmp_path / "out"
    assert main(["mesh", "--outer-csv", str(tmp_path / "outer.csv"), "--inner-csv",
                 str(tmp_path / "inner.csv"), "--target-h", "1e-12",
                 "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: target_h 1e-12 would mesh the "
                                       "annulus with over 10000000 nodes\n")
    assert not (out / "mesh.txt").exists()


@pytest.mark.parametrize("first, second", [
    ("--preset", "--outer-csv"), ("--preset", "--inner-csv"), ("--preset", "--target-h"),
    ("--preset", "--offset-factor"), ("--inner-csv", "--offset-factor")])
@pytest.mark.parametrize("from_config", [False, True])
def test_mesh_conflicting_options_exit_before_any_file_is_read(tmp_path, first, second,
                                                               from_config):
    # a preset is a whole geometry, and an inner loop read from a file is not
    # scaled from the outer one, so one option of each pair would be dropped.
    # The polyline files do not exist
    values = {"--preset": "desk", "--outer-csv": str(tmp_path / "outer.csv"),
              "--inner-csv": str(tmp_path / "inner.csv"), "--target-h": "0.1",
              "--offset-factor": "0.3"}
    argv = ["mesh", first, values[first]]
    if first != "--preset":
        argv += ["--outer-csv", values["--outer-csv"], "--target-h", "0.1"]
    if from_config:
        (tmp_path / "run.cfg").write_text(
            f"{second[2:].replace('-', '_')} = {values[second]}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        argv += [second, values[second]]
    out = tmp_path / "out"
    with redirect_stderr(io.StringIO()) as err:
        assert main([*argv, "--output-dir", str(out)]) == 2
    assert err.getvalue() == f"config error: mesh takes {first} or {second}, not both\n"
    assert not out.exists()


# valued flags of three commands: (flag, option, type)
_FLAGS = {
    "mesh": [("--outer-csv", "outer_csv", str), ("--inner-csv", "inner_csv", str),
             ("--offset-factor", "offset_factor", float),
             ("--target-h", "target_h", float)],
    "twin": [("--mesh", "mesh_path", str), ("--case", "case", str),
             ("--noise", "noise_level", float), ("--seed", "seed", int),
             ("--epsilon", "epsilon", float)],
    "lcurve": [("--data", "data_path", str), ("--eps-min", "eps_min", float),
               ("--eps-count", "eps_count", int), ("--seed", "seed", int)],
}
_COMMON = [("--output-dir", "output_dir", str)]
_WORD = st.text(alphabet="abcxyz019._/:-", min_size=1, max_size=8)
_PAD = st.text(alphabet=" \t", max_size=3)
_COMMENT = st.text(alphabet="ab =#", max_size=6).map(lambda text: "#" + text)
_FLAG_VALUE = {
    str: _WORD,
    float: st.just(0.0) | st.floats(allow_nan=False, allow_infinity=False),
    int: st.just(0) | st.integers(-10**6, 10**6),
}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_FLAGS)), data=st.data())
def test_config_file_values_reach_the_run_under_the_flags(tmp_path_factory, command,
                                                          data):
    flags = _FLAGS[command] + _COMMON
    options = [option for _, option, _ in flags]
    # an option of another command passes through; a key that is no option
    # or is given twice is an error, like a line with no `=`, and the first
    # bad line is named.  errors holds (line, message, earlier line or None)
    lines, expected, errors, first = [], {}, [], {}
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(["entry", "entry", "blank", "comment"]))
        pad = [data.draw(_PAD) for _ in range(4)]
        if kind == "entry":
            key = data.draw(st.sampled_from([*options, "limiter_path", "command",
                                             "spare_key"]))
            value = " ".join(data.draw(st.lists(_WORD | st.just("="), max_size=3)))
            if key in ("command", "spare_key"):
                errors.append((len(lines), f"unknown option {key!r}", None))
            elif key in first:
                errors.append((len(lines), f"option {key!r} already set at line",
                               first[key]))
            else:
                first[key] = len(lines)
                expected[key] = value
            tail = data.draw(st.just("") | _COMMENT)
            lines.append(f"{pad[0]}{key}{pad[1]}={pad[2]}{value}{pad[3]}{tail}")
        else:
            lines.append(pad[0] + (data.draw(_COMMENT) if kind == "comment" else ""))
    argv = [command]
    for flag, option, kind in flags:
        value = data.draw(st.none() | _FLAG_VALUE[kind])
        if value is not None:
            # a flag's text reaches the run as given, to be converted there
            text = repr(value) if kind is float else str(value)
            argv.append(f"{flag}={text}")
            expected[option] = text
    expected["command"] = command
    expected.setdefault("output_dir", ".")
    bad = data.draw(st.none() | st.integers(0, len(lines)))
    if bad is not None:
        lines.insert(bad, data.draw(_PAD) + data.draw(_WORD) + data.draw(_PAD))
        errors = [(line + (line >= bad), message,
                   None if earlier is None else earlier + (earlier >= bad))
                  for line, message, earlier in errors]
        errors.append((bad, "expected key = value", None))
    path = tmp_path_factory.mktemp("config") / "run.cfg"
    path.write_text("\n".join(lines) + "\n")

    seen = []
    with patch.dict(cli._COMMANDS, {command: seen.append}), \
            redirect_stderr(io.StringIO()) as err:
        rc = main([*argv, "--config", str(path)])
    if not errors:
        assert seen == [expected]
    else:
        line, message, earlier = min(errors, key=lambda error: error[0])
        if earlier is not None:
            message += f" {earlier + 1}"
        assert rc == 2 and not seen
        assert f"config error: {path}:{line + 1}: {message}" in err.getvalue()


def test_parser_and_config_keys_follow_the_option_table(tmp_path):
    # each command's flags, --config and --output-dir read to their options:
    # a value flag keeps its text, a set switch reads as `true`, and a flag
    # overrides its config key
    assert list(cli._COMMANDS) == list(cli._OPTIONS)
    path = tmp_path / "case.cfg"
    path.write_text("case = from-config\n")
    for command, rows in cli._OPTIONS.items():
        argv = [command, "--config", str(path), "--output-dir", "out"]
        expected = {"command": command, "output_dir": "out", "case": "from-config"}
        for flag, option, kind, _ in rows:
            if kind is cli._boolean:
                argv.append(flag)
                expected[option] = "true"
            else:
                argv += [flag, f"{option} text"]
                expected[option] = f"{option} text"
        assert cli._read_args(argv) == expected
    keys = sorted({option for rows in cli._OPTIONS.values() for _, option, _, _ in rows})
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = v\n" for key in [*keys, "output_dir"]))
    assert cli._read_config(path) == dict.fromkeys([*keys, "output_dir"], "v")
    for key in ("config", "help", "command", "noise", "mesh", "output-dir"):
        path.write_text(f"{key} = v\n")
        with pytest.raises(cli.ConfigError, match=f"unknown option '{key}'"):
            cli._read_config(path)


# each command's options set to values that convert, with input files that
# do not exist: the run then exits 4, unless an option value is bad
_MISSING_INPUTS = {
    "mesh": {"--outer-csv": "missing.csv", "--target-h": "0.4"},
    "complete": {"--mesh": "missing.mesh", "--data": "missing.csv", "--epsilon": "1e-3"},
    "twin": {"--mesh": "missing.mesh", "--case": "TC1", "--epsilon": "1e-3"},
    "lcurve": {"--mesh": "missing.mesh", "--case": "TC1"},
    "contour": {"--mesh": "missing.mesh", "--field": "missing.csv", "--level": "0"},
}
# texts that read alike as a flag's value and as a config value
_TEXT = st.text(alphabet="abefinrstuxy019.+-_:", max_size=7)


def _converts(kind, text):
    try:
        kind(text)
    except (KeyError, ValueError):
        return False
    return True


def test_missing_inputs_give_io_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for command, flags in _MISSING_INPUTS.items():
        argv = [command, *[f"{flag}={value}" for flag, value in flags.items()]]
        assert main(argv) == 4, argv
        assert "i/o error: " in capsys.readouterr().err


# every option with a kind but str, in each command that has it
_CONVERTED = [(command, flag, option, kind) for command, rows in cli._OPTIONS.items()
              for flag, option, kind, _ in rows if kind is not str]


@pytest.mark.parametrize("command, flag, option, kind", _CONVERTED,
                         ids=[f"{command}-{option}" for command, _, option, _ in _CONVERTED])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bad_option_value_exits_alike_from_flag_or_config(tmp_path_factory, command, flag,
                                                          option, kind, data):
    # a switch takes no value on the command line, so only its config key
    # can hold a bad one
    text = data.draw(_TEXT.filter(lambda text: not _converts(kind, text)))
    tmp = tmp_path_factory.mktemp("bad")
    flags = {key: str(tmp / value) if "missing" in value else value
             for key, value in _MISSING_INPUTS[command].items() if key != flag}
    argv = [command, *[f"{key}={value}" for key, value in flags.items()]]
    (tmp / "run.cfg").write_text(f"{option} = {text}\n")
    runs = {"config": [*argv, "--config", str(tmp / "run.cfg")]}
    if kind is not cli._boolean:
        runs["attached"] = [*argv, f"{flag}={text}"]
        runs["separate"] = [*argv, flag, text]
    errors = set()
    for source, args in runs.items():
        out = tmp / source
        out.mkdir()
        with redirect_stderr(io.StringIO()) as err:
            assert main([*args, "--output-dir", str(out)]) == 2
        assert list(out.iterdir()) == []
        errors.add(err.getvalue())
    message, = errors
    assert message.startswith(f"config error: option {option} must be ")
    assert message.endswith(f", got {text!r}\n")


# any text a value may hold: numbers in exponent form, signed infinities,
# nan, counts up to 10**18, and words that start with `-`, a flag's name
# among them
_VALUE = (_TEXT | st.floats().map(repr) | st.integers(-1000, 1000).map(str)
          | st.integers(-10 ** 18, 10 ** 18).map(str)
          | st.sampled_from(["-1e-3", "-5e-1", "-1E+300", "-inf", "nan", "-x", "--",
                             "-h", "--help", "--eps", "--seed", ""]))


@pytest.mark.parametrize("command, flag, option, kind",
                         [row for row in _CONVERTED if row[3] is not cli._boolean],
                         ids=[f"{command}-{option}" for command, _, option, kind in _CONVERTED
                              if kind is not cli._boolean])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_flag_value_reads_alike_separate_attached_or_from_config(
        tmp_path_factory, command, flag, option, kind, data):
    # `--flag text`, `--flag=text` and `key = text` are one run.  The inputs
    # are missing, so a value that passes exits 4 naming the same file
    text = data.draw(_VALUE)
    tmp = tmp_path_factory.mktemp("alike")
    flags = {key: str(tmp / value) if "missing" in value else value
             for key, value in _MISSING_INPUTS[command].items() if key != flag}
    argv = [command, *[f"{key}={value}" for key, value in flags.items()]]
    (tmp / "run.cfg").write_text(f"{option} = {text}\n")
    runs = {"config": [*argv, "--config", str(tmp / "run.cfg")],
            "attached": [*argv, f"{flag}={text}"], "separate": [*argv, flag, text]}
    results = set()
    for source, args in runs.items():
        with redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
            rc = main([*args, "--output-dir", str(tmp / source)])
        results.add((rc, err.getvalue()))
    assert len(results) == 1, results


@pytest.mark.parametrize("count", ["10001", "1000000000000000", "1000000000000000000"])
def test_grid_count_over_the_cap_exits_before_the_mesh_is_read(tmp_path, capsys, count):
    # the grid is built before the mesh is read, so an absurd count must not
    # reach numpy's allocator
    assert main(["lcurve", "--case", "TC1", "--eps-count", count,
                 "--mesh", str(tmp_path / "missing.mesh"),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: eps_grid count must be at most 10000, got {count}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["twin", "--case", "TC1", "--epsilon", "-1e-3"],
     "epsilon must be finite and nonnegative, got -0.001"),
    (["twin", "--case", "-x", "--epsilon", "1e-3"], "unknown twin case '-x'"),
    (["contour", "--field", "f.csv", "--level", "-5e-1", "--plasma-boundary"],
     "contour takes --level or --plasma-boundary, not both"),
    (["lcurve", "--case", "TC1", "--eps-min", "-1e-3"],
     "eps_grid end lo must be finite and positive, got -0.001"),
], ids=["negative_epsilon", "dash_case", "negative_level", "negative_eps_min"])
def test_value_that_starts_with_a_dash_reaches_the_library(tmp_path, capsys, argv, message):
    assert main([*argv, "--mesh", str(tmp_path / "missing.mesh"),
                 "--output-dir", str(tmp_path / "out")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    ([], "command must be mesh, complete, twin, lcurve, contour, got ''"),
    (["solve"], "command must be mesh, complete, twin, lcurve, contour, got 'solve'"),
    (["--case", "TC1"], "got '--case'"),
    (["twin", "--eps", "5e-4"], "twin has no flag '--eps'"),
    (["contour", "--plasma"], "contour has no flag '--plasma'"),
    (["mesh", "--case", "TC1"], "mesh has no flag '--case'"),
    (["twin", "TC1"], "twin has no flag 'TC1'"),
    (["twin", "--case"], "flag --case needs a value"),
    (["twin", "--table1=true"], "switch --table1 takes no value, got '--table1=true'"),
    (["twin", "--table1="], "switch --table1 takes no value"),
], ids=["no_command", "unknown_command", "flag_before_command", "abbreviated",
        "abbreviated_switch", "flag_of_another_command", "word", "missing_value",
        "switch_value", "empty_switch_value"])
def test_malformed_command_line_gives_config_exit(tmp_path, capsys, monkeypatch, argv,
                                                  message):
    monkeypatch.chdir(tmp_path)
    with patch.dict(cli._COMMANDS, {command: pytest.fail for command in cli._COMMANDS}):
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [None, *cli._OPTIONS])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_commands_or_a_commands_flags(capsys, command, flag):
    # help is read as a flag, before any later fault on the line
    argv = [flag] if command is None else [command, "--output-dir", "o", flag, "--bogus"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    listed = [line.split()[0] for line in out.splitlines()[1:]]
    if command is None:
        assert listed == list(cli._COMMANDS)
    else:
        assert listed == ["--config", "--output-dir",
                          *[flag for flag, _, _, _ in cli._OPTIONS[command]]]


def test_help_as_a_value_is_a_value():
    seen = []
    with patch.dict(cli._COMMANDS, {"lcurve": seen.append}):
        main(["lcurve", "--case", "--help", "--case", "-h", "--data", "--help"])
    assert seen == [{"command": "lcurve", "output_dir": ".", "case": "-h", "data_path": "--help"}]


def test_attached_double_dash_is_an_option_value():
    # argparse before Python 3.13 reads `--output-dir=--` as an empty list
    seen = []
    with patch.dict(cli._COMMANDS, {"lcurve": seen.append}):
        main(["lcurve", "--output-dir=--", "--case=--"])
    assert seen == [{"command": "lcurve", "output_dir": "--", "case": "--"}]


def test_cauchy_csv_roundtrip(desk_mesh_file, tmp_path):
    mesh = load_mesh(desk_mesh_file)
    A = assemble_stiffness(mesh)
    _, data = generate_reference(mesh, A, TwinSpec("TC1"))
    path = tmp_path / "data.csv"
    write_cauchy_csv(path, mesh, data)
    back = read_cauchy_csv(path, mesh)
    assert np.array_equal(back.f, data.f)
    assert np.array_equal(back.g, data.g)


def test_flux_csv_roundtrip(desk_mesh_file, tmp_path):
    mesh = load_mesh(desk_mesh_file)
    fld = interpolate(mesh, lambda r, z: r * r * z)
    path = tmp_path / "f.csv"
    write_flux_csv(path, fld)
    back = read_flux_csv(path, mesh)
    assert np.array_equal(back.values, fld.values)


def _contour(desk_mesh_file, tmp_path, edit, *options):
    """Run contour on the r*z flux file of the desk mesh after edit(lines)."""
    mesh = load_mesh(desk_mesh_file)
    path = tmp_path / "f.csv"
    write_flux_csv(path, interpolate(mesh, lambda r, z: r * z))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return main(["contour", "--mesh", desk_mesh_file, "--field", str(path),
                 *options, "--output-dir", str(tmp_path)]), path, len(lines)


def test_contour_level_outside_field_range_gives_config_exit(
        desk_mesh_file, tmp_path, capsys):
    rc, _, _ = _contour(desk_mesh_file, tmp_path, lambda lines: lines,
                        "--level", "1e6")
    assert rc == 2
    assert "config error: level 1000000.0 outside field range" \
        in capsys.readouterr().err


def _renumber_last_row(index):
    def edit(lines):
        _, *rest = lines[-1].split(",")
        return lines[:-1] + [",".join([str(index), *rest])]
    return edit


@pytest.mark.parametrize("index", [-1, 1005])
def test_flux_csv_node_index_outside_mesh_gives_io_exit(
        desk_mesh_file, tmp_path, capsys, index):
    # -1 once filled the last node, so a file missing its row was accepted
    rc, path, count = _contour(desk_mesh_file, tmp_path,
                               _renumber_last_row(index), "--level", "0.5")
    assert rc == 4
    assert (f"{path}:{count}: node index {index} outside [0, 1000)"
            in capsys.readouterr().err)


def _replace_row(line, text):
    """Edit putting text(lines) on the given line, 0 for the last."""
    def edit(lines):
        i = line - 1 if line else len(lines) - 1
        return lines[:i] + [text(lines)] + lines[i + 1:]
    return edit


# (edit, line of the fault, message); line 0 is the last line
@pytest.mark.parametrize("edit, line, message", [
    (_replace_row(0, lambda lines: lines[-1].rsplit(",", 1)[0]), 0,
     "expected 4 tokens for row 999, got 3"),
    (_replace_row(0, lambda lines: lines[-1] + "e"), 0, "bad value"),
    (_renumber_last_row("x"), 0, "bad node index"),
    (_replace_row(0, lambda lines: lines[1]), 0, "node 0 listed twice"),
    # the first fault in file order is named, whatever its kind
    (lambda lines: _replace_row(4, lambda _: "3,1.0")(
        _replace_row(3, lambda lines: lines[1])(lines)), 3, "node 0 listed twice"),
    # a non-finite psi is a bad row, not a missing one
    *[(_replace_row(0, lambda lines, bad=bad: lines[-1].rsplit(",", 1)[0] + "," + bad),
       0, "non-finite value") for bad in ("nan", "inf", "-inf")],
])
def test_flux_csv_bad_row_names_file_and_line(desk_mesh_file, tmp_path, capsys,
                                              edit, line, message):
    rc, path, count = _contour(desk_mesh_file, tmp_path, edit, "--level", "0.5")
    assert rc == 4
    assert (f"i/o error: {path}:{line or count}: {message}"
            in capsys.readouterr().err)


def _complete(desk_mesh_file, tmp_path, edit):
    """Run complete on zero Cauchy data of the desk mesh after edit(lines)."""
    mesh = load_mesh(desk_mesh_file)
    n = len(mesh.boundary.outer_nodes)
    path = tmp_path / "data.csv"
    from fluxrec.completion import CauchyData, _check_epsilon
    write_cauchy_csv(path, mesh, CauchyData(np.zeros(n), np.zeros(n)))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    return main(["complete", "--mesh", desk_mesh_file, "--data", str(path),
                 "--epsilon", "1e-4", "--output-dir", str(tmp_path)]), path


def test_cauchy_csv_bad_row_names_file_and_line(desk_mesh_file, tmp_path, capsys):
    b = load_mesh(desk_mesh_file).boundary
    cases = [
        (_replace_row(4, lambda _: f"{b.inner_nodes[0]},0.0,0.0,0.0"),
         f":4: node {b.inner_nodes[0]} is not on the outer boundary"),
        (_replace_row(4, lambda lines: lines[2]), f":4: node {b.outer_nodes[1]} listed twice"),
        (_replace_row(4, lambda _: "1,2,3"), ":4: expected 4 tokens for row 2, got 3"),
        (_replace_row(4, lambda lines: lines[3] + "e"), ":4: bad value"),
        (lambda lines: lines[:-1], ": missing outer boundary rows"),
        *[(_replace_row(4, lambda lines, bad=bad, col=col: ",".join(
            bad if i == col else token for i, token in enumerate(lines[3].split(",")))),
           ":4: non-finite value") for col, bad in [(2, "nan"), (2, "inf"), (3, "-inf")]],
    ]
    for edit, message in cases:
        rc, path = _complete(desk_mesh_file, tmp_path, edit)
        assert rc == 4
        assert f"i/o error: {path}{message}" in capsys.readouterr().err


def _contour_on_mesh(tmp_path, lines):
    path = tmp_path / "edited.mesh"
    path.write_text("\n".join(lines) + "\n")
    return main(["contour", "--mesh", str(path), "--field", str(tmp_path / "f.csv"),
                 "--level", "0", "--output-dir", str(tmp_path)]), path


def _desk_lines(desk_mesh_file):
    """Lines of the desk mesh file and the index of its boundary_edges header."""
    lines = _read(desk_mesh_file).decode("ascii").splitlines()
    return lines, next(i for i, l in enumerate(lines) if l.startswith("boundary_edges"))


@pytest.mark.parametrize("section", ["triangle", "edge"])
def test_mesh_index_beyond_int64_gives_io_exit(desk_mesh_file, tmp_path, capsys,
                                               section):
    lines, h = _desk_lines(desk_mesh_file)
    i = 1002 if section == "triangle" else h + 1       # the first row of each
    lines[i] = ("0 1 99999999999999999999" if section == "triangle"
                else "0 99999999999999999999 outer")
    rc, path = _contour_on_mesh(tmp_path, lines)
    assert rc == 4
    assert f"i/o error: {path}:{i + 1}: bad {section} index" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["node", "boundary edge"])
def test_mesh_count_beyond_file_gives_io_exit(desk_mesh_file, tmp_path, capsys,
                                              section):
    lines, h = _desk_lines(desk_mesh_file)
    if section == "node":
        lines, count = ["nodes 100000000000000"] + lines[1:1001], 1000
    else:
        lines[h], count = "boundary_edges 100000000000000", len(lines) - h - 1
    rc, path = _contour_on_mesh(tmp_path, lines)
    assert rc == 4
    assert (f"i/o error: {path}: unexpected end of file while reading {section} {count}"
            in capsys.readouterr().err)


def test_mesh_from_polyline_csv(tmp_path):
    theta = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
    outer = tmp_path / "outer.csv"
    outer.write_text("r,z\n" + "\n".join(
        f"{6 + 2.5 * np.cos(t)},{2.5 * np.sin(t)}" for t in theta))
    rc = main(["mesh", "--outer-csv", str(outer), "--offset-factor", "0.4",
               "--target-h", "0.4", "--output-dir", str(tmp_path)])
    assert rc == 0
    m = load_mesh(tmp_path / "mesh.txt")
    assert len(m.boundary.inner_nodes) >= 3
    assert m.max_edge_length <= 1.5 * 0.4


@pytest.mark.parametrize("header", ["", "r,z\n", "# r z\n"])
def test_polyline_csv_header_is_optional_and_bad_row_is_named(tmp_path, capsys, header):
    rows = [f"{6 + 2.5 * np.cos(t)} {2.5 * np.sin(t)}"
            for t in np.linspace(0.0, 2 * np.pi, 48, endpoint=False)]
    outer = tmp_path / "outer.csv"
    outer.write_text(header + "\n".join(rows) + "\n")
    args = ["mesh", "--outer-csv", str(outer), "--target-h", "0.4",
            "--output-dir", str(tmp_path)]
    assert main(args) == 0
    rows[4] = "6.0"
    outer.write_text(header + "\n".join(rows) + "\n")
    assert main(args) == 4
    line = 5 + bool(header)
    assert (f"i/o error: {outer}:{line}: expected 2 tokens for point 4, got 1"
            in capsys.readouterr().err)
    # a first row that holds a number is a point, not a header
    rows[4] = rows[5]
    for rows[0], message in [("6.0", "expected 2 tokens for point 0, got 1"),
                             ("6.0 z", "bad coordinate")]:
        outer.write_text(header + "\n".join(rows) + "\n")
        assert main(args) == 4
        assert (f"i/o error: {outer}:{1 + bool(header)}: {message}"
                in capsys.readouterr().err)


def test_lcurve_from_data_file(desk_mesh_file, tmp_path):
    mesh = load_mesh(desk_mesh_file)
    A = assemble_stiffness(mesh)
    from fluxrec.experiments import add_noise
    _, clean = generate_reference(mesh, A, TwinSpec("TC1"))
    data_path = tmp_path / "data.csv"
    write_cauchy_csv(data_path, mesh, add_noise(clean, 0.01, 5))
    rc = main(["lcurve", "--mesh", desk_mesh_file, "--data", str(data_path),
               "--output-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "lcurve.csv").read_text().strip().splitlines()
    assert len(lines) == 21


def test_console_entry_point(desk_mesh_file, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fluxrec.cli", "twin", "--mesh", desk_mesh_file,
         "--case", "TC2", "--noise", "0", "--epsilon", "1e-5",
         "--output-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "max_rel_err_u" in proc.stdout


def test_non_ascii_input_is_named(desk_mesh_file, tmp_path, capsys):
    mesh_path = tmp_path / "m.mesh"
    lines = _read(desk_mesh_file).splitlines(keepends=True)
    lines[1999] = lines[1999].rstrip(b"\n") + b"  # caf\xc3\xa9\n"
    mesh_path.write_bytes(b"".join(lines))
    field = tmp_path / "f.csv"
    write_flux_csv(field, interpolate(load_mesh(desk_mesh_file), lambda r, z: z))
    argv = ["contour", "--field", str(field), "--level", "0", "--output-dir", str(tmp_path)]
    assert main([*argv, "--mesh", str(mesh_path)]) == 4
    assert f"i/o error: {mesh_path}:2000: not ASCII text" in capsys.readouterr().err

    lines = field.read_bytes().splitlines(keepends=True)
    lines[6] = b"\xff" + lines[6]
    field.write_bytes(b"".join(lines))
    assert main([*argv, "--mesh", desk_mesh_file]) == 4
    assert f"i/o error: {field}:7: not ASCII text" in capsys.readouterr().err

    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"case = TC1\nepsilon = 1e-3 # \xe2\x80\x94 tuned\n")
    assert main(["twin", "--config", str(cfg), "--mesh", desk_mesh_file]) == 2
    assert (f"config error: cannot read config: {cfg}:2: not ASCII text"
            in capsys.readouterr().err)


def test_mesh_without_inner_boundary_gives_config_exit(tmp_path, capsys):
    mesh = build_square_mesh(4)
    mesh_path, data, field = tmp_path / "square.mesh", tmp_path / "d.csv", tmp_path / "f.csv"
    save_mesh(mesh, mesh_path)
    n = len(mesh.boundary.outer_nodes)
    write_cauchy_csv(data, mesh, CauchyData(np.zeros(n), np.ones(n)))
    write_flux_csv(field, interpolate(mesh, lambda r, z: r * z))
    for options in (["complete", "--data", str(data), "--epsilon", "1e-3"],
                    ["twin", "--case", "TC1", "--epsilon", "1e-3"],
                    ["lcurve", "--case", "TC1"],
                    ["contour", "--field", str(field), "--plasma-boundary"]):
        out = tmp_path / options[0]
        assert main([*options, "--mesh", str(mesh_path), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "requires an inner boundary" in err
        assert not any(out.iterdir())


@pytest.mark.parametrize("radius, message", [
    (5.0, "limiter leaves the outer boundary"),
    (0.3, "limiter lies entirely inside the plasma hole"),
])
def test_limiter_off_the_annulus_gives_config_exit(desk_mesh_file, tmp_path, capsys,
                                                   radius, message):
    field, limiter = tmp_path / "f.csv", tmp_path / "limiter.csv"
    write_flux_csv(field, interpolate(load_mesh(desk_mesh_file),
                                      lambda r, z: -((r - 6.0) ** 2 + z ** 2)))
    limiter.write_text("r,z\n" + "".join(
        f"{r!r},{z!r}\n" for r, z in circle_loop(6.0, 0.0, radius, 32).tolist()))
    out = tmp_path / "out"
    rc = main(["contour", "--mesh", desk_mesh_file, "--field", str(field),
               "--plasma-boundary", "--limiter", str(limiter), "--output-dir", str(out)])
    assert rc == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not any(out.iterdir())
