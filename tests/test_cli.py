import subprocess
import sys

import numpy as np
import pytest

from fluxrec import assemble_stiffness, interpolate
from fluxrec.cli import main
from fluxrec.experiments import TwinSpec, desk_annulus_mesh, generate_reference
from fluxrec.io import (read_cauchy_csv, write_cauchy_csv, write_flux_csv,
                        read_flux_csv)
from fluxrec.mesh import load_mesh, save_mesh


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
    from fluxrec.completion import CauchyData
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


@pytest.mark.parametrize("command", [
    ["twin", "--case", "TC1", "--noise", "0.9", "--epsilon", "1e-3"],
    ["twin", "--case", "TC1", "--epsilon=-1e-3"],
    ["twin", "--case", "TC9", "--epsilon", "1e-3"],
    ["lcurve", "--case", "TC1", "--eps-count", "3"],
    ["lcurve", "--case", "TC1", "--eps-min", "0"],
])
def test_option_domain_error_gives_config_exit(desk_mesh_file, tmp_path,
                                               capsys, command):
    rc = main([*command, "--mesh", desk_mesh_file,
               "--output-dir", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


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
