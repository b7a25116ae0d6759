import json
import subprocess
import sys

import numpy as np

import fluxrec
from fluxrec.experiments import TwinSpec, run_twin
from fluxrec.io import write_flux_csv
from fluxrec.mesh import circle_loop, desk_annulus_mesh, save_mesh


def test_all_lists_each_name_once_and_each_resolves():
    assert len(set(fluxrec.__all__)) == len(fluxrec.__all__)
    namespace = {}
    exec("from fluxrec import *", namespace)     # AttributeError on a stale name
    assert set(fluxrec.__all__) <= namespace.keys()


def test_import_leaves_scipy_spatial_and_special_unloaded():
    # each adds megabytes to every process that loads it, so the library
    # imports scipy.special inside the one function that needs it
    code = ("import sys, fluxrec, fluxrec.cli, fluxrec.io, fluxrec.experiments; "
            "print([m for m in ('scipy.spatial', 'scipy.special') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# run in a fresh process: each stage's scipy modules, then the namespace's
# answers to an unknown name and to a submodule
_GEOMETRY_RUN = """
import json, sys
out, loaded = sys.argv[1], {}

def scipy_modules(stage):
    loaded[stage] = sorted(m for m in sys.modules if m.startswith("scipy"))

import fluxrec
scipy_modules("import fluxrec")
from fluxrec import cli
scipy_modules("import fluxrec.cli")
codes = [cli.main(["mesh", "--preset", "desk", "--output-dir", out + "/preset"]),
         cli.main(["mesh", "--outer-csv", out + "/outer.csv", "--inner-csv",
                   out + "/inner.csv", "--target-h", "0.4", "--output-dir", out + "/csv"])]
scipy_modules("mesh")
field = ["--mesh", out + "/desk.mesh", "--field", out + "/psi.csv", "--plasma-boundary"]
codes.append(cli.main(["contour", *field, "--output-dir", out + "/xpoint"]))
scipy_modules("contour --plasma-boundary")
codes.append(cli.main(["contour", *field, "--limiter", out + "/limiter.csv",
                       "--output-dir", out + "/limiter"]))
scipy_modules("contour --plasma-boundary --limiter")
try:
    fluxrec.no_such_name
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
from fluxrec import fem
print(json.dumps([loaded, codes, unknown, fem.__name__]))
"""


def test_namespace_mesh_and_contour_load_no_scipy(tmp_path):
    # meshing and the plasma-boundary search need numpy alone, so neither
    # the package namespace nor these commands may import scipy; the field
    # is a twin's, made here, where scipy is loaded already
    mesh = desk_annulus_mesh()
    save_mesh(mesh, tmp_path / "desk.mesh")
    write_flux_csv(tmp_path / "psi.csv",
                   run_twin(mesh, TwinSpec("TC1", 0.01), 5e-4).result.psi_opt)
    # a circle inside the X-point surface, so it sets the boundary
    for name, loop in (("limiter", circle_loop(6.0, 0.0, 1.2, 32)),
                       ("outer", circle_loop(6.0, 0.0, 2.9, 44)),
                       ("inner", circle_loop(6.0, 0.0, 0.8, 12))):
        np.savetxt(tmp_path / f"{name}.csv", loop, delimiter=",")
    proc = subprocess.run([sys.executable, "-c", _GEOMETRY_RUN, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, codes, unknown, fem = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == dict.fromkeys(
        ["import fluxrec", "import fluxrec.cli", "mesh", "contour --plasma-boundary",
         "contour --plasma-boundary --limiter"], [])
    assert codes == [0, 0, 0, 0]
    for run, mode in (("xpoint", "xpoint"), ("limiter", "limiter")):
        assert f"mode = {mode}\n" in (tmp_path / run / "boundary_report.txt").read_text()
    assert unknown == "AttributeError"
    assert fem == "fluxrec.fem"
