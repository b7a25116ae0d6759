import subprocess
import sys

import fluxrec


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


def test_limiter_search_leaves_scipy_spatial_unloaded():
    # limiter points are located through the mesh's own triangle grid
    code = ("import sys; from fluxrec import interpolate; "
            "from fluxrec.experiments import desk_annulus_mesh; "
            "from fluxrec.mesh import circle_loop; "
            "from fluxrec.postprocess import find_plasma_boundary; "
            "fld = interpolate(desk_annulus_mesh(), "
            "lambda r, z: -((r - 6.0) ** 2 + z ** 2)); "
            "mode = find_plasma_boundary(fld, limiter=circle_loop(6.0, 0.0, 1.5, 64))[2]; "
            "print(mode, 'scipy.spatial' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "limiter False"
