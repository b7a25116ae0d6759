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
    # imports scipy.spatial inside the functions that build a k-d tree
    code = ("import sys, fluxrec, fluxrec.cli, fluxrec.io, fluxrec.experiments; "
            "print([m for m in ('scipy.spatial', 'scipy.special') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
