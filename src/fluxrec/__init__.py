"""Vacuum poloidal-flux reconstruction from over-determined boundary data.

Reconstructs the flux between a vessel wall (carrying both a Dirichlet trace
and a weighted Neumann trace) and a fictitious inner contour, by minimizing
a regularized energy-gap functional over the unknown inner Dirichlet value,
then extracts the plasma boundary as an isoflux line.

The namespace is lazy: a public name imports its module on first use
(PEP 562), so `import fluxrec` loads no module of the package, and a
program that meshes or contours loads no scipy.
"""

import importlib

__version__ = "0.1.0"

# each public name and the module that defines it
_MODULES = {
    **dict.fromkeys(["CompletionResult", "KVSystem", "assemble_kv",
                     "solve_completion"], "completion"),
    **dict.fromkeys(["StiffnessMatrix", "assemble_stiffness", "solve_dirichlet",
                     "solve_neumann"], "fem"),
    **dict.fromkeys(["INNER", "OUTER", "BoundaryIndex", "CauchyData", "FluxField",
                     "Mesh", "circle_loop", "dee_loop", "generate_annulus_mesh",
                     "interpolate", "load_mesh", "save_mesh",
                     "scale_toward_centroid", "trace"], "mesh"),
    **dict.fromkeys(["Isoline", "extract_isoline", "find_plasma_boundary"],
                    "postprocess"),
    **dict.fromkeys(["LCurve", "default_grid", "find_corner", "sweep"],
                    "regularization"),
}

__all__ = [*_MODULES, "__version__"]


def __getattr__(name):
    # AttributeError for any other name, so `from fluxrec import fem` falls
    # back to importing the submodule
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULES[name]}", __name__), name)
