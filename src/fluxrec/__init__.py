"""Vacuum poloidal-flux reconstruction from over-determined boundary data.

Reconstructs the flux between a vessel wall (carrying both a Dirichlet trace
and a weighted Neumann trace) and a fictitious inner contour, by minimizing
a regularized energy-gap functional over the unknown inner Dirichlet value,
then extracts the plasma boundary as an isoflux line.
"""

from .completion import (CauchyData, CompletionResult, KVSystem, assemble_kv,
                         solve_completion)
from .fem import (FluxField, StiffnessMatrix, assemble_stiffness, interpolate,
                  solve_dirichlet, solve_neumann, trace)
from .mesh import (INNER, OUTER, BoundaryIndex, Mesh, circle_loop, dee_loop,
                   generate_annulus_mesh, load_mesh, save_mesh,
                   scale_toward_centroid)
from .postprocess import Isoline, extract_isoline, find_plasma_boundary
from .regularization import LCurve, default_grid, find_corner, sweep

__version__ = "0.1.0"

__all__ = [
    "CauchyData", "CompletionResult", "KVSystem", "assemble_kv",
    "solve_completion",
    "FluxField", "StiffnessMatrix", "assemble_stiffness", "interpolate",
    "solve_dirichlet", "solve_neumann", "trace",
    "INNER", "OUTER", "BoundaryIndex", "Mesh", "circle_loop", "dee_loop",
    "generate_annulus_mesh", "load_mesh", "save_mesh", "scale_toward_centroid",
    "Isoline", "extract_isoline", "find_plasma_boundary",
    "LCurve", "default_grid", "find_corner", "sweep",
    "__version__",
]
