from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from fluxrec import assemble_stiffness, fem
from fluxrec.experiments import desk_annulus_mesh, iter_like_mesh
from fluxrec.mesh import INNER, OUTER, Mesh, circle_loop, generate_annulus_mesh


@pytest.fixture(scope="session")
def desk_mesh():
    return desk_annulus_mesh()


@pytest.fixture(scope="session")
def desk_A(desk_mesh):
    return assemble_stiffness(desk_mesh)


@pytest.fixture(scope="session")
def iter_mesh():
    return iter_like_mesh()


@pytest.fixture(scope="session")
def iter_A(iter_mesh):
    return assemble_stiffness(iter_mesh)


@pytest.fixture(scope="session")
def wide_mesh():
    """Third annulus geometry: concentric circles, radii 3.0 / 1.5."""
    return generate_annulus_mesh(circle_loop(6.0, 0.0, 3.0, 60),
                                 circle_loop(6.0, 0.0, 1.5, 30), 0.35)


@pytest.fixture(scope="session")
def wide_A(wide_mesh):
    return assemble_stiffness(wide_mesh)


def inflate_tail_rows(monkeypatch, mesh, count: int) -> None:
    """Make fem's bordered factorizations of mesh serve L with the rows of
    the first `count` unknowns of its boundary tail scaled by 10.  The
    diagonal of the Schur complement A_TT - L_TI D L_TI' that fem forms is
    then A_jj - 100 (A_jj - S_jj) on those rows, negative wherever
    S_jj < 0.99 A_jj (S_jj <= 0.85 A_jj on the desk mesh): n_o rows break
    the outer block, the tail's length all of it."""
    b = mesh.boundary
    k = len(b.outer_nodes) + len(b.inner_nodes) - 1
    real = fem.splu

    def inflated(*args, **kwargs):
        factor = real(*args, **kwargs)
        n = factor.shape[0]
        scale = np.ones(n)
        scale[n - k:n - k + count] = 10.0
        return SimpleNamespace(shape=factor.shape, perm_c=factor.perm_c,
                               perm_r=factor.perm_r, solve=factor.solve,
                               L=(sparse.diags(scale) @ factor.L).tocsc(),
                               U=factor.U)

    monkeypatch.setattr(fem, "splu", inflated)


def build_square_mesh(n: int = 10, r0: float = 1.0, size: float = 1.0) -> Mesh:
    """Structured single-boundary mesh of [r0, r0+size] x [0, size]."""
    xs = np.linspace(r0, r0 + size, n + 1)
    ys = np.linspace(0.0, size, n + 1)
    nodes = np.array([(x, y) for y in ys for x in xs])
    tris = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + 1
            c = a + (n + 1)
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, d, c))
    edges, labels = [], []
    for i in range(n):
        edges.append((i, i + 1))
        edges.append((n * (n + 1) + i + 1, n * (n + 1) + i))
    for j in range(n):
        edges.append(((j + 1) * (n + 1) - 1, (j + 2) * (n + 1) - 1))
        edges.append(((j + 1) * (n + 1), j * (n + 1)))
    labels = [OUTER] * len(edges)
    return Mesh(nodes, np.array(tris), np.array(edges), np.array(labels))


def l_hole_square_mesh(n: int = 6) -> Mesh:
    """build_square_mesh(n) with an L-shaped hole of three cells.

    At the hole's reflex corner one triangle owns two inner-boundary edges;
    at two corners of the square one triangle owns two outer edges.
    """
    m = build_square_mesh(n)
    hole = [(2, 2), (3, 2), (3, 3)]              # (column, row) of each cell
    tris = np.delete(m.triangles, [2 * (j * n + i) + k for i, j in hole
                                   for k in (0, 1)], axis=0)
    uses: dict[tuple[int, int], int] = {}
    for t in tris.tolist():
        for p, q in zip(t, t[1:] + t[:1]):
            key = (min(p, q), max(p, q))
            uses[key] = uses.get(key, 0) + 1
    outer = {tuple(sorted(e)) for e in m.boundary_edges.tolist()}
    inner = [k for k, count in uses.items() if count == 1 and k not in outer]
    return Mesh(m.nodes, tris, np.vstack([m.boundary_edges, inner]),
                np.array([OUTER] * len(outer) + [INNER] * len(inner)))


def strip_mesh() -> Mesh:
    """Minimal 4-node, 2-triangle strip with a single outer loop."""
    nodes = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
    labels = np.array([OUTER] * 4)
    return Mesh(nodes, tris, edges, labels)
