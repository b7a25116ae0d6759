"""The closed-form solve path against the slow paths it replaced.

solve_completion and sweep take u, J and R_D from one generalized
eigendecomposition of (S_N, S_D) per geometry.  These tests hold that path
to a dense LU solve of the same system and to the direct volume integral of
`evaluate`, over generated data and regularization strengths.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import (CauchyData, assemble_kv, evaluate, fem, solve_completion,
                     sweep)
from fluxrec import completion as cp
from fluxrec.completion import KVAssemblyError, NearSingularError
from fluxrec.regularization import default_grid

seeds = st.integers(0, 2 ** 32 - 1)
# log-uniform over the range of default_grid
epsilons = st.floats(-6.0, -1.0).map(lambda x: 10.0 ** x)
examples = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def base(desk_mesh, desk_A):
    n = len(desk_mesh.boundary.outer_nodes)
    return assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(n), np.zeros(n)))


def _data(base, seed) -> CauchyData:
    """Random Cauchy data of random magnitude on the outer loop."""
    rng = np.random.default_rng(seed)
    n = len(base.data.f)
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
    return CauchyData(f, g)


def _refresh(base, data):
    return assemble_kv(base.mesh, base.stiffness, data, reuse=base)


@examples
@given(seed=seeds, epsilon=epsilons)
def test_solution_matches_dense_solve(base, seed, epsilon):
    system = _refresh(base, _data(base, seed))
    u = solve_completion(system, epsilon).u_opt
    ref = np.linalg.solve(system.system_matrix(epsilon), system.load)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)


@examples
@given(seed=seeds, epsilon=epsilons)
def test_objective_matches_volume_integral(base, seed, epsilon):
    data = _data(base, seed)
    system = _refresh(base, data)
    res = solve_completion(system, epsilon)
    J, R_D, _ = evaluate(system, data, res.u_opt)
    tol = 1e-9 * (1.0 + system.constant_term())
    assert abs(res.J - J) <= tol
    assert abs(res.R_D - R_D) <= tol


@examples
@given(seed_a=seeds, seed_b=seeds, alpha=st.floats(-3.0, 3.0),
       beta=st.floats(-3.0, 3.0), epsilon=epsilons)
def test_solution_is_linear_in_data(base, seed_a, seed_b, alpha, beta,
                                    epsilon):
    da, db = _data(base, seed_a), _data(base, seed_b)
    mixed = CauchyData(alpha * da.f + beta * db.f, alpha * da.g + beta * db.g)
    ua = solve_completion(base, epsilon, da).u_opt
    ub = solve_completion(base, epsilon, db).u_opt
    u = solve_completion(base, epsilon, mixed).u_opt
    scale = abs(alpha) * np.linalg.norm(ua) + abs(beta) * np.linalg.norm(ub)
    assert np.linalg.norm(u - (alpha * ua + beta * ub)) <= 1e-8 * scale + 1e-300


@examples
@given(seed=seeds, epsilon=epsilons)
def test_other_data_equals_reuse_assembly(base, seed, epsilon):
    data = _data(base, seed)
    direct = solve_completion(base, epsilon, data)
    reused = solve_completion(_refresh(base, data), epsilon)
    assert np.array_equal(direct.u_opt, reused.u_opt)
    assert np.array_equal(direct.psi_opt.values, reused.psi_opt.values)
    assert (direct.J, direct.R_D, direct.residual_norm) \
        == (reused.J, reused.R_D, reused.residual_norm)


def test_eigendecomposition_diagonalizes_both_operators(base):
    V, lam = base.eigvecs, base.eigvals
    n = base.size
    assert np.abs(V.T @ base.s_d @ V - np.eye(n)).max() < 1e-10
    assert np.abs(V.T @ base.s_n @ V - np.diag(lam)).max() < 1e-10
    # the ordering 0 <= S_N <= S_D puts every eigenvalue in [0, 1]
    assert -1e-10 < lam[0] and lam[-1] < 1.0 + 1e-10


def test_reuse_carries_eigendecomposition(base):
    system = _refresh(base, _data(base, 1))
    assert system.eigvals is base.eigvals
    assert system.eigvecs is base.eigvecs


def test_sweep_makes_no_sparse_solve(base, monkeypatch):
    calls = []

    def counted(real):
        def solve(*args):
            calls.append(real.__name__)
            return real(*args)
        return solve

    for name in ("solve_dirichlet", "solve_neumann"):
        monkeypatch.setattr(fem, name, counted(getattr(fem, name)))
    system = _refresh(base, _data(base, 2))
    assert len(calls) == 2
    sweep(system, system.data, default_grid())
    assert len(calls) == 2


def test_condition_reported_for_every_epsilon(base):
    d = 1.0 + 1e-3 - base.eigvals
    res = solve_completion(base, 1e-3)
    assert res.condition_estimate == pytest.approx(d.max() / d.min())
    with pytest.raises(NearSingularError, match="condition"):
        solve_completion(base, 0.0)


def _scaled_columns(monkeypatch, A, which, factor):
    """Scale one family of lifted columns, so that S_D or S_N is scaled."""
    real = cp._harmonic_columns
    target = getattr(A, which)

    def scaled(reduced, n, cols):
        x = real(reduced, n, cols)
        return factor * x if reduced is target else x

    monkeypatch.setattr(cp, "_harmonic_columns", scaled)


def test_assembly_rejects_indefinite_s_d(desk_mesh, desk_A, monkeypatch):
    _scaled_columns(monkeypatch, desk_A, "_dirichlet", -1.0)
    n = len(desk_mesh.boundary.outer_nodes)
    with pytest.raises(KVAssemblyError, match="positive definite"):
        assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(n), np.zeros(n)))


def test_assembly_rejects_violated_ordering(desk_mesh, desk_A, monkeypatch):
    _scaled_columns(monkeypatch, desk_A, "_neumann", 2.0)
    n = len(desk_mesh.boundary.outer_nodes)
    with pytest.raises(KVAssemblyError, match="indefinite"):
        assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(n), np.zeros(n)))
