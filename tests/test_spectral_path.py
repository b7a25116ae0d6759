"""The closed-form solve path against the slow paths it replaced.

solve_completion and sweep take u, J and R_D from one generalized
eigendecomposition of (S_N, S_D) per geometry, and assemble_kv takes the
load from one data-to-load operator per geometry; both are the stiffness
matrix's interface, which it computes once.  These tests hold that
path to a dense LU solve of the same system, to the load of two sparse data
lifts, to the direct volume integral of `evaluate` and (for sweep's one
array pass) to the per-epsilon loop it replaced, over generated data,
regularization strengths and grids, and count the sparse solves it makes:
none per data set or epsilon, and one when the flux field is read, and
the eigendecompositions: one per stiffness matrix.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dtrmv, dtrsv

from fluxrec import (CauchyData, assemble_kv, assemble_stiffness, fem,
                     find_corner, solve_completion, sweep)
from fluxrec.completion import NearSingularError
from fluxrec.experiments import TwinSpec, add_noise, generate_reference, run_twin
from fluxrec.fem import FemError
from fluxrec.regularization import default_grid
from conftest import inflate_tail_rows
from oracles import (evaluate, solve_completion_eager, sweep_by_epsilon,
                     two_lift_load)

seeds = st.integers(0, 2 ** 32 - 1)
# log-uniform over the range of default_grid
epsilons = st.floats(-6.0, -1.0).map(lambda x: 10.0 ** x)
examples = settings(max_examples=25, deadline=None)


@st.composite
def decreasing_grids(draw):
    """5 to 40 values in [1e-18, 1], strictly decreasing and at least 0.05
    decades apart; the smallest ones leave the interface system near
    singular."""
    steps = draw(st.lists(st.integers(-360, 0), min_size=5, max_size=40,
                          unique=True))
    return 10.0 ** (np.sort(steps)[::-1] / 20.0)


@pytest.fixture(scope="module")
def base(desk_mesh, desk_A):
    n = len(desk_mesh.boundary.outer_nodes)
    return assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(n), np.zeros(n)))


@pytest.fixture(scope="module", params=["desk", "iter"])
def any_base(request):
    mesh = request.getfixturevalue(f"{request.param}_mesh")
    A = request.getfixturevalue(f"{request.param}_A")
    n = len(mesh.boundary.outer_nodes)
    return assemble_kv(mesh, A, CauchyData(np.zeros(n), np.zeros(n)))


@pytest.fixture
def solve_calls(monkeypatch):
    """Names of the sparse solves made through fem, in call order."""
    calls = []

    def counted(real):
        def solve(*args):
            calls.append(real.__name__)
            return real(*args)
        return solve

    for name in ("solve_dirichlet", "solve_neumann"):
        monkeypatch.setattr(fem, name, counted(getattr(fem, name)))
    return calls


def _data(base, seed) -> CauchyData:
    """Random Cauchy data of random magnitude on the outer loop."""
    rng = np.random.default_rng(seed)
    n = len(base.data.f)
    f = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
    g = rng.standard_normal(n) * 10.0 ** rng.uniform(-2.0, 2.0)
    return CauchyData(f, g)


def _refresh(base, data):
    return assemble_kv(base.stiffness.mesh, base.stiffness, data)


def _threshold(system) -> float:
    """The epsilon at which the condition reaches 1 / (n_i * machine
    epsilon), where solve_completion starts to raise NearSingularError."""
    lam = system.stiffness.interface.eigvals
    tol = len(system.load) * np.finfo(float).eps
    return (lam[-1] - tol * lam[0]) / (1.0 - tol) - 1.0


@examples
@given(seed=seeds, epsilon=epsilons)
def test_solution_matches_dense_solve(base, seed, epsilon):
    system = _refresh(base, _data(base, seed))
    u = solve_completion(system, epsilon).u_opt
    ref = np.linalg.solve(system.system_matrix(epsilon), system.load)
    assert np.linalg.norm(u - ref) <= 1e-8 * np.linalg.norm(ref)


@examples
@given(seed=seeds, epsilon=epsilons)
def test_load_operator_matches_two_lift_load(any_base, seed, epsilon):
    system = _refresh(any_base, _data(any_base, seed))
    ref = two_lift_load(system)
    assert np.linalg.norm(system.load - ref) <= 1e-12 * np.linalg.norm(ref)
    # the closed form on the two-lift load, as solve_completion computed it
    # before the operator
    ops = system.stiffness.interface
    V, d = ops.eigvecs, 1.0 + epsilon - ops.eigvals
    u_ref = V @ ((V.T @ ref) / d)
    u = solve_completion(system, epsilon).u_opt
    assert np.linalg.norm(u - u_ref) <= 1e-9 * np.linalg.norm(u_ref)


@examples
@given(seed=seeds, epsilon=epsilons)
def test_in_place_forms_are_bitwise_the_array_expressions(any_base, seed,
                                                          epsilon):
    # the load, the constant term and the stacked J and R_D sums are built
    # in place: bitwise the out-of-place expressions they replaced.  The
    # residual is checked against its array expression too
    system = _refresh(any_base, _data(any_base, seed))
    A, data = system.stiffness, system.data
    ops = A.interface
    assert np.array_equal(system.load, ops.t_f @ data.f + ops.t_g @ data.g)
    r = A.outer_dtn_chol
    gap = dtrmv(r, data.f) - dtrsv(r, A.outer_mass @ data.g, trans=1)
    assert system.constant_term == 0.5 * float(gap @ gap)
    res = solve_completion(system, epsilon)
    c = ops.eigvecs.T @ system.load
    a = c / (1.0 + epsilon - ops.eigvals)
    assert np.array_equal(res.u_opt, ops.eigvecs @ a)
    assert res.R_D == float(0.5 * np.add.reduce(a * a))
    assert res.J == float(np.add.reduce(a * (ops.weights * a - c))
                          + system.constant_term)
    u = res.u_opt
    residual = (1.0 + epsilon) * (ops.s_d @ u) - ops.s_n @ u - system.load
    assert res.residual_norm == float(np.linalg.norm(residual)
                                      / (np.linalg.norm(system.load) or 1.0))


@examples
@given(seed=seeds, epsilon=epsilons)
def test_objective_matches_volume_integral(base, seed, epsilon):
    data = _data(base, seed)
    system = _refresh(base, data)
    res = solve_completion(system, epsilon)
    J, R_D, _ = evaluate(system, data, res.u_opt)
    tol = 1e-9 * (1.0 + system.constant_term)
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
    ops = base.stiffness.interface
    V, lam = ops.eigvecs, ops.eigvals
    n = len(base.load)
    assert np.abs(V.T @ ops.s_d @ V - np.eye(n)).max() < 1e-10
    assert np.abs(V.T @ ops.s_n @ V - np.diag(lam)).max() < 1e-10
    # the ordering 0 <= S_N <= S_D puts every eigenvalue in [0, 1]
    assert -1e-10 < lam[0] and lam[-1] < 1.0 + 1e-10


def test_reuse_carries_eigendecomposition(base):
    system = _refresh(base, _data(base, 1))
    assert system.stiffness.interface is base.stiffness.interface


def test_one_eigendecomposition_per_stiffness_matrix(iter_mesh, monkeypatch):
    # every data set, solve, sweep and twin run on A shares its interface
    calls = []
    real = fem.eigh

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fem, "eigh", counted)
    A = assemble_stiffness(iter_mesh)
    _, clean = generate_reference(iter_mesh, A, TwinSpec("TC1"))
    first, second, third, fourth = (add_noise(clean, 0.01, seed)
                                    for seed in range(4))
    assert calls == []
    system = assemble_kv(iter_mesh, A, first)
    assemble_kv(iter_mesh, A, second)
    solve_completion(system, 5e-4, third)
    sweep(system, fourth, default_grid())
    for seed in range(2):
        run_twin(iter_mesh, TwinSpec("TC2", 0.01, seed), 1e-3, A=A)
    assert len(calls) == 1


def test_sweep_makes_no_sparse_solve(base, solve_calls):
    # none per epsilon and none for J's constant term, on every data set
    system = _refresh(base, _data(base, 2))
    sweep(system, system.data, default_grid())
    sweep(system, system.data, default_grid(30))
    sweep(base, _data(base, 3), default_grid())
    assert solve_calls == []


@examples
@given(seed=seeds, grid=decreasing_grids())
def test_sweep_matches_per_epsilon_loop(any_base, seed, grid):
    system = _refresh(any_base, _data(any_base, seed))
    try:
        ref = sweep_by_epsilon(system, grid)
    except RuntimeError as exc:
        with pytest.raises(RuntimeError, match=re.escape(str(exc))):
            sweep(system, None, grid)
        return
    curve = sweep(system, None, grid)
    assert np.array_equal(curve.epsilons, ref.epsilons)
    assert curve.dropped == ref.dropped
    # the sums run in another order: J within a few ulps of C, R_D of itself
    C = system.constant_term
    assert np.abs(curve.misfits - ref.misfits).max() <= 1e-12 * C
    assert np.all(np.abs(curve.regularizers - ref.regularizers)
                  <= 1e-13 * ref.regularizers)
    # below J's roundoff floor the corner is picked from roundoff
    if np.all(ref.misfits > 1e-9 * C):
        find_corner(ref)
        assert curve.corner_index == ref.corner_index


def test_screen_matches_per_epsilon_test_at_its_threshold(any_base):
    # grid values within 20% of the epsilon at which the condition reaches
    # 1 / (n_i * machine epsilon), 1 + eps about an ulp apart: the sweep's
    # vector screen drops exactly those that the per-epsilon test drops,
    # with its messages, and solve_completion raises at exactly those
    system = _refresh(any_base, _data(any_base, 5))
    threshold = _threshold(system)
    assert threshold > 0.0
    near = threshold * (1.0 + 0.02 * np.arange(10, -11, -1))
    grid = np.concatenate([default_grid(5, 1e-6, 1e-2), near])
    curve = sweep(system, None, grid)
    ref = sweep_by_epsilon(system, grid)
    assert np.array_equal(curve.epsilons, ref.epsilons)
    assert curve.dropped == ref.dropped
    dropped = dict(curve.dropped)
    assert 0 < len(dropped) < len(near)
    for eps in grid.tolist():
        if eps in dropped:
            with pytest.raises(NearSingularError) as raised:
                solve_completion(system, eps)
            assert str(raised.value) == dropped[eps]
        else:
            solve_completion(system, eps)


DIAGNOSTICS = ("u_opt", "R_D", "J", "J_eps", "residual_norm", "epsilon")


@examples
@given(seed=seeds, epsilon=epsilons, near=st.none() | st.floats(-0.2, 0.2),
       order=st.permutations(DIAGNOSTICS))
def test_deferred_diagnostics_equal_eager_solve(any_base, seed, epsilon, near,
                                                order):
    # read in any order, each value is the one the eager solve computed
    # with u; near the near-singular threshold (epsilon within 20% of it)
    # both paths raise at the same epsilons, with the same message
    system = _refresh(any_base, _data(any_base, seed))
    if near is not None:
        epsilon = _threshold(system) * (1.0 + near)
    try:
        ref = solve_completion_eager(system, epsilon)
    except NearSingularError as exc:
        with pytest.raises(NearSingularError) as raised:
            solve_completion(system, epsilon)
        assert str(raised.value) == str(exc)
        return
    res = solve_completion(system, epsilon)
    for name in order:
        value, expected = getattr(res, name), getattr(ref, name)
        if name == "u_opt":
            assert np.array_equal(value, expected)
        else:
            assert type(value) is float and value == expected, name


class _Unavailable(Exception):
    pass


class _EigenpairsOnly:
    """An interface that serves its eigendecomposition and nothing else."""

    def __init__(self, ops):
        self.eigvals, self.eigvecs = ops.eigvals, ops.eigvecs

    def __getattr__(self, name):
        raise _Unavailable(name)


def test_solve_computes_u_alone(any_base):
    system = _refresh(any_base, _data(any_base, 6))
    res = solve_completion(system, 5e-4)
    assert set(vars(res)) == {"u_opt", "epsilon", "system", "_c", "_a"}
    # a second read returns the identical float
    first = (res.R_D, res.J, res.residual_norm)
    assert all(type(value) is float for value in first)
    assert all(a is b for a, b in zip(first,
                                      (res.R_D, res.J, res.residual_norm)))
    # u needs neither S_N nor the weights of J, and the diagnostics that
    # do are not computed until read
    interface = _EigenpairsOnly(system.stiffness.interface)
    stub = SimpleNamespace(stiffness=SimpleNamespace(interface=interface),
                           data=system.data, load=system.load)
    lazy = solve_completion(stub, 5e-4)
    assert np.array_equal(lazy.u_opt, res.u_opt)
    for name in ("R_D", "J", "J_eps", "residual_norm"):
        with pytest.raises(_Unavailable):
            getattr(lazy, name)


def test_per_data_set_path_defers_sparse_solves(base, solve_calls):
    data = _data(base, 4)
    res = solve_completion(_refresh(base, data), 5e-4)
    J = res.J
    assert solve_calls == []
    # repeated reads return the cached value
    assert res.J == J and res.J_eps == J + res.epsilon * res.R_D
    assert res.system.constant_term >= 0.0
    psi = res.psi_opt
    assert solve_calls == ["solve_neumann"]
    assert res.psi_opt is psi
    assert solve_calls == ["solve_neumann"]
    # the deferred values are the ones the direct paths give
    assert np.array_equal(psi.values,
                          fem.solve_neumann(base.stiffness, data.g, res.u_opt).values)
    J_direct, R_D, _ = evaluate(res.system, data, res.u_opt)
    tol = 1e-9 * (1.0 + res.system.constant_term)
    assert abs(J - J_direct) <= tol
    assert abs(res.R_D - R_D) <= tol


def test_condition_reported_for_refused_epsilon(base):
    # an epsilon that the eigenvalues do not resolve is refused with the
    # condition max(d) / min(d), d = 1 + eps - lambda, by solve_completion
    # and in the sweep's dropped message alike
    system = _refresh(base, _data(base, 7))
    eps = 0.5 * _threshold(system)
    d = 1.0 + eps - system.stiffness.interface.eigvals
    assert d.min() > 0.0
    condition = f"condition {d.max() / d.min():.3e}"
    with pytest.raises(NearSingularError) as raised:
        solve_completion(system, eps)
    assert str(raised.value).endswith(condition)
    curve = sweep(system, None, np.append(default_grid(5, 1e-6, 1e-2), eps))
    (dropped, message), = curve.dropped
    assert dropped == eps and message.endswith(condition)


def _zero_data(mesh) -> CauchyData:
    n = len(mesh.boundary.outer_nodes)
    return CauchyData(np.zeros(n), np.zeros(n))


def test_assembly_rejects_indefinite_s_d(desk_mesh, monkeypatch):
    # S_D = S_N + W'W is positive definite by construction once the Schur
    # complement's Cholesky factor exists, so only a fault in what reaches
    # the eigensolver can break it: hand it S_D negated
    real = fem.eigh
    monkeypatch.setattr(fem, "eigh", lambda s_n, s_d: real(s_n, -s_d))
    with pytest.raises(FemError, match="S_D is not positive definite"):
        assemble_kv(desk_mesh, assemble_stiffness(desk_mesh),
                    _zero_data(desk_mesh))


def test_assembly_rejects_indefinite_s_oo(desk_mesh, monkeypatch):
    # S_OO = R'R is the leading block of the Schur complement that fem
    # Cholesky-factors, so an indefinite S_OO stops that factorization:
    # inflate the outer rows of L_TI
    inflate_tail_rows(monkeypatch, desk_mesh,
                      len(desk_mesh.boundary.outer_nodes))
    with pytest.raises(FemError, match="assemble: the boundary "
                       "Dirichlet-to-Neumann matrix is not positive definite"):
        assemble_kv(desk_mesh, assemble_stiffness(desk_mesh),
                    _zero_data(desk_mesh))


def test_assembly_rejects_violated_ordering(desk_mesh, monkeypatch):
    # S_D - S_N = T_f S_OO^-1 T_f' is PSD by construction, so only an
    # eigensolver fault can break the ordering: shift its eigenvalues.  A
    # fresh stiffness matrix, as a shared one may hold its interface already
    real = fem.eigh

    def shifted(*args):
        lam, vecs = real(*args)
        return lam + 1e-9, vecs

    monkeypatch.setattr(fem, "eigh", shifted)
    with pytest.raises(FemError, match="indefinite"):
        assemble_kv(desk_mesh, assemble_stiffness(desk_mesh),
                    _zero_data(desk_mesh))
