import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from fluxrec import (CauchyData, assemble_kv, assemble_stiffness, evaluate,
                     interpolate, optimality_residual, quadratic_misfit,
                     solve_completion, solve_dirichlet, solve_neumann, trace)
from fluxrec.completion import NearSingularError
from fluxrec.experiments import TwinSpec, generate_reference
from fluxrec.mesh import INNER


@pytest.fixture(scope="module")
def desk_system(desk_mesh, desk_A):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    return assemble_kv(desk_mesh, desk_A, data), data


def test_zero_data_gives_zero_load(desk_mesh, desk_A):
    n = len(desk_mesh.boundary.outer_nodes)
    system = assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(n), np.zeros(n)))
    assert np.abs(system.load).max() < 1e-14


def test_interface_matrices_symmetric(desk_system):
    system, _ = desk_system
    assert np.array_equal(system.s_d, system.s_d.T)
    assert np.array_equal(system.s_n, system.s_n.T)


def test_gap_operator_nearly_singular(desk_system):
    # the two interface operators agree asymptotically, so their difference
    # has eigenvalues clustering at zero while staying nonnegative
    system, _ = desk_system
    gap = eigvalsh(system.s_d - system.s_n)
    norm_d = np.linalg.norm(system.s_d, 2)
    assert gap.min() >= -1e-10 * norm_d
    assert gap.min() / gap.max() < 1e-8
    assert eigvalsh(system.s_d).min() > 0


def test_ordering_inequality(desk_system):
    system, _ = desk_system
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.standard_normal(system.size)
        assert v @ (system.s_n @ v) <= v @ (system.s_d @ v) + 1e-10


@pytest.mark.parametrize("fixture", ["desk", "iter", "wide"])
def test_quadratic_identity(fixture, request):
    mesh = request.getfixturevalue(f"{fixture}_mesh")
    A = request.getfixturevalue(f"{fixture}_A")
    _, data = generate_reference(mesh, A, TwinSpec("MANUFACTURED:r2z"))
    system = assemble_kv(mesh, A, data)
    rng = np.random.default_rng(42)
    for _ in range(20):
        v = rng.standard_normal(system.size) * 10.0
        direct = evaluate(system, data, v)[0]
        quad = quadratic_misfit(system, v)
        assert abs(direct - quad) < 1e-9 * (1.0 + abs(direct))


def test_compatible_data_reaches_discretization_floor(desk_mesh, desk_A, desk_system):
    system, data = desk_system
    star = interpolate(desk_mesh, lambda r, z: r * r)
    u_star = trace(star, INNER)
    J_at_star = evaluate(system, data, u_star)[0]
    J0 = evaluate(system, data, 0.0)[0]
    assert J_at_star < 1e-3 * J0


def test_misfit_at_zero_dominates_and_orders_by_case(iter_mesh, iter_A):
    # the zero-control misfit equals the data-gap energy; richer inner
    # values give a larger gap, matching the reference tables' ordering
    _, d1 = generate_reference(iter_mesh, iter_A, TwinSpec("TC1"))
    _, d2 = generate_reference(iter_mesh, iter_A, TwinSpec("TC2"))
    s1 = assemble_kv(iter_mesh, iter_A, d1)
    J1 = evaluate(s1, d1, 0.0)[0]
    J2 = evaluate(s1, d2, 0.0)[0]
    assert J1 > J2 > 0


# Decisions ledger for the two xfails below.  Both pin magnitudes from the
# paper's tables that this pipeline cannot reproduce; they stay xfail, not
# deleted, so that a change which does reproduce them shows up as XPASS.
#
# Zero-control misfit J(0).  J(0) is the constant term, half the weighted
# energy of the gap between the two data-only lifts, so it is quadratic in
# the data.  TC1 (u = 50 sin(r)^2 + 50, g of psi = r^2) gives J(0) = 2.36e3
# on the iter-like mesh, 1.95e3 on the desk annulus (1.95e3 again at
# refine=1, so it is mesh-converged) and 5.65e3 on the wide annulus: 40 to
# 120 times the published ~47.  Reaching ~47 would need data about 7 times
# smaller, i.e. other units or another inner profile than the table states.
#
# Noise-free TC2 error.  The twin data are made by the same discrete Neumann
# solve the reconstruction inverts, so without noise they are exactly
# compatible and only the regularization bias is left.  A constant inner
# value is the lambda = 0 eigenvector of the pencil (S_N, S_D), since its
# Neumann lift is the constant field with zero energy, so the solve returns
# it scaled by 1/(1 + eps): the error is eps itself, 1.0e-5 at the table's
# eps = 1e-5 (and 1e-6, 1e-4, 1e-3 at those eps), against the published
# 0.0055.  The published figure must come from data not exactly compatible
# with the discrete operator, which this twin pipeline does not model.
@pytest.mark.xfail(reason="the published zero-control misfit magnitude "
                          "(~47) is not reproducible on any annulus of this "
                          "geometry class; see decisions ledger",
                   strict=False)
def test_misfit_at_zero_magnitude(iter_mesh, iter_A):
    _, data = generate_reference(iter_mesh, iter_A, TwinSpec("TC1"))
    system = assemble_kv(iter_mesh, iter_A, data)
    J0 = evaluate(system, data, 0.0)[0]
    assert 4.7 < J0 < 470.0


def test_homogeneous_data_quadratic_form(desk_mesh, desk_A):
    n = len(desk_mesh.boundary.outer_nodes)
    data = CauchyData(np.zeros(n), np.zeros(n))
    system = assemble_kv(desk_mesh, desk_A, data)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(system.size)
    J, R_D, _ = evaluate(system, data, u)
    assert J >= 0
    assert R_D > 0
    assert abs(J - 0.5 * u @ ((system.s_d - system.s_n) @ u)) < 1e-9 * (1 + J)


def test_zero_data_completion_returns_zero(desk_mesh, desk_A):
    n = len(desk_mesh.boundary.outer_nodes)
    system = assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(n), np.zeros(n)))
    res = solve_completion(system, 1e-4)
    assert np.abs(res.u_opt).max() < 1e-12
    assert res.J < 1e-20


def test_manufactured_recovery_small_epsilon(desk_mesh, desk_A):
    spec = TwinSpec("MANUFACTURED:quartic")
    psi_ref, data = generate_reference(desk_mesh, desk_A, spec)
    system = assemble_kv(desk_mesh, desk_A, data)
    res = solve_completion(system, 1e-8)
    star = interpolate(desk_mesh, lambda r, z: r ** 4 - 4 * r ** 2 * z ** 2)
    u_star = trace(star, INNER)
    err = np.abs(res.u_opt - u_star).max() / np.abs(u_star).max()
    assert err < 1e-2
    assert res.residual_norm < 1e-10


@pytest.mark.xfail(reason="the published noise-free recovery error (~5e-3) "
                          "is two orders above the roundoff floor of the "
                          "compatible-by-construction pipeline; see ledger",
                   strict=False)
def test_tc2_noise_free_error_magnitude(iter_mesh, iter_A):
    from fluxrec.experiments import run_twin
    report = run_twin(iter_mesh, TwinSpec("TC2"), 1e-5, A=iter_A)
    assert 5e-4 < report.max_rel_err_u < 5e-2


def test_result_field_is_neumann_solution(desk_mesh, desk_A, desk_system):
    # the output field must always be the Neumann solution at the optimum
    # (the Dirichlet one is much more noise-sensitive)
    system, data = desk_system
    res = solve_completion(system, 1e-6)
    neumann = solve_neumann(desk_A, data.g, res.u_opt)
    dirichlet = solve_dirichlet(desk_A, data.f, res.u_opt)
    assert np.array_equal(res.psi_opt.values, neumann.values)
    assert not np.array_equal(res.psi_opt.values, dirichlet.values)


def test_total_cost_consistency(desk_system):
    system, data = desk_system
    res = solve_completion(system, 3e-4)
    assert abs(res.J_eps - (res.J + res.epsilon * res.R_D)) \
        <= 1e-12 * max(1.0, abs(res.J_eps))


def test_optimality_residual_near_zero_at_optimum(desk_system):
    system, data = desk_system
    res = solve_completion(system, 1e-5)
    r = optimality_residual(system, res.u_opt, 1e-5)
    assert np.linalg.norm(r) < 1e-8 * np.linalg.norm(system.load)


def test_optimality_residual_linearity(desk_system):
    system, data = desk_system
    res = solve_completion(system, 1e-4)
    rng = np.random.default_rng(9)
    delta = rng.standard_normal(system.size)
    r = optimality_residual(system, res.u_opt + delta, 1e-4)
    predicted = system.system_matrix(1e-4) @ delta
    scale = max(np.abs(predicted).max(), 1.0)
    assert np.abs(r - predicted).max() < 1e-8 * scale


def test_optimality_residual_compatible_data_unregularized(desk_mesh, desk_A):
    # with compatible data the inner-boundary flux mismatch vanishes at the
    # true trace even without regularization
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    system = assemble_kv(desk_mesh, desk_A, data)
    star = interpolate(desk_mesh, lambda r, z: r * r)
    u_star = trace(star, INNER)
    r = optimality_residual(system, u_star, epsilon=0.0)
    assert np.linalg.norm(r) < 1e-8 * np.linalg.norm(system.load)


def test_stability_constant_monotone_in_epsilon(desk_mesh, desk_A, desk_system):
    system, data = desk_system
    rng = np.random.default_rng(17)
    delta_f = rng.standard_normal(len(data.f))
    delta_g = rng.standard_normal(len(data.g))
    perturbed = CauchyData(data.f + 0.01 * delta_f, data.g + 0.01 * delta_g)
    spread = []
    for eps in (1e-2, 1e-3, 1e-4):
        u1 = solve_completion(system, eps, data).u_opt
        u2 = solve_completion(system, eps, perturbed).u_opt
        spread.append(np.linalg.norm(u1 - u2))
    assert spread[0] <= spread[1] <= spread[2]


def test_assembly_is_deterministic(desk_mesh, desk_A, desk_system):
    _, data = desk_system
    s1 = assemble_kv(desk_mesh, desk_A, data)
    s2 = assemble_kv(desk_mesh, desk_A, data)
    assert s1.s_d.tobytes() == s2.s_d.tobytes()
    assert s1.s_n.tobytes() == s2.s_n.tobytes()
    assert s1.load.tobytes() == s2.load.tobytes()


def test_factorization_reuse_amortizes(desk_mesh):
    # cold precomputation (sparse factorizations + interface matrices) vs
    # amortized per-dataset solve time reusing all of it; best-of-N timings
    # with gc paused to damp scheduler jitter
    import gc
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            A = assemble_stiffness(desk_mesh)
            _, data = generate_reference(desk_mesh, A, TwinSpec("MANUFACTURED:r2"))
            A = assemble_stiffness(desk_mesh)
            t0 = time.perf_counter()
            system = assemble_kv(desk_mesh, A, data)
            times.append(time.perf_counter() - t0)
        t_assembly = min(times)

        rng = np.random.default_rng(23)
        datasets = [CauchyData(data.f + rng.standard_normal(len(data.f)),
                               data.g + rng.standard_normal(len(data.g)))
                    for _ in range(100)]
        solve_completion(system, 1e-4, datasets[0])
        batches = []
        for _ in range(3):
            t0 = time.perf_counter()
            for d in datasets:
                solve_completion(system, 1e-4, d)
            batches.append((time.perf_counter() - t0) / 100.0)
        per_solve = min(batches)
    finally:
        gc.enable()
    assert per_solve < 0.10 * t_assembly


def test_epsilon_zero_reports_condition_or_near_singular(desk_system):
    system, data = desk_system
    try:
        res = solve_completion(system, 0.0)
        assert res.condition_estimate is not None
        assert res.condition_estimate > 1e6
    except NearSingularError:
        pass


def test_negative_epsilon_rejected(desk_system):
    system, _ = desk_system
    with pytest.raises(ValueError):
        solve_completion(system, -1e-3)


def test_data_length_validated(desk_mesh, desk_A):
    with pytest.raises(ValueError):
        assemble_kv(desk_mesh, desk_A, CauchyData(np.zeros(3), np.zeros(3)))
