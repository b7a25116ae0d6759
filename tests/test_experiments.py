import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxrec import assemble_kv, assemble_stiffness, interpolate
from fluxrec.experiments import (TABLE_EPSILONS, TWIN_CASES, TwinSpec,
                                 add_noise, generate_reference, loop_flux_field,
                                 run_twin, table1_grid)
from fluxrec.completion import CauchyData
from fluxrec.mesh import circle_loop, generate_annulus_mesh


def test_constant_case_with_zero_flux(desk_mesh, desk_A):
    spec = TwinSpec("TC2", g_spec=lambda r, z, nr, nz: np.zeros_like(r))
    psi_ref, data = generate_reference(desk_mesh, desk_A, spec)
    assert np.allclose(psi_ref.values, 40.0, atol=1e-10)
    assert np.allclose(data.f, 40.0, atol=1e-10)
    assert np.abs(data.g).max() == 0.0


def test_manufactured_r2_reference_matches_field(desk_mesh, desk_A):
    psi_ref, data = generate_reference(desk_mesh, desk_A,
                                       TwinSpec("MANUFACTURED:r2"))
    star = interpolate(desk_mesh, lambda r, z: r * r)
    rel = np.abs(psi_ref.values - star.values).max() / np.abs(star.values).max()
    assert rel < 5e-3  # discretization level on the desk mesh


def test_tc1_reference_is_nontrivial(desk_mesh, desk_A):
    psi_ref, data = generate_reference(desk_mesh, desk_A, TwinSpec("TC1"))
    assert np.all(np.isfinite(data.f))
    assert data.f.std() > 1.0


def test_unknown_case_rejected():
    for case in ("TC3", "MANUFACTURED:septic", "r2"):
        with pytest.raises(ValueError, match=f"unknown twin case '{case}'") as info:
            TwinSpec(case)
        assert str(info.value).endswith(", ".join(TWIN_CASES))
        assert "MANUFACTURED:r2z" in str(info.value)


def test_flux_override_applies_to_manufactured_case(desk_mesh, desk_A):
    spec = TwinSpec("MANUFACTURED:r2", g_spec=lambda r, z, nr, nz: np.zeros_like(r))
    psi_ref, data = generate_reference(desk_mesh, desk_A, spec)
    assert np.abs(data.g).max() == 0.0
    _, own = generate_reference(desk_mesh, desk_A, TwinSpec("MANUFACTURED:r2"))
    assert np.abs(own.g).max() > 1.0


def test_noise_zero_is_identity(desk_mesh, desk_A):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("TC1"))
    noisy = add_noise(data, 0.0, 1234)
    assert noisy.f.tobytes() == data.f.tobytes()
    assert noisy.g.tobytes() == data.g.tobytes()


def test_noise_seeded_reproducibility(desk_mesh, desk_A):
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("TC1"))
    a = add_noise(data, 0.01, 42)
    b = add_noise(data, 0.01, 42)
    c = add_noise(data, 0.01, 43)
    assert a.f.tobytes() == b.f.tobytes() and a.g.tobytes() == b.g.tobytes()
    assert a.f.tobytes() != c.f.tobytes()


def test_noise_amplitude_statistics(iter_mesh, iter_A):
    # 120 outer samples; the empirical std of (noisy-clean)/RMS over several
    # seeds concentrates near the requested fraction
    _, data = generate_reference(iter_mesh, iter_A, TwinSpec("TC1"))
    rms = np.sqrt(np.mean(data.f ** 2))
    devs = []
    for seed in range(5):
        noisy = add_noise(data, 0.05, seed)
        devs.append((noisy.f - data.f) / rms)
    std = np.std(np.concatenate(devs))
    assert 0.04 < std < 0.06


def test_twin_tc1_noise_free_error_magnitude(iter_mesh, iter_A):
    report = run_twin(iter_mesh, TwinSpec("TC1"), 1e-5, A=iter_A)
    assert 1e-3 < report.max_rel_err_u < 1e-1


def test_twin_tc2_noisy_error_magnitude(iter_mesh, iter_A):
    report = run_twin(iter_mesh, TwinSpec("TC2", 0.05, 0), 5e-3, A=iter_A)
    assert 4e-3 < report.max_rel_err_u < 4e-1


def test_twin_manufactured_quartic(desk_mesh, desk_A):
    report = run_twin(desk_mesh, TwinSpec("MANUFACTURED:quartic"), 1e-8,
                      A=desk_A)
    assert report.max_rel_err_u < 1e-2


@pytest.mark.filterwarnings("error")
def test_twin_sign_changing_reference_gives_finite_error(desk_mesh, desk_A):
    # u_ref = z changes sign on the inner contour, where a per-node relative
    # error divides by zero
    report = run_twin(desk_mesh, TwinSpec("MANUFACTURED:z"), 1e-5, A=desk_A)
    assert np.isfinite(report.max_rel_err_u)
    assert report.max_rel_err_u < 1e-2
    # the field error shares the normalization by the reference's maximum
    field_err = report.field_rel_err.values
    assert np.all(np.isfinite(field_err))
    assert field_err.max() < 10.0 * report.max_rel_err_u


def test_mean_error_nondecreasing_in_noise(iter_mesh, iter_A):
    means = []
    for p in (0.0, 0.01, 0.05):
        errs = []
        for seed in range(10):
            rep = run_twin(iter_mesh,
                           TwinSpec("TC1", p, seed),
                           TABLE_EPSILONS["TC1"][p], A=iter_A)
            errs.append(rep.max_rel_err_u)
        means.append(np.mean(errs))
    assert means[0] <= means[1] <= means[2]


def test_field_error_localizes_at_inner_boundary(iter_mesh, iter_A):
    report = run_twin(iter_mesh, TwinSpec("TC1", 0.05, 1), 1e-3, A=iter_A)
    err = report.field_rel_err.values
    h = iter_mesh.max_edge_length
    b = iter_mesh.boundary
    def near(nodeset):
        d = np.min(np.linalg.norm(
            iter_mesh.nodes[:, None, :] - iter_mesh.nodes[nodeset][None, :, :],
            axis=2), axis=1)
        return d <= h
    near_inner = near(b.inner_nodes)
    near_outer = near(b.outer_nodes)
    assert np.percentile(err[near_inner], 90) > np.median(err[near_outer])


def test_optimum_improves_misfit(iter_mesh, iter_A):
    for case in ("TC1", "TC2"):
        for p in (0.0, 0.01, 0.05):
            rep = run_twin(iter_mesh, TwinSpec(case, p, 2),
                           TABLE_EPSILONS[case][p], A=iter_A)
            assert rep.result.J < rep.result.system.constant_term


def test_stiffness_from_another_mesh_is_rejected(desk_mesh, desk_A):
    # the desk annulus centred at r = 6.5 instead of 6: the boundary counts
    # match, so no length check fires, but A's entries belong to other nodes
    other = generate_annulus_mesh(circle_loop(6.5, 0.0, 2.9, 110),
                                  circle_loop(6.5, 0.0, 0.8, 30), 0.2,
                                  node_budget=1000)
    other_A = assemble_stiffness(other)
    _, data = generate_reference(desk_mesh, desk_A, TwinSpec("TC1"))
    with pytest.raises(ValueError, match="different mesh"):
        assemble_kv(desk_mesh, other_A, data)
    with pytest.raises(ValueError, match="different mesh"):
        generate_reference(desk_mesh, other_A, TwinSpec("TC1"))
    with pytest.raises(ValueError, match="different mesh"):
        run_twin(desk_mesh, TwinSpec("TC1"), 1e-5, A=other_A)
    system = assemble_kv(desk_mesh, desk_A, data)
    with pytest.raises(ValueError, match="another stiffness matrix"):
        assemble_kv(desk_mesh, assemble_stiffness(desk_mesh), data, reuse=system)


def test_table1_grid_layout(iter_mesh):
    text, rows = table1_grid(iter_mesh, seed=0)
    lines = text.strip().splitlines()
    assert lines[0].split() == ["noise_level", "error_TC1", "error_TC2"]
    assert len(lines) == 4
    assert len(rows) == 6


def test_loop_flux_field_solves_operator():
    # finite-difference oracle for L psi = 0 away from the loop point
    mf = loop_flux_field(6.0, 0.0, strength=2.0, vertical=0.3)
    h = 1e-4
    for (r, z) in [(7.2, 0.9), (4.8, -1.7), (6.1, 2.4)]:
        t1 = ((1/(r + h/2)) * (mf.psi(r + h, z) - mf.psi(r, z)) / h
              - (1/(r - h/2)) * (mf.psi(r, z) - mf.psi(r - h, z)) / h) / h
        t2 = (mf.psi(r, z + h) - 2 * mf.psi(r, z) + mf.psi(r, z - h)) / (h * h) / r
        assert abs(t1 + t2) < 1e-4 * max(1.0, abs(mf.psi(r, z)))
        # gradient consistency
        gr, gz = mf.grad(r, z)
        fd_r = (mf.psi(r + h, z) - mf.psi(r - h, z)) / (2 * h)
        fd_z = (mf.psi(r, z + h) - mf.psi(r, z - h)) / (2 * h)
        assert abs(gr - fd_r) < 1e-6 * max(1.0, abs(gr))
        assert abs(gz - fd_z) < 1e-6 * max(1.0, abs(gz))


def test_noise_fraction_validated():
    with pytest.raises(ValueError):
        TwinSpec("TC1", noise_level=0.7)
    with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
        TwinSpec("TC1", seed=-1)
    with pytest.raises(ValueError):
        add_noise(CauchyData(np.ones(4), np.ones(4)), -0.1, 0)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300)),
                       min_size=1, max_size=20),
       seed=st.integers(0, 2**32 - 1))
def test_zero_noise_is_identity(values, seed):
    data = CauchyData(*np.array(values).T)
    noisy = add_noise(data, 0.0, seed)
    assert noisy.f.tobytes() == data.f.tobytes()
    assert noisy.g.tobytes() == data.g.tobytes()
