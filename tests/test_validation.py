"""Dense validation suite: bundle assembly cross-checks and theorem checks.

The bundle matrices are cross-validated against the matrix-free production
operators (two independent code paths); the check functions are exercised
on closed-form corner cases with hand-computable answers before the full
sweep runs.
"""

import numpy as np
import pytest
from dense_backend import DenseShiftedSolver

from pintopt.discretize import TimeSpaceGrid, build_stiffness
from pintopt.operators import AllAtOnceOperator
from pintopt.rbd import RbdEpsPreconditioner, rate_constant
from pintopt.validation import (
    CheckResult,
    build_bundle,
    check_definiteness,
    check_eps_clustering,
    check_eps_perturbation,
    check_factorizations,
    check_gmres_rate,
    check_rbd_spectrum,
    check_norm_bounds,
    check_smw_identity,
    check_vanishing_damping,
    laplacian_1d,
    run_validation,
    symmetric_root,
    synthetic_masses,
)


def constant_coefficient(x1, x2):
    return np.ones_like(np.asarray(x1, float))


def fd_bundle(m1, n, gamma, eps):
    grid = TimeSpaceGrid(m1=m1, n=n)
    stiffness = build_stiffness(grid, constant_coefficient)
    return grid, build_bundle(n, grid.tau, gamma, eps, np.eye(grid.m), stiffness)


# ------------------------------------------------------- bundle assembly


def test_symmetric_root_reconstructs_and_inverts():
    rng = np.random.default_rng(7)
    basis = rng.standard_normal((5, 5))
    spd = basis @ basis.T + 5 * np.eye(5)
    root, root_inv = symmetric_root(spd)
    assert np.allclose(root @ root, spd, atol=1e-12 * np.max(np.abs(spd)))
    assert np.allclose(root @ root_inv, np.eye(5), atol=1e-12)
    assert np.allclose(root, root.T)


def test_symmetric_root_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        symmetric_root(np.diag([1.0, -1.0]))


def test_time_difference_and_corner_blocks():
    _, b = fd_bundle(1, 3, 1.0, 0.25)
    assert np.array_equal(b.time_difference, [[1, 0, 0], [-1, 1, 0], [0, -1, 1]])
    want = np.array([[1, 0, -0.25], [-1, 1, 0], [0, -1, 1]])
    assert np.array_equal(b.corner_damped, want)


def test_saddle_matches_matrix_free_operator():
    # dual route: dense bundle assembly vs the sparse matrix-free operator
    rng = np.random.default_rng(11)
    for m1, n, gamma in [(1, 2, 1e-4), (3, 3, 1.0), (2, 4, 1e-2)]:
        grid = TimeSpaceGrid(m1=m1, n=n)
        K = build_stiffness(grid, constant_coefficient)
        bundle = build_bundle(n, grid.tau, gamma, 0.1, np.eye(grid.m), K)
        op = AllAtOnceOperator(grid, K, gamma)
        for _ in range(3):
            x = rng.standard_normal(2 * grid.m * n)
            assert np.allclose(op.matvec(x), bundle.saddle @ x, atol=1e-12)


def test_preconditioner_matches_fft_solver():
    # the dense preconditioner matrix inverts exactly what the FFT-based
    # production path inverts
    rng = np.random.default_rng(13)
    grid = TimeSpaceGrid(m1=2, n=4)
    K = build_stiffness(grid, constant_coefficient)
    gamma, eps = 1e-3, 0.2
    bundle = build_bundle(grid.n, grid.tau, gamma, eps, np.eye(grid.m), K)
    fast = RbdEpsPreconditioner(
        grid, gamma, eps, DenseShiftedSolver(np.eye(grid.m), K, grid.tau)
    )
    for _ in range(3):
        x = rng.standard_normal(2 * grid.m * grid.n)
        assert np.allclose(fast.apply_inverse(bundle.preconditioner @ x), x, atol=1e-9)


def test_factorizations_hold_with_nonidentity_mass():
    masses = synthetic_masses(6)
    for _, mass in masses:
        bundle = build_bundle(3, 0.2, 1e-2, 0.1, mass, laplacian_1d(6))
        assert check_factorizations(bundle).passed


# -------------------------------------------------- ideal preconditioning


def test_ideal_spectrum_closed_form_single_step_no_diffusion():
    # one unknown, one step, zero stiffness: eigenvalues 1 +- i|a-1|/(a+1)
    # with a the time-step over sqrt(weight)
    for tau, gamma in [(1.0, 1.0), (0.5, 1e-2), (0.25, 4.0)]:
        bundle = build_bundle(1, tau, gamma, 0.3, np.eye(1), np.zeros((1, 1)))
        alpha = tau / np.sqrt(gamma)
        ideal = np.linalg.solve(
            bundle.block_diag_ideal_whitened, bundle.saddle_unrotated_whitened
        )
        eigs = np.sort_complex(np.linalg.eigvals(ideal))
        spread = abs(alpha - 1.0) / (alpha + 1.0)
        want = np.sort_complex(np.array([1 - 1j * spread, 1 + 1j * spread]))
        assert np.allclose(eigs, want, atol=1e-13)
        assert check_rbd_spectrum(bundle).passed


def test_ideal_spectrum_check_passes_on_fd_grids():
    for m1, n, gamma in [(1, 2, 1e-8), (3, 4, 1.0), (3, 8, 1e-4)]:
        _, bundle = fd_bundle(m1, n, gamma, 0.1)
        res = check_rbd_spectrum(bundle)
        assert res.passed, str(res)


def test_ideal_spectrum_check_detects_broken_normality():
    _, bundle = fd_bundle(3, 4, 1.0, 0.1)
    tampered = bundle.saddle_unrotated_whitened.copy()
    tampered[0, -1] += 0.5
    broken = type(bundle)(
        **{
            **{f: getattr(bundle, f) for f in bundle.__dataclass_fields__},
            "saddle_unrotated_whitened": tampered,
        }
    )
    assert not check_rbd_spectrum(broken).passed


# ------------------------------------------------- damping perturbation


def test_eps_perturbation_reports_expected_rank_and_unit_count():
    # two spatial unknowns, three steps: rank 4 update, eight unit eigenvalues
    bundle = build_bundle(3, 1.0 / 3.0, 1.0, 0.3, np.eye(2), laplacian_1d(2) / 81.0)
    res = check_eps_perturbation(bundle)
    assert res.passed, str(res)
    assert "rank 4" in res.detail
    assert "unit eigenvalues 8 (want exactly 8)" in res.detail


def test_eps_perturbation_passes_across_weights():
    for gamma in (1e-8, 1e-2, 1.0):
        _, bundle = fd_bundle(3, 4, gamma, 0.1)
        res = check_eps_perturbation(bundle)
        assert res.passed, str(res)


def test_clustering_bound_examples():
    # damping 0.01 with cap 0.5 bounds the deviation by 0.02;
    # damping 1e-8 bounds it by 2e-8
    _, bundle = fd_bundle(1, 2, 1.0, 0.01)
    res = check_eps_clustering(bundle, eta=0.5)
    assert res.passed
    assert res.bound == pytest.approx(0.02)

    _, tiny = fd_bundle(1, 2, 1.0, 1e-8)
    res = check_eps_clustering(tiny, eta=0.5)
    assert res.passed
    assert res.bound == pytest.approx(2e-8)
    assert res.worst <= 2e-8


def test_clustering_rejects_invalid_cap():
    _, bundle = fd_bundle(1, 2, 1.0, 0.3)
    with pytest.raises(ValueError, match="eps <= eta"):
        check_eps_clustering(bundle, eta=0.2)
    with pytest.raises(ValueError, match="eps <= eta"):
        check_eps_clustering(bundle, eta=1.0)


# --------------------------------------------------------- SMW structure


def test_smw_identity_with_nonidentity_mass():
    for _, mass in synthetic_masses(4):
        bundle = build_bundle(3, 0.25, 1e-2, 0.2, mass, laplacian_1d(4))
        res = check_smw_identity(bundle)
        assert res.passed, str(res)


def test_vanishing_damping_recovers_ideal():
    res = check_vanishing_damping(3, 0.25, 1e-2, np.eye(4), laplacian_1d(4))
    assert res.passed, str(res)
    assert res.worst <= 1e-9


# ----------------------------------------------------------- norm bounds


def test_norm_bounds_hold_with_slack():
    for m1, n, gamma, eps in [(1, 4, 1.0, 0.1), (3, 2, 1e-4, 0.25), (3, 8, 1e-8, 0.05)]:
        _, bundle = fd_bundle(m1, n, gamma, eps)
        res = check_norm_bounds(bundle)
        assert res.passed, str(res)
        assert res.worst < 0  # strict slack, not borderline


def test_norm_bounds_reject_bad_cap():
    _, bundle = fd_bundle(1, 2, 1.0, 0.3)
    with pytest.raises(ValueError, match="eps <= eta"):
        check_norm_bounds(bundle, eta=0.1)


# ------------------------------------------- certified GMRES contraction


def test_definiteness_premises_at_certified_damping():
    delta = 0.5
    grid = TimeSpaceGrid(m1=3, n=4)
    eps = rate_constant(delta, grid.tau, grid.horizon)
    _, bundle = fd_bundle(3, 4, 1e-4, eps)
    res = check_definiteness(bundle, delta)
    assert res.passed, str(res)


def test_definiteness_rejects_oversized_damping():
    _, bundle = fd_bundle(1, 2, 1.0, 0.49)
    with pytest.raises(ValueError, match="premise violated"):
        check_definiteness(bundle, 0.5)


def test_gmres_rate_certified_with_nonidentity_mass():
    # includes the cross-system residual relation on a non-identity weight
    delta = 0.5
    n, tau = 4, 0.25
    eps = rate_constant(delta, tau, n * tau)
    for _, mass in synthetic_masses(5):
        bundle = build_bundle(n, tau, 1e-2, eps, mass, laplacian_1d(5))
        res = check_gmres_rate(bundle, delta)
        assert res.passed, str(res)


def test_gmres_rate_rejects_premise_violation():
    _, bundle = fd_bundle(1, 2, 1.0, 0.49)
    with pytest.raises(ValueError, match="premise violated"):
        check_gmres_rate(bundle, 0.5)


# ------------------------------------------------------------ full sweep


def test_synthetic_masses_are_spd_and_well_conditioned():
    for name, mass in synthetic_masses(7):
        assert np.allclose(mass, mass.T)
        eigs = np.linalg.eigvalsh(mass)
        assert eigs[0] > 0, name
        assert eigs[-1] / eigs[0] <= 10, name


def test_full_sweep_passes():
    results, ok = run_validation()
    failed = [str(r) for r in results if not r.passed]
    assert ok, "\n".join(failed)
    assert len(results) > 300


def test_check_result_formatting():
    res = CheckResult(name="demo", passed=True, worst=1e-12, bound=1e-10, detail="x")
    assert str(res).startswith("[PASS] demo")
    res = CheckResult(name="demo", passed=False, worst=1.0, bound=1e-10)
    assert str(res).startswith("[FAIL]")
