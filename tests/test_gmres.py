"""Tests for the left-preconditioned GMRES driver.

Oracles: numpy.linalg.solve on small dense systems, recomputed true
residuals, and the certified field-of-values contraction bound checked
against actual runs on synthetic normal matrices that sit exactly on the
premise boundary.
"""

from functools import partial

import numpy as np
import pytest
from dense_backend import PhysicalDstSolver

from pintopt import bench
from pintopt.discretize import TimeSpaceGrid, assemble_rhs, build_stiffness, stencil
from pintopt.gmres import SolveReport, gmres_solve
from pintopt.operators import AllAtOnceOperator
from pintopt.problems import get_problem
from pintopt.rbd import RbdEpsPreconditioner, contraction_factor, rate_constant


def copy(v, out):
    """The identity in the ``f(v, out=w)`` convention of gmres_solve."""
    np.copyto(out, v)


def test_identity_converges_in_one_iteration():
    b = np.arange(1.0, 9.0)
    report = gmres_solve(copy, b, tol=1e-12)
    assert report.converged and report.iterations == 1
    assert np.max(np.abs(report.x - b)) < 1e-12


def test_exact_preconditioner_converges_in_one_iteration():
    rng = np.random.default_rng(0)
    A = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
    inv = np.linalg.inv(A)
    b = rng.standard_normal(6)
    report = gmres_solve(partial(np.matmul, A), b, apply_prec=partial(np.matmul, inv), tol=1e-10)
    assert report.converged and report.iterations == 1


def test_dense_spd_system_matches_direct_solve():
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((10, 10))
    A = Q @ Q.T + 10 * np.eye(10)
    b = rng.standard_normal(10)
    report = gmres_solve(partial(np.matmul, A), b, tol=1e-12)
    want = np.linalg.solve(A, b)
    assert report.converged
    assert np.max(np.abs(report.x - want)) < 1e-8 * np.max(np.abs(want))


def test_reported_residual_matches_recomputed_residual():
    rng = np.random.default_rng(2)
    A = np.eye(12) + 0.5 * rng.standard_normal((12, 12))
    b = rng.standard_normal(12)
    report = gmres_solve(partial(np.matmul, A), b, tol=1e-9)
    true_res = np.linalg.norm(b - A @ report.x)
    assert abs(true_res - report.residuals[-1]) < 1e-8 * report.residuals[0]


def test_krylov_basis_orthonormal():
    rng = np.random.default_rng(3)
    A = np.eye(30) + 0.4 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    report = gmres_solve(partial(np.matmul, A), b, tol=1e-10)
    V = report.basis  # rows are the Krylov directions
    gram = V @ V.T
    assert np.max(np.abs(gram - np.eye(V.shape[0]))) < 1e-10


def mgs2_residual_history(A, b, steps):
    """Reference: Arnoldi with two-pass modified Gram-Schmidt, vector by vector."""
    beta = np.linalg.norm(b)
    basis = [b / beta]
    hess = np.zeros((steps + 1, steps))
    history = [beta]
    for j in range(steps):
        w = A @ basis[j]
        for _ in range(2):
            for i in range(j + 1):
                c = basis[i] @ w
                hess[i, j] += c
                w = w - c * basis[i]
        hess[j + 1, j] = np.linalg.norm(w)
        basis.append(w / hess[j + 1, j])
        rhs = np.zeros(j + 2)
        rhs[0] = beta
        y = np.linalg.lstsq(hess[: j + 2, : j + 1], rhs, rcond=None)[0]
        history.append(np.linalg.norm(rhs - hess[: j + 2, : j + 1] @ y))
    return np.array(history)


def test_residual_history_matches_two_pass_mgs_reference():
    # CGS2 sums in another order than MGS2, so the histories agree to
    # round-off, not bit for bit
    rng = np.random.default_rng(7)
    A = np.eye(30) + 0.4 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    report = gmres_solve(partial(np.matmul, A), b, tol=1e-10)
    want = mgs2_residual_history(A, b, report.iterations)
    assert np.max(np.abs(np.asarray(report.residuals) - want)) < 1e-10 * want[0]


def test_residual_history_monotone_and_sized():
    rng = np.random.default_rng(4)
    A = np.eye(25) + 0.6 * rng.standard_normal((25, 25))
    b = rng.standard_normal(25)
    report = gmres_solve(partial(np.matmul, A), b, tol=1e-10)
    res = np.asarray(report.residuals)
    assert res.size == report.iterations + 1
    assert np.all(res[1:] <= res[:-1] * (1 + 1e-12))
    assert res[-1] <= 1e-10 * res[0]


def test_maxit_reached_reports_unconverged():
    rng = np.random.default_rng(5)
    A = np.eye(40) + rng.standard_normal((40, 40))
    b = rng.standard_normal(40)
    report = gmres_solve(partial(np.matmul, A), b, tol=1e-14, maxit=5)
    assert not report.converged and report.iterations == 5
    assert len(report.residuals) == 6
    assert report.basis.shape == (6, 40)


def test_happy_breakdown_on_low_degree_minimal_polynomial():
    # three distinct eigenvalues: exact solution inside three iterations
    d = np.repeat([1.0, 2.0, 5.0], 6)
    b = np.ones(18)
    report = gmres_solve(partial(np.multiply, d), b, tol=1e-13)
    assert report.converged and report.iterations <= 3
    assert np.max(np.abs(report.x - b / d)) < 1e-12
    # the remainder left by a breakdown is no direction
    assert report.basis.shape[0] == report.iterations


def test_near_breakdown_does_not_stop_early():
    # two eigenvalues 1e-9 apart: the second Arnoldi vector is small but a
    # true direction, so GMRES needs both iterations to reach 1e-13. The
    # residual history is 1, 5.0e-10, then round-off
    d = np.repeat([1.0, 1.0 + 1e-9], 5)
    report = gmres_solve(partial(np.multiply, d), np.ones(10), tol=1e-13)
    assert report.converged and report.iterations == 2


def test_breakdown_test_does_not_depend_on_the_rhs_scale():
    # measured against the norm of b, the first, perfectly independent,
    # direction of a large right-hand side would look like a breakdown;
    # GMRES is scale invariant, so both runs must agree
    rng = np.random.default_rng(7)
    A = np.eye(30) + 0.4 * rng.standard_normal((30, 30))
    b = rng.standard_normal(30)
    small = gmres_solve(partial(np.matmul, A), b, tol=1e-10)
    large = gmres_solve(partial(np.matmul, A), 1e20 * b, tol=1e-10)
    assert small.converged and large.converged
    assert large.iterations == small.iterations > 1
    assert np.linalg.norm(1e20 * b - A @ large.x) <= 1e-9 * np.linalg.norm(1e20 * b)


def test_default_maxit_is_capped_for_large_systems():
    # a size-long default would preallocate a size x size Hessenberg matrix,
    # about 320 GB here; the capped default runs in a few megabytes
    b = np.linspace(1.0, 2.0, 200_000)
    report = gmres_solve(copy, b, tol=1e-12)
    assert report.converged and report.iterations == 1
    assert np.max(np.abs(report.x - b)) < 1e-12


def test_zero_rhs_returns_zero():
    report = gmres_solve(partial(np.multiply, 2.0), np.zeros(7))
    assert report.converged and report.iterations == 0
    assert np.array_equal(report.x, np.zeros(7))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_output_raises_at_its_iteration(bad):
    calls = []

    def apply_op(v, out):
        calls.append(1)
        np.multiply(np.arange(1.0, 11.0), v, out=out)
        if len(calls) == 2:
            out[3] = bad

    rng = np.random.default_rng(6)
    with pytest.raises(FloatingPointError, match="iteration 2"):
        gmres_solve(apply_op, rng.standard_normal(10), tol=1e-14)
    assert len(calls) == 2


def test_non_finite_preconditioned_rhs_raises_before_any_matvec():
    calls = []

    def apply_op(v, out):
        calls.append(1)
        copy(v, out)

    with pytest.raises(FloatingPointError, match="iteration 0"):
        gmres_solve(apply_op, np.ones(5), apply_prec=partial(np.multiply, np.nan))
    assert calls == []


def test_rejects_complex_rhs():
    with pytest.raises(TypeError):
        gmres_solve(copy, np.ones(3) + 1j)


@pytest.mark.parametrize("delta", [0.3, 0.6, 0.9])
def test_contraction_bound_holds_on_premise_boundary(delta):
    # normal block matrix with symmetric part exactly (1 - delta) I and
    # spectral norm exactly sqrt(2) (1 + delta/2): every GMRES run on it
    # must contract at least as fast as the certified factor per step
    a = 1.0 - delta
    c_max = np.sqrt(2.0 * (1.0 + delta / 2.0) ** 2 - a**2)
    blocks = 40
    speeds = c_max * (np.arange(1, blocks + 1) / blocks)

    def apply_op(v, out):
        V, W = v.reshape(blocks, 2), out.reshape(blocks, 2)
        W[:, 0] = a * V[:, 0] + speeds * V[:, 1]
        W[:, 1] = -speeds * V[:, 0] + a * V[:, 1]

    rng = np.random.default_rng(int(10 * delta))
    b = rng.standard_normal(2 * blocks)
    report = gmres_solve(apply_op, b, tol=1e-10, maxit=70)
    rho = contraction_factor(delta)
    res = np.asarray(report.residuals)
    bound = res[0] * rho ** np.arange(res.size)
    assert np.all(res <= bound * (1 + 1e-10))


def test_full_stack_small_problem_converges():
    grid = TimeSpaceGrid(m1=7, n=8)
    problem = get_problem(1, gamma=1e-6)
    op = AllAtOnceOperator(grid, build_stiffness(stencil(grid, problem.a)), problem.gamma)
    eps = rate_constant(0.5, grid.tau, grid.horizon)
    pc = RbdEpsPreconditioner(grid, problem.gamma, eps, inner=PhysicalDstSolver(grid))
    b = assemble_rhs(problem, grid)
    report = gmres_solve(op.matvec, b, apply_prec=pc.apply_inverse, tol=1e-6)
    assert report.converged
    assert 0 < report.iterations < 20
    # the reported preconditioned residual matches a recomputation
    true_res = np.linalg.norm(pc.apply_inverse(b - op.matvec(report.x)))
    assert abs(true_res - report.residuals[-1]) < 1e-8 * report.residuals[0]
    assert isinstance(report, SolveReport)


def test_huge_gamma_cell_converges_only_on_its_true_residual(monkeypatch):
    # example 1 at h = 2^-4, gamma = 1e30: alpha = tau / sqrt(gamma) is far
    # below round-off against T, and a breakdown test relative to the
    # right-hand side stops this cell after one iteration with a true
    # relative residual of 0.70; "converged" must mean the residual test held
    seen = {}

    def recording_gmres(apply_op, b, **kwargs):
        report = gmres_solve(apply_op, b, **kwargs)
        seen["residual"] = np.linalg.norm(b - apply_op(report.x)) / np.linalg.norm(b)
        return report

    monkeypatch.setattr(bench, "gmres_solve", recording_gmres)
    spec = bench.ExperimentSpec(example=1, gammas=(1e30,), h_values=(2.0**-4,))
    cell = bench.solve_cell(spec, 1e30, 2.0**-4)
    if cell.converged:
        assert cell.failure is None
        assert seen["residual"] <= spec.tol
    else:
        assert f"iteration {cell.iterations}" in cell.failure


def test_unconverged_cell_names_its_iteration_and_residual():
    spec = bench.ExperimentSpec(example=1, gammas=(1e-4,), h_values=(2.0**-3,), maxit=2)
    cell = bench.solve_cell(spec, 1e-4, 2.0**-3)
    assert not cell.converged and cell.iterations == 2
    assert "\n" not in cell.failure
    assert "iteration 2" in cell.failure and "relative residual" in cell.failure
