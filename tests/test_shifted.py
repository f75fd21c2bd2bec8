"""Tests for the shifted inner solvers: DST-direct, dense-LU and multigrid.

Oracles: dense LU solves of the explicitly assembled shifted matrix, a
scalar forward-substitution loop for the Gauss-Seidel smoother, and a dense
V-cycle built from np.tril and Kronecker-product transfers.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from dense_backend import DenseShiftedSolver

from pintopt.discretize import TimeSpaceGrid, build_stiffness
from pintopt.multigrid import MgShiftedSolver, prolongation_1d
from pintopt.shifted import DstShiftedSolver


def ones_coeff(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def wavy_coeff(x1, x2):
    return 1.0 + 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2)


def bench_coeff(x1, x2):
    return 1e-5 * np.sin(np.pi * x1 * x2)


def one_shift(backend, sigma):
    """A backend's batched solve for the single shift sigma, on one vector."""
    solve = backend.factor(np.array([sigma]))
    return lambda r: solve(np.asarray(r, dtype=complex)[None])[0]


def shifted_matrix(grid, coeff, sigma):
    K = build_stiffness(grid, coeff)
    return (sigma * sp.identity(grid.m) + grid.tau * K).tocsr()


# ---------------------------------------------------------------- DST direct


@pytest.mark.parametrize("m1", [1, 3, 7])
@pytest.mark.parametrize("sigma", [1.0, 0.3 + 0.9j, 3125.0 + 0.1j])
def test_dst_solver_residual(m1, sigma):
    grid = TimeSpaceGrid(m1=m1, n=8)
    A = shifted_matrix(grid, ones_coeff, sigma)
    solve = one_shift(DstShiftedSolver(grid), sigma)
    rng = np.random.default_rng(m1)
    r = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    z = solve(r)
    assert np.linalg.norm(A @ z - r) / np.linalg.norm(r) < 1e-12


def test_dst_solver_matches_dense_lu():
    grid = TimeSpaceGrid(m1=5, n=4)
    sigma = 0.7 - 0.2j
    A = shifted_matrix(grid, ones_coeff, sigma).toarray()
    solve = one_shift(DstShiftedSolver(grid), sigma)
    rng = np.random.default_rng(9)
    r = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    want = np.linalg.solve(A, r)
    assert np.max(np.abs(solve(r) - want)) < 1e-12 * np.max(np.abs(want))


def test_dst_solver_real_data_stays_real():
    grid = TimeSpaceGrid(m1=3, n=4)
    solve = one_shift(DstShiftedSolver(grid), 2.0)
    z = solve(np.arange(1.0, 10.0))
    assert np.max(np.abs(np.imag(z))) == 0.0


def test_dst_solver_linearity():
    grid = TimeSpaceGrid(m1=7, n=2)
    solve = one_shift(DstShiftedSolver(grid), 0.4 + 0.5j)
    rng = np.random.default_rng(2)
    r1 = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    r2 = rng.standard_normal(grid.m)
    lhs = solve(1.5 * r1 - 2j * r2)
    rhs = 1.5 * solve(r1) - 2j * solve(r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))


# ----------------------------------------------------------------- dense LU


def test_dense_solver_general_mass():
    # tridiagonal SPD mass matrix instead of the identity
    m = 6
    M = sp.diags([np.full(m - 1, 0.25), np.ones(m), np.full(m - 1, 0.25)], [-1, 0, 1])
    K = sp.diags([np.full(m - 1, -1.0), np.full(m, 2.0), np.full(m - 1, -1.0)], [-1, 0, 1])
    tau = 0.125
    sigma = 0.6 + 0.3j
    solve = one_shift(DenseShiftedSolver(M, K, tau), sigma)
    rng = np.random.default_rng(4)
    r = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    z = solve(r)
    A = sigma * M.toarray() + tau * K.toarray()
    assert np.linalg.norm(A @ z - r) / np.linalg.norm(r) < 1e-13


# ---------------------------------------------------------------- multigrid


def test_prolongation_1d_stencil():
    P = prolongation_1d(3)
    assert np.allclose(P, [[0.5], [1.0], [0.5]])
    P7 = prolongation_1d(7)
    # odd rows copy the coarse value, even rows average the two neighbors
    assert np.allclose(P7[1], [1, 0, 0]) and np.allclose(P7[2], [0.5, 0.5, 0])
    # each coarse point spreads total weight 0.5 + 1 + 0.5 per dimension
    assert np.allclose(P7.sum(axis=0), 2.0)
    with pytest.raises(ValueError):
        prolongation_1d(4)


def test_hierarchy_sizes_and_rejection():
    levels = MgShiftedSolver(TimeSpaceGrid(m1=15, n=4), wavy_coeff).levels
    assert [lvl.m1 for lvl in levels] == [15, 7, 3]
    # only the coarsest level is solved directly; the finer ones transfer
    assert levels[-1].dense.shape == (9, 9)
    assert all(lvl.dense is None for lvl in levels[:-1])
    assert [lvl.prolong.shape for lvl in levels[:-1]] == [(15, 7), (7, 3)]
    with pytest.raises(ValueError):
        MgShiftedSolver(TimeSpaceGrid(m1=6, n=4), wavy_coeff)


def stencil_matrix(level):
    """tau K of a level, rebuilt from its diagonal and its two coupling bands."""
    north, west = level.couplings
    m1 = level.m1
    lower = sp.diags([west[1:], north[m1:]], [-1, -m1], shape=(m1 * m1, m1 * m1))
    return (sp.diags(level.diag) + lower + lower.T).tocsr()


def test_coarse_operators_rediscretized():
    # every coarser level equals direct assembly on its own grid
    grid = TimeSpaceGrid(m1=15, n=4)
    levels = MgShiftedSolver(grid, wavy_coeff).levels
    for level in levels[:-1]:
        direct = build_stiffness(TimeSpaceGrid(m1=level.m1, n=4), wavy_coeff)
        assert abs(stencil_matrix(level) - grid.tau * direct).max() == 0.0
    direct = build_stiffness(TimeSpaceGrid(m1=3, n=4), wavy_coeff)
    assert np.array_equal(levels[-1].dense, grid.tau * direct.toarray())


def sweep_on_level(level, sigmas, b, z=None):
    """One wavefront sweep on a level for every column of an (m, 2 k) stack."""
    stencil = level.stencil(1.0 / (level.diag[:, None] + sigmas), 2)
    z_skew = level.to_skew(np.zeros_like(b) if z is None else z)
    level.sweep(z_skew, level.to_skew(b), stencil, from_zero=z is None)
    return level.to_grid(z_skew)


def test_smoother_matches_scalar_forward_substitution():
    # one sweep over three shifts and two right-hand sides each equals the
    # scalar forward substitution with the lower triangle of each matrix
    grid = TimeSpaceGrid(m1=7, n=4)
    level = MgShiftedSolver(grid, wavy_coeff).levels[0]
    sigmas = np.array([0.8 + 0.6j, 0.05 + 0.9j, 3.0])
    rng = np.random.default_rng(0)
    b = rng.standard_normal((49, 6)) + 1j * rng.standard_normal((49, 6))
    got = sweep_on_level(level, sigmas, b)
    for col in range(6):
        A = shifted_matrix(grid, wavy_coeff, sigmas[col % 3]).toarray()
        want = np.zeros(49, dtype=complex)
        for i in range(49):
            want[i] = (b[i, col] - A[i, :i] @ want[:i]) / A[i, i]
        assert np.max(np.abs(got[:, col] - want)) < 1e-13 * np.max(np.abs(want))


def test_sweep_from_a_guess_is_lexicographic_gauss_seidel():
    grid = TimeSpaceGrid(m1=7, n=4)
    level = MgShiftedSolver(grid, wavy_coeff).levels[0]
    sigmas = np.array([0.4 + 0.3j, 2.0 - 0.1j])
    rng = np.random.default_rng(1)
    b = rng.standard_normal((49, 4)) + 1j * rng.standard_normal((49, 4))
    z0 = rng.standard_normal((49, 4)) + 1j * rng.standard_normal((49, 4))
    got = sweep_on_level(level, sigmas, b, z0)
    for col in range(4):
        A = shifted_matrix(grid, wavy_coeff, sigmas[col % 2]).toarray()
        z = z0[:, col].copy()
        for i in range(49):
            z[i] = (b[i, col] - A[i, :i] @ z[:i] - A[i, i + 1:] @ z[i + 1:]) / A[i, i]
        assert np.max(np.abs(got[:, col] - z)) < 1e-13 * np.max(np.abs(z))


def reference_vcycle(grid, coeff, sigma, pre, post, cycles, r):
    """Dense V-cycles: np.tril smoother, Kronecker transfers, exact coarsest solve."""
    sizes = [grid.m1]
    while sizes[-1] > 3:
        sizes.append((sizes[-1] - 1) // 2)
    matrices = [
        shifted_matrix(TimeSpaceGrid(m1=size, n=grid.n), coeff, sigma).toarray()
        for size in sizes
    ]

    def interpolation(m1):
        P = np.zeros((m1, (m1 - 1) // 2))
        for c in range(P.shape[1]):
            P[2 * c : 2 * c + 3, c] = [0.5, 1.0, 0.5]
        return np.kron(P, P)

    def cycle(depth, b):
        A = matrices[depth]
        if depth == len(sizes) - 1:
            return np.linalg.solve(A, b)
        lower = np.tril(A)
        z = scipy.linalg.solve_triangular(lower, b, lower=True)
        for _ in range(pre - 1):
            z += scipy.linalg.solve_triangular(lower, b - A @ z, lower=True)
        P = interpolation(sizes[depth])
        z += P @ cycle(depth + 1, P.T @ (b - A @ z) / 16)
        for _ in range(post):
            z += scipy.linalg.solve_triangular(lower, b - A @ z, lower=True)
        return z

    z = cycle(0, r)
    for _ in range(cycles - 1):
        z = z + cycle(0, r - matrices[0] @ z)
    return z


@pytest.mark.parametrize("m1", [7, 15])
@pytest.mark.parametrize("pre,post,cycles", [(1, 1, 1), (2, 1, 2)])
def test_batched_vcycle_matches_dense_reference(m1, pre, post, cycles):
    grid = TimeSpaceGrid(m1=m1, n=8)
    sigmas = np.array([0.3 + 0.2j, 0.05 + 0.87j, 1.5 - 0.4j])
    solver = MgShiftedSolver(grid, wavy_coeff, pre=pre, post=post, cycles=cycles)
    rng = np.random.default_rng(m1)
    rhs = rng.standard_normal((2, 3, grid.m)) + 1j * rng.standard_normal((2, 3, grid.m))
    got = solver.factor(sigmas)(rhs)
    for k, sigma in enumerate(sigmas):
        for j in range(2):
            want = reference_vcycle(grid, wavy_coeff, sigma, pre, post, cycles, rhs[j, k])
            assert np.max(np.abs(got[j, k] - want)) < 1e-13 * np.max(np.abs(want))


def test_vcycle_exact_on_coarsest_grids():
    for m1 in (1, 3):
        grid = TimeSpaceGrid(m1=m1, n=4)
        sigma = 0.2 + 0.4j
        solve = one_shift(MgShiftedSolver(grid, wavy_coeff), sigma)
        A = shifted_matrix(grid, wavy_coeff, sigma)
        rng = np.random.default_rng(m1)
        r = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
        z = solve(r)
        assert np.linalg.norm(A @ z - r) / np.linalg.norm(r) < 1e-13


def test_vcycle_linearity_and_determinism():
    grid = TimeSpaceGrid(m1=7, n=4)
    solve = one_shift(MgShiftedSolver(grid, wavy_coeff), 0.5 + 0.5j)
    rng = np.random.default_rng(5)
    r1 = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    r2 = rng.standard_normal(grid.m)
    lhs = solve(2.0 * r1 + 3.0 * r2)
    rhs = 2.0 * solve(r1) + 3.0 * solve(r2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(lhs))
    again = solve(r1)
    assert np.array_equal(again, solve(r1))


@pytest.mark.parametrize("m1", [15, 31])
@pytest.mark.parametrize("sigma", [0.12 + 0.0j, 0.5 + 0.8j, 0.05 + 0.87j])
def test_vcycle_reduction_order_one_coefficient(m1, sigma):
    # calibrated: worst observed V(1,1) factor 0.21 over this family; frozen
    # at 0.35, which also certifies the generic at-least-2x contraction
    grid = TimeSpaceGrid(m1=m1, n=32)
    A = shifted_matrix(grid, wavy_coeff, sigma)
    solve = one_shift(MgShiftedSolver(grid, wavy_coeff, pre=1, post=1, cycles=1), sigma)
    rng = np.random.default_rng(m1)
    r = rng.standard_normal(grid.m) + 0j
    z = solve(r)
    assert np.linalg.norm(r - A @ z) / np.linalg.norm(r) < 0.35


def test_vcycle_reduction_benchmark_coefficient():
    # calibrated: the small-amplitude coefficient makes the shifted systems
    # strongly diagonally dominant; worst observed factor 5.3e-6 over the
    # gamma in [1e-10, 1] shift range at m1=31, frozen at 1e-4
    grid = TimeSpaceGrid(m1=31, n=32)
    tau = grid.tau
    rng = np.random.default_rng(3)
    r = rng.standard_normal(grid.m) + 0j
    for gamma in (1e-10, 1e-2, 1.0):
        alpha = tau / np.sqrt(gamma)
        sigma = (1 - 0.9 * np.exp(2j * np.pi / 32)) + alpha
        A = shifted_matrix(grid, bench_coeff, sigma)
        solve = one_shift(MgShiftedSolver(grid, bench_coeff), sigma)
        z = solve(r)
        assert np.linalg.norm(r - A @ z) / np.linalg.norm(r) < 1e-4


def test_more_cycles_reduce_residual_further():
    grid = TimeSpaceGrid(m1=15, n=8)
    sigma = 0.3 + 0.2j
    A = shifted_matrix(grid, wavy_coeff, sigma)
    rng = np.random.default_rng(8)
    r = rng.standard_normal(grid.m) + 0j
    res = []
    for cycles in (1, 2, 3):
        solve = one_shift(MgShiftedSolver(grid, wavy_coeff, cycles=cycles), sigma)
        z = solve(r)
        res.append(np.linalg.norm(r - A @ z) / np.linalg.norm(r))
    # calibrated: 0.167, 0.070, 0.040 — later cycles gain less as the
    # residual concentrates on the slowest modes, but stay well below 2x
    assert res[1] < 0.5 * res[0]
    assert res[2] < 0.5 * res[1] * 1.2 and res[2] < 0.3 * res[0]


def test_vcycle_rejects_bad_smoothing_counts():
    grid = TimeSpaceGrid(m1=7, n=4)
    for counts in ({"pre": 0}, {"post": -1}, {"cycles": 0}):
        with pytest.raises(ValueError, match="need pre >= 1, post >= 0 and cycles >= 1"):
            MgShiftedSolver(grid, wavy_coeff, **counts)


# --------------------------------------------------------- batched interface


def backend(name, grid):
    if name == "dst":
        return DstShiftedSolver(grid)
    if name == "dense":
        K = build_stiffness(grid, ones_coeff)
        return DenseShiftedSolver(np.eye(grid.m), K, grid.tau)
    return MgShiftedSolver(grid, ones_coeff)


@pytest.mark.parametrize("name", ["dst", "dense", "mg"])
def test_factor_solves_each_row_with_its_shift(name):
    grid = TimeSpaceGrid(m1=7, n=4)
    sigmas = np.array([1.0, 0.3 + 0.9j, 2.0 - 0.5j])
    solver = backend(name, grid)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal((2, 3, grid.m)) + 1j * rng.standard_normal((2, 3, grid.m))
    got = solver.factor(sigmas)(rhs)
    assert got.shape == rhs.shape
    for k, sigma in enumerate(sigmas):
        single = one_shift(solver, sigma)
        for j in range(2):
            want = single(rhs[j, k])
            assert np.max(np.abs(got[j, k] - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["dst", "dense", "mg"])
def test_solve_leaves_rhs_unchanged(name):
    # the sine-transform solve runs its second transform in place; that must
    # be its own intermediate, never the caller's right-hand side
    grid = TimeSpaceGrid(m1=7, n=4)
    solve = backend(name, grid).factor(np.array([1.0, 0.3 + 0.9j]))
    rng = np.random.default_rng(23)
    rhs = rng.standard_normal((2, 2, grid.m)) + 1j * rng.standard_normal((2, 2, grid.m))
    rhs_copy = rhs.copy()
    got = solve(rhs)
    assert np.array_equal(rhs, rhs_copy)
    assert not np.shares_memory(got, rhs)


@pytest.mark.parametrize("name", ["dst", "dense", "mg"])
def test_conjugate_shift_solves_by_conjugation(name):
    # the identity the preconditioner's transpose half relies on: M and K are
    # real, so the solve with shift conj(sigma) is conj(solve(conj b))
    grid = TimeSpaceGrid(m1=7, n=4)
    sigma = 0.3 + 0.9j
    solver = backend(name, grid)
    rng = np.random.default_rng(22)
    b = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    want = one_shift(solver, np.conj(sigma))(b)
    got = np.conj(one_shift(solver, sigma)(np.conj(b)))
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
