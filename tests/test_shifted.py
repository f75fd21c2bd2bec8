"""Tests for the shifted inner solvers: DST-direct, dense-LU and multigrid.

Oracles: dense LU solves of the explicitly assembled shifted matrix, a
scalar forward-substitution loop for the Gauss-Seidel smoother, and a dense
V(1,1) cycle built from np.tril and Kronecker-product transfers, down to the
one-point grid.
"""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from dense_backend import DenseShiftedSolver, PhysicalDstSolver

from pintopt.discretize import TimeSpaceGrid, build_stiffness, stencil
from pintopt.multigrid import MgShiftedSolver, sweep
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
    return lambda r: solve(np.asarray(r, dtype=complex)[:, None, None])[:, 0, 0]


def shifted_matrix(grid, coeff, sigma):
    K = build_stiffness(stencil(grid, coeff))
    return (sigma * sp.identity(grid.m) + grid.tau * K).tocsr()


# ---------------------------------------------------------------- DST direct


@pytest.mark.parametrize("m1", [1, 3, 7])
@pytest.mark.parametrize("sigma", [1.0, 0.3 + 0.9j, 3125.0 + 0.1j])
def test_dst_solver_residual(m1, sigma):
    grid = TimeSpaceGrid(m1=m1, n=8)
    A = shifted_matrix(grid, ones_coeff, sigma)
    solve = one_shift(PhysicalDstSolver(grid), sigma)
    rng = np.random.default_rng(m1)
    r = rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)
    z = solve(r)
    assert np.linalg.norm(A @ z - r) / np.linalg.norm(r) < 1e-12


def test_dst_solver_matches_dense_lu():
    grid = TimeSpaceGrid(m1=5, n=4)
    sigma = 0.7 - 0.2j
    A = shifted_matrix(grid, ones_coeff, sigma).toarray()
    solve = one_shift(PhysicalDstSolver(grid), sigma)
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


def interpolation_1d(m1):
    """Dense 1D bilinear interpolation from (m1 - 1) // 2 coarse to m1 fine points."""
    P = np.zeros((m1, (m1 - 1) // 2))
    for c in range(P.shape[1]):
        P[2 * c : 2 * c + 3, c] = [0.5, 1.0, 0.5]
    return P


def test_prolongation_1d_stencil():
    # each level's prolongation is the Kronecker square of the 1D stencil,
    # permuted from the coarse level's skewed order into this level's
    assert np.array_equal(interpolation_1d(3), [[0.5], [1.0], [0.5]])
    levels = MgShiftedSolver(TimeSpaceGrid(m1=15, n=4), wavy_coeff).levels
    for fine, coarse in zip(levels, levels[1:]):
        P1 = interpolation_1d(fine.m1)
        P = fine.prolong.toarray()
        assert np.array_equal(P[np.ix_(fine.skew_index, coarse.skew_index)], np.kron(P1, P1))
        # zero positions receive and give nothing
        assert not np.delete(P, fine.skew_index, axis=0).any()
        assert not np.delete(P, coarse.skew_index, axis=1).any()


def test_hierarchy_sizes_and_rejection():
    # the hierarchy halves down to the one-point grid; every level but that
    # one transfers from and to the next coarser level's skewed order
    levels = MgShiftedSolver(TimeSpaceGrid(m1=15, n=4), wavy_coeff).levels
    assert [lvl.m1 for lvl in levels] == [15, 7, 3, 1]
    assert not hasattr(levels[-1], "prolong") and not hasattr(levels[-1], "defect")
    for fine, coarse in zip(levels, levels[1:]):
        assert fine.prolong.shape == (fine.skew_size, coarse.skew_size)
        assert fine.defect.shape == (coarse.skew_size, fine.skew_size)
    with pytest.raises(ValueError):
        MgShiftedSolver(TimeSpaceGrid(m1=6, n=4), wavy_coeff)


def to_skew(level, field):
    """A (m1^2, ...) field in a level's skewed order, zero positions included."""
    out = np.zeros((level.skew_size, *field.shape[1:]), dtype=field.dtype)
    out[level.skew_index] = field
    return out


def triangles(level):
    """The lower triangle of tau K and its strict upper triangle, from a level's fronts.

    The lower one is rebuilt from the diagonal and the weight pairs of each
    point's couplings to (i-1, j), (i, j-1), the upper one from the pairs
    of its couplings to (i, j+1), (i+1, j).
    """
    weights = np.zeros((level.skew_size, 2, 2))
    for here, _, _, lower, upper in level.fronts:
        weights[here, 0], weights[here, 1] = lower[:, 0], upper[:, 0]
    (north, west), (east, south) = weights[level.skew_index].transpose(1, 2, 0)
    m1 = level.m1
    shape = (m1 * m1, m1 * m1)
    # two calls each: on the one-point grid a triangle's two empty bands
    # share one offset
    lower = sp.diags(west[1:], -1, shape=shape) + sp.diags(north[m1:], -m1, shape=shape)
    upper = sp.diags(east[:-1], 1, shape=shape) + sp.diags(south[:-m1], m1, shape=shape)
    return (sp.diags(level.diag) + lower).tocsr(), upper.tocsr()


def test_coarse_operators_rediscretized():
    # every level, the one-point grid included, equals direct assembly on
    # its own grid, through both triangles of its weight pairs and through
    # its defect R U = P'/4 U
    grid = TimeSpaceGrid(m1=15, n=4)
    levels = MgShiftedSolver(grid, wavy_coeff).levels
    for level, coarse in zip(levels, levels[1:] + (None,)):
        direct = grid.tau * build_stiffness(stencil(TimeSpaceGrid(m1=level.m1, n=4), wavy_coeff))
        lower, upper = triangles(level)
        assert abs(lower - sp.tril(direct)).max() == 0.0
        assert abs(upper - sp.triu(direct, 1)).max() == 0.0
        if coarse is None:
            continue
        # the defect maps skewed order to skewed order: zero positions
        # have empty rows and columns
        P1 = interpolation_1d(level.m1)
        want = np.kron(P1, P1).T / 4 @ sp.triu(direct, 1)
        got = level.defect[np.ix_(coarse.skew_index, level.skew_index)]
        assert abs(got - want).max() < 1e-15 * abs(direct).max()
        fine_zero = np.setdiff1d(np.arange(level.skew_size), level.skew_index)
        coarse_zero = np.setdiff1d(np.arange(coarse.skew_size), coarse.skew_index)
        assert level.defect[:, fine_zero].nnz == 0 and level.defect[coarse_zero].nnz == 0


def sweep_on_level(level, sigmas, b, z=None):
    """One wavefront sweep on a level for every column of an (m, 2 k) stack."""
    z_skew = to_skew(level, np.zeros_like(b) if z is None else z)
    sweep(level.front_views(z_skew, to_skew(level, b), sigmas), from_zero=z is None)
    return z_skew[level.skew_index]


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


def test_upper_couplings_give_the_residual_after_a_sweep_from_zero():
    # a sweep from zero solves the lower triangle exactly, so -U z is the
    # dense b - A z, and the defect's -R U z is its restriction, on every
    # level with a coarser one, for every shift and column
    grid = TimeSpaceGrid(m1=15, n=4)
    levels = MgShiftedSolver(grid, wavy_coeff).levels
    sigmas = np.array([0.8 + 0.6j, 0.05 + 0.9j, 3.0])
    rng = np.random.default_rng(4)
    for level, coarse in zip(levels, levels[1:]):
        m = level.m1 * level.m1
        b = rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6))
        z = sweep_on_level(level, sigmas, b)
        got = -(level.defect @ to_skew(level, z).view(float)).view(complex)[coarse.skew_index]
        level_grid = TimeSpaceGrid(m1=level.m1, n=grid.n)
        P1 = interpolation_1d(level.m1)
        restrict = np.kron(P1, P1).T / 4
        for col in range(6):
            A = shifted_matrix(level_grid, wavy_coeff, sigmas[col % 3])
            want = restrict @ (b[:, col] - A @ z[:, col])
            assert np.max(np.abs(got[:, col] - want)) < 1e-13 * np.max(np.abs(b[:, col]))


def reference_vcycle(grid, coeff, sigma, r):
    """A dense V(1,1) cycle to the one-point grid: np.tril smoother, Kronecker transfers."""
    sizes = [grid.m1]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] - 1) // 2)
    matrices = [
        shifted_matrix(TimeSpaceGrid(m1=size, n=grid.n), coeff, sigma).toarray()
        for size in sizes
    ]

    def cycle(depth, b):
        A = matrices[depth]
        if depth == len(sizes) - 1:
            return np.linalg.solve(A, b)
        lower = np.tril(A)
        P1 = interpolation_1d(sizes[depth])
        P = np.kron(P1, P1)
        z = scipy.linalg.solve_triangular(lower, b, lower=True)
        z += P @ cycle(depth + 1, P.T @ (b - A @ z) / 4)
        z += scipy.linalg.solve_triangular(lower, b - A @ z, lower=True)
        return z

    return cycle(0, r)


@pytest.mark.parametrize("m1", [3, 7, 15])
def test_batched_vcycle_matches_dense_reference(m1):
    grid = TimeSpaceGrid(m1=m1, n=8)
    sigmas = np.array([0.3 + 0.2j, 0.05 + 0.87j, 1.5 - 0.4j])
    solver = MgShiftedSolver(grid, wavy_coeff)
    rng = np.random.default_rng(m1)
    rhs = rng.standard_normal((grid.m, 2, 3)) + 1j * rng.standard_normal((grid.m, 2, 3))
    got = solver.factor(sigmas)(rhs)
    for k, sigma in enumerate(sigmas):
        for j in range(2):
            want = reference_vcycle(grid, wavy_coeff, sigma, rhs[:, j, k])
            assert np.max(np.abs(got[:, j, k] - want)) < 1e-13 * np.max(np.abs(want))


def test_one_factored_solve_serves_any_batch_width():
    # a solve of one right-hand side per shift, then of two, then of one
    # again: the stencil is shared by every batch width, so rows agree exactly
    grid = TimeSpaceGrid(m1=15, n=8)
    solve = MgShiftedSolver(grid, wavy_coeff).factor(np.array([0.3 + 0.2j, 1.5 - 0.4j]))
    rng = np.random.default_rng(2)
    rhs = rng.standard_normal((grid.m, 2, 2)) + 1j * rng.standard_normal((grid.m, 2, 2))
    one = np.ascontiguousarray(rhs[:, 1:])
    single = solve(one)
    both = solve(rhs)
    assert np.array_equal(both[:, 1:], single)
    assert np.array_equal(solve(one), single)


def test_interleaved_factors_solve_independently():
    # two factors of one solver share its hierarchy and nothing else, not
    # their V-cycle workspaces: interleaved solves, with a change of batch
    # width, equal solves run alone, and a returned result is never
    # overwritten
    grid = TimeSpaceGrid(m1=15, n=8)
    solver = MgShiftedSolver(grid, wavy_coeff)
    shifts = [np.array([0.3 + 0.2j, 1.5 - 0.4j]), np.array([0.05 + 0.87j, 2.0, 0.7 - 0.1j])]
    # (factor, batch width) of each call, in call order
    order = [(0, 2), (1, 1), (0, 1), (1, 2), (0, 2), (1, 1)]
    rng = np.random.default_rng(6)
    stacks = []
    for i, width in order:
        shape = (grid.m, width, shifts[i].size)
        stacks.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    alone = [
        MgShiftedSolver(grid, wavy_coeff).factor(shifts[i])(rhs)
        for (i, _), rhs in zip(order, stacks)
    ]
    solves = [solver.factor(sigmas) for sigmas in shifts]
    got = [solves[i](rhs) for (i, _), rhs in zip(order, stacks)]
    kept = [result.copy() for result in got]
    for result, want, before in zip(got, alone, kept):
        assert np.array_equal(result, want)
        assert np.array_equal(result, before)
    # each factor keeps its own V-cycle workspace: interleaved in-place
    # solves of the two do not disturb each other either
    for (i, _), rhs, want in zip(order, stacks, alone):
        assert np.array_equal(solves[i](rhs, out=rhs), want)


@pytest.mark.parametrize("shifts", [2, 1])
@pytest.mark.parametrize(
    "backend",
    [lambda grid: DstShiftedSolver(grid), lambda grid: MgShiftedSolver(grid, wavy_coeff)],
    ids=["dst", "mg"],
)
def test_solve_rejects_a_stack_with_the_wrong_shift_count(backend, shifts):
    # the shifts are the last axis of the (m, l, k) stack; one shift column
    # must not broadcast against three shifts
    grid = TimeSpaceGrid(m1=7, n=4)
    solve = backend(grid).factor(np.array([1.0, 0.3 + 0.9j, 2.0]))
    with pytest.raises(ValueError, match=f"expected 3 shifts on the last axis, got {shifts}"):
        solve(np.ones((grid.m, 2, shifts), dtype=complex))


def test_vcycle_exact_on_coarsest_grids():
    # on the one-point grid the sweep from zero is the exact solve; the
    # 3x3 grid's V(1,1) is checked against the dense reference cycle
    grid = TimeSpaceGrid(m1=1, n=4)
    sigma = 0.2 + 0.4j
    solve = one_shift(MgShiftedSolver(grid, wavy_coeff), sigma)
    A = shifted_matrix(grid, wavy_coeff, sigma)
    rng = np.random.default_rng(1)
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
    # calibrated: worst observed V(1,1) factor 0.107 over this family with
    # full-weighting restriction (P.T / 4), 0.208 with the old quarter
    # weighting (P.T / 16 in 2-D); frozen at 0.15, so a return to the
    # quarter weighting fails
    grid = TimeSpaceGrid(m1=m1, n=32)
    A = shifted_matrix(grid, wavy_coeff, sigma)
    solve = one_shift(MgShiftedSolver(grid, wavy_coeff), sigma)
    rng = np.random.default_rng(m1)
    r = rng.standard_normal(grid.m) + 0j
    z = solve(r)
    assert np.linalg.norm(r - A @ z) / np.linalg.norm(r) < 0.15


def test_vcycle_reduction_benchmark_coefficient():
    # calibrated: the small-amplitude coefficient makes the shifted systems
    # strongly diagonally dominant; worst observed V(1,1) factor 2.0e-6 over
    # the gamma in [1e-10, 1] shift range at m1=31, frozen at 1e-4
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


# --------------------------------------------------------- batched interface


def backend(name, grid):
    if name == "dst":
        return DstShiftedSolver(grid)
    if name == "dense":
        K = build_stiffness(stencil(grid, ones_coeff))
        return DenseShiftedSolver(np.eye(grid.m), K, grid.tau)
    return MgShiftedSolver(grid, ones_coeff)


@pytest.mark.parametrize("name", ["dst", "dense", "mg"])
def test_factor_solves_each_row_with_its_shift(name):
    grid = TimeSpaceGrid(m1=7, n=4)
    sigmas = np.array([1.0, 0.3 + 0.9j, 2.0 - 0.5j])
    solver = backend(name, grid)
    rng = np.random.default_rng(21)
    rhs = rng.standard_normal((grid.m, 2, 3)) + 1j * rng.standard_normal((grid.m, 2, 3))
    got = solver.factor(sigmas)(rhs)
    assert got.shape == rhs.shape
    assert got.flags.c_contiguous
    for k, sigma in enumerate(sigmas):
        single = one_shift(solver, sigma)
        for j in range(2):
            want = single(rhs[:, j, k])
            assert np.max(np.abs(got[:, j, k] - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["dst", "mg"])
def test_a_shift_that_zeroes_a_diagonal_is_rejected(name):
    # both backends refuse a shift that would divide by zero: minus an
    # eigenvalue of tau Lambda for the sine transform, minus a shifted
    # diagonal entry of a coarse level for multigrid
    grid = TimeSpaceGrid(m1=7, n=4)
    solver = backend(name, grid)
    diag = grid.tau * solver.laplacian_eigs if name == "dst" else solver.levels[1].diag
    with pytest.raises(ValueError, match="a shift makes the system singular"):
        solver.factor(np.array([1.0, -diag[2]]))


@pytest.mark.parametrize("name", ["dst", "dense", "mg"])
def test_solve_leaves_rhs_unchanged(name):
    # every backend returns a fresh array and leaves the caller's
    # right-hand side as it was
    grid = TimeSpaceGrid(m1=7, n=4)
    solve = backend(name, grid).factor(np.array([1.0, 0.3 + 0.9j]))
    rng = np.random.default_rng(23)
    rhs = rng.standard_normal((grid.m, 2, 2)) + 1j * rng.standard_normal((grid.m, 2, 2))
    rhs_copy = rhs.copy()
    got = solve(rhs)
    assert np.array_equal(rhs, rhs_copy)
    assert not np.shares_memory(got, rhs)


@pytest.mark.parametrize("name", ["dst", "dense", "mg"])
def test_solve_into_out_equals_the_fresh_result(name):
    # a solve into out, its own right-hand side included, writes the same
    # bits as the fresh solve
    grid = TimeSpaceGrid(m1=7, n=4)
    solve = backend(name, grid).factor(np.array([1.0, 0.3 + 0.9j]))
    rng = np.random.default_rng(24)
    rhs = rng.standard_normal((grid.m, 2, 2)) + 1j * rng.standard_normal((grid.m, 2, 2))
    want = solve(rhs)
    out = np.empty_like(rhs)
    assert solve(rhs, out=out) is out
    assert np.array_equal(out, want)
    assert solve(rhs, out=rhs) is rhs
    assert np.array_equal(rhs, want)


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
