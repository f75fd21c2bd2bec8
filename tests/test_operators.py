"""Tests for the matrix-free all-at-once saddle-point operator.

Oracle: explicit dense Kronecker assembly of the same operator. The
evolution blocks T and T' are read off ``matvec`` on vectors with one zero
half: matvec([u; 0]) = [alpha u; -T u] and matvec([0; w]) = [T' w; alpha w].
A diagonal stiffness given as a vector has ``np.diag`` of it as its dense
form, and its matvec must equal that of the same diagonal as a CSR matrix
bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from dense_backend import solve_sine_basis

from pintopt.discretize import TimeSpaceGrid, assemble_rhs, build_stiffness, stencil
from pintopt.operators import AllAtOnceOperator
from pintopt.problems import get_problem
from pintopt.shifted import DstShiftedSolver, dst2d
from pintopt.validation import eps_circulant_matrix


def ones_coeff(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def wavy_coeff(x1, x2):
    return 1.0 + 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2)


def sine_eigs(grid):
    """Lambda, the unit-diffusion stiffness in the sine basis, as a vector."""
    return DstShiftedSolver(grid).laplacian_eigs


def dense_evolution(grid, K):
    """kron(B, I) + tau * kron(I, K) assembled densely."""
    B = eps_circulant_matrix(grid.n, 0.0)
    dense_K = np.diag(K) if K.ndim == 1 else K.toarray()
    return np.kron(B, np.eye(grid.m)) + grid.tau * np.kron(np.eye(grid.n), dense_K)


def evolution_blocks(op, u, w):
    """(T u, T' w) from two matvecs, each on a vector with one zero half."""
    zero = np.zeros_like(u)
    half = u.size
    left = op.matvec(np.concatenate([u, zero]))
    right = op.matvec(np.concatenate([zero, w]))
    assert np.array_equal(left[:half], op.alpha * u)
    assert np.array_equal(right[half:], op.alpha * w)
    return -left[half:], right[:half]


def dense_saddle(grid, K, gamma):
    T = dense_evolution(grid, K)
    alpha = grid.tau / np.sqrt(gamma)
    W = np.eye(grid.m * grid.n)
    return np.block([[alpha * W, T.T], [-T, alpha * W]])


@pytest.mark.parametrize("m1", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("coeff", [ones_coeff, wavy_coeff, sine_eigs])
def test_evolution_matches_dense(m1, n, coeff):
    grid = TimeSpaceGrid(m1=m1, n=n)
    K = sine_eigs(grid) if coeff is sine_eigs else build_stiffness(stencil(grid, coeff))
    T = dense_evolution(grid, K)
    op = AllAtOnceOperator(grid, K, gamma=1e-3)
    rng = np.random.default_rng(7 * m1 + n)
    for _ in range(3):
        v = rng.standard_normal(grid.m * n)
        Tv, Ttv = evolution_blocks(op, v, v)
        assert np.max(np.abs(Tv - T @ v)) < 1e-12
        assert np.max(np.abs(Ttv - T.T @ v)) < 1e-12


@pytest.mark.parametrize("m1,n", [(1, 1), (3, 3), (7, 8), (31, 32)])
def test_diagonal_stiffness_vector_matches_csr_bit_for_bit(m1, n):
    # the acceptance tables' sine-basis iterates were recorded with the CSR
    # product of sp.diags(Lambda); the vector path must reproduce them exactly
    grid = TimeSpaceGrid(m1=m1, n=n)
    eigs = sine_eigs(grid)
    vector = AllAtOnceOperator(grid, eigs, gamma=1e-6)
    csr = AllAtOnceOperator(grid, sp.diags(eigs, format="csr"), gamma=1e-6)
    rng = np.random.default_rng(m1 + 100 * n)
    for _ in range(3):
        x = rng.standard_normal(vector.size)
        assert np.array_equal(vector.matvec(x), csr.matvec(x))


@pytest.mark.parametrize(
    "stiffness",
    [np.ones(1), build_stiffness(stencil(TimeSpaceGrid(m1=4, n=4), ones_coeff))],
    ids=["length-1 vector", "K of another grid"],
)
def test_rejects_stiffness_of_wrong_shape(stiffness):
    grid = TimeSpaceGrid(m1=3, n=4)
    with pytest.raises(ValueError, match=r"shape \(9,\) .* \(9, 9\)"):
        AllAtOnceOperator(grid, stiffness, gamma=1.0)


def test_evolution_adjoint_identity():
    grid = TimeSpaceGrid(m1=3, n=4)
    K = build_stiffness(stencil(grid, wavy_coeff))
    op = AllAtOnceOperator(grid, K, gamma=1.0)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(grid.m * grid.n)
        v = rng.standard_normal(grid.m * grid.n)
        Tv, Ttu = evolution_blocks(op, v, u)
        lhs = u @ Tv
        rhs = Ttu @ v
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("m1,n", [(1, 1), (2, 2), (3, 4)])
@pytest.mark.parametrize("gamma", [1e-4, 1.0])
def test_matvec_matches_dense(m1, n, gamma):
    grid = TimeSpaceGrid(m1=m1, n=n)
    K = build_stiffness(stencil(grid, wavy_coeff))
    A = dense_saddle(grid, K, gamma)
    op = AllAtOnceOperator(grid, K, gamma=gamma)
    rng = np.random.default_rng(m1 + 10 * n)
    for _ in range(3):
        x = rng.standard_normal(2 * grid.m * n)
        assert np.max(np.abs(op.matvec(x) - A @ x)) < 1e-12 * max(
            1.0, np.max(np.abs(A @ x))
        )


def test_symmetric_part_is_scaled_mass():
    # x' A x = alpha * x' W x with W = I for every x: the skew coupling
    # blocks cancel in the quadratic form
    grid = TimeSpaceGrid(m1=3, n=3)
    K = build_stiffness(stencil(grid, ones_coeff))
    gamma = 1e-2
    op = AllAtOnceOperator(grid, K, gamma=gamma)
    alpha = grid.tau / np.sqrt(gamma)
    rng = np.random.default_rng(42)
    for _ in range(5):
        x = rng.standard_normal(2 * grid.m * grid.n)
        quad = x @ op.matvec(x)
        assert quad == pytest.approx(alpha * (x @ x), rel=1e-12)
        assert quad > 0


def test_alpha_value():
    grid = TimeSpaceGrid(m1=3, n=8)
    K = build_stiffness(stencil(grid, ones_coeff))
    op = AllAtOnceOperator(grid, K, gamma=1e-4)
    assert op.alpha == pytest.approx((1.0 / 8) / 1e-2, rel=1e-15)


def test_matvec_linearity():
    grid = TimeSpaceGrid(m1=2, n=3)
    K = build_stiffness(stencil(grid, wavy_coeff))
    op = AllAtOnceOperator(grid, K, gamma=0.1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(op.size)
    y = rng.standard_normal(op.size)
    lhs = op.matvec(2.5 * x - 0.3 * y)
    rhs = 2.5 * op.matvec(x) - 0.3 * op.matvec(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_matvec_rejects_wrong_length():
    grid = TimeSpaceGrid(m1=2, n=2)
    K = build_stiffness(stencil(grid, ones_coeff))
    op = AllAtOnceOperator(grid, K, gamma=1.0)
    with pytest.raises(ValueError):
        op.matvec(np.zeros(op.size + 1))


def test_matvec_leaves_input_unchanged_and_returns_fresh():
    grid = TimeSpaceGrid(m1=3, n=4)
    K = build_stiffness(stencil(grid, wavy_coeff))
    op = AllAtOnceOperator(grid, K, gamma=1e-2)
    x = np.random.default_rng(5).standard_normal(op.size)
    saved = x.copy()
    first = op.matvec(x)
    second = op.matvec(x)
    assert np.array_equal(x, saved)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, x) and not np.shares_memory(second, x)


@pytest.mark.parametrize("path", ["csr", "vector"])
def test_matvec_into_out_equals_the_fresh_result(path):
    # the out path writes the same bits as the fresh one, into the caller's
    # array, and leaves the input as it was
    grid = TimeSpaceGrid(m1=3, n=4)
    K = build_stiffness(stencil(grid, wavy_coeff)) if path == "csr" else sine_eigs(grid)
    op = AllAtOnceOperator(grid, K, gamma=1e-2)
    x = np.random.default_rng(6).standard_normal(op.size)
    saved = x.copy()
    row = np.full((2, op.size), np.nan)[1]
    assert op.matvec(x, out=row) is row
    assert np.array_equal(row, op.matvec(x))
    assert np.array_equal(x, saved)


def test_matvec_rejects_an_out_that_aliases_the_input():
    grid = TimeSpaceGrid(m1=3, n=4)
    op = AllAtOnceOperator(grid, sine_eigs(grid), gamma=1e-2)
    x = np.random.default_rng(7).standard_normal(2 * op.size)
    with pytest.raises(ValueError, match="share memory"):
        op.matvec(x[: op.size], out=x[: op.size])
    with pytest.raises(ValueError, match="share memory"):
        op.matvec(x[: op.size], out=x[op.size // 2 : op.size // 2 + op.size])
    with pytest.raises(ValueError, match="length"):
        op.matvec(x[: op.size], out=np.empty(op.size + 1))


# ---------------------------------------------------------------------------
# the exact sine-basis solve of tests/dense_backend.py


@pytest.mark.parametrize("m1,n", [(1, 1), (1, 2), (3, 4), (3, 5)])
@pytest.mark.parametrize("gamma", [1e-10, 1e-2, 1.0])
def test_sine_basis_solve_matches_dense_solve(m1, n, gamma):
    grid = TimeSpaceGrid(m1=m1, n=n)
    b = np.random.default_rng(m1 * n).standard_normal(2 * grid.m * n)
    want = np.linalg.solve(dense_saddle(grid, sine_eigs(grid), gamma), b)
    got = solve_sine_basis(grid, sine_eigs(grid), gamma, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("gamma", [1e-10, 1e-4, 1.0])
def test_sine_basis_solve_residual(level, gamma):
    # example 1's right-hand side in the sine basis, as solve_cell assembles it
    grid = TimeSpaceGrid.from_h(2.0**-level, n=2**level)
    b = assemble_rhs(get_problem(1, gamma), grid, dst2d)
    op = AllAtOnceOperator(grid, sine_eigs(grid), gamma)
    x = solve_sine_basis(grid, sine_eigs(grid), gamma, b)
    assert np.linalg.norm(b - op.matvec(x)) <= 1e-13 * np.linalg.norm(b)
