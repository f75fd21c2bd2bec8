"""Tests for the matrix-free all-at-once saddle-point operator.

Oracle: explicit dense Kronecker assembly of the same operator. The
evolution blocks T and T' are read off ``matvec`` on vectors with one zero
half: matvec([u; 0]) = [alpha u; -T u] and matvec([0; w]) = [T' w; alpha w].
"""

import numpy as np
import pytest

from pintopt.discretize import TimeSpaceGrid, build_stiffness
from pintopt.operators import AllAtOnceOperator
from pintopt.validation import eps_circulant_matrix


def ones_coeff(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def wavy_coeff(x1, x2):
    return 1.0 + 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2)


def dense_evolution(grid, K):
    """kron(B, I) + tau * kron(I, K) assembled densely."""
    B = eps_circulant_matrix(grid.n, 0.0)
    return np.kron(B, np.eye(grid.m)) + grid.tau * np.kron(np.eye(grid.n), K.toarray())


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
@pytest.mark.parametrize("coeff", [ones_coeff, wavy_coeff])
def test_evolution_matches_dense(m1, n, coeff):
    grid = TimeSpaceGrid(m1=m1, n=n)
    K = build_stiffness(grid, coeff)
    T = dense_evolution(grid, K)
    op = AllAtOnceOperator(grid, K, gamma=1e-3)
    rng = np.random.default_rng(7 * m1 + n)
    for _ in range(3):
        v = rng.standard_normal(grid.m * n)
        Tv, Ttv = evolution_blocks(op, v, v)
        assert np.max(np.abs(Tv - T @ v)) < 1e-12
        assert np.max(np.abs(Ttv - T.T @ v)) < 1e-12


def test_evolution_adjoint_identity():
    grid = TimeSpaceGrid(m1=3, n=4)
    K = build_stiffness(grid, wavy_coeff)
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
    K = build_stiffness(grid, wavy_coeff)
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
    K = build_stiffness(grid, ones_coeff)
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
    K = build_stiffness(grid, ones_coeff)
    op = AllAtOnceOperator(grid, K, gamma=1e-4)
    assert op.alpha == pytest.approx((1.0 / 8) / 1e-2, rel=1e-15)


def test_matvec_linearity():
    grid = TimeSpaceGrid(m1=2, n=3)
    K = build_stiffness(grid, wavy_coeff)
    op = AllAtOnceOperator(grid, K, gamma=0.1)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(op.size)
    y = rng.standard_normal(op.size)
    lhs = op.matvec(2.5 * x - 0.3 * y)
    rhs = 2.5 * op.matvec(x) - 0.3 * op.matvec(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_matvec_rejects_wrong_length():
    grid = TimeSpaceGrid(m1=2, n=2)
    K = build_stiffness(grid, ones_coeff)
    op = AllAtOnceOperator(grid, K, gamma=1.0)
    with pytest.raises(ValueError):
        op.matvec(np.zeros(op.size + 1))


def test_matvec_leaves_input_unchanged_and_returns_fresh():
    grid = TimeSpaceGrid(m1=3, n=4)
    K = build_stiffness(grid, wavy_coeff)
    op = AllAtOnceOperator(grid, K, gamma=1e-2)
    x = np.random.default_rng(5).standard_normal(op.size)
    saved = x.copy()
    first = op.matvec(x)
    second = op.matvec(x)
    assert np.array_equal(x, saved)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, x) and not np.shares_memory(second, x)
