"""Tests for the rotated-block-diagonal preconditioner.

Oracle: dense assembly of the exact preconditioner matrix

    P = blockdiag(Ceps' + alpha W, Ceps + alpha W) @ (1/2) [[I, I], [-I, I]]

with Ceps = C x M + tau I x K (C the corner-damped difference matrix) and
W = I x M, applied through numpy.linalg.solve. The fast path must reproduce
the dense inverse to 1e-10 relative on every configuration below.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from dense_backend import DenseShiftedSolver, PhysicalDstSolver

from pintopt.bench import make_inner_solver, mesh_setup
from pintopt.discretize import TimeSpaceGrid, build_stiffness, stencil
from pintopt.operators import AllAtOnceOperator
from pintopt.problems import get_problem
from pintopt.rbd import (
    RbdEpsPreconditioner,
    contraction_factor,
    eps_spectrum,
    rate_constant,
)
from pintopt.shifted import DstShiftedSolver
from pintopt.validation import eps_circulant_matrix


def ones_coeff(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def wavy_coeff(x1, x2):
    return 1.0 + 0.5 * np.sin(np.pi * x1) * np.sin(np.pi * x2)


def dense_preconditioner(grid, stiffness, gamma, eps, mass=None):
    """The dense P; the mass matrix M defaults to the scheme's identity."""
    n, m, tau = grid.n, grid.m, grid.tau
    M = np.eye(m) if mass is None else mass.toarray()
    K = stiffness.toarray()
    alpha = tau / np.sqrt(gamma)
    C = eps_circulant_matrix(n, eps)
    Ceps = np.kron(C, M) + tau * np.kron(np.eye(n), K)
    W = np.kron(np.eye(n), M)
    Z = np.zeros((n * m, n * m))
    H = np.block([[Ceps.T + alpha * W, Z], [Z, Ceps + alpha * W]])
    eye = np.eye(n * m)
    G = 0.5 * np.block([[eye, eye], [-eye, eye]])
    return H @ G


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("m1", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("gamma", [1e-4, 1.0])
@pytest.mark.parametrize("eps", [0.5, 0.01])
def test_matches_dense_inverse_unit_coeff(m1, n, gamma, eps):
    grid = TimeSpaceGrid(m1=m1, n=n)
    K = build_stiffness(stencil(grid, ones_coeff))
    P = dense_preconditioner(grid, K, gamma, eps)
    pc = RbdEpsPreconditioner(grid, gamma, eps, inner=PhysicalDstSolver(grid))
    rng = np.random.default_rng(hash((m1, n)) % 2**31)
    for _ in range(3):
        r = rng.standard_normal(2 * grid.m * n)
        assert rel_err(pc.apply_inverse(r), np.linalg.solve(P, r)) < 1e-10


def test_matches_dense_inverse_variable_coeff():
    grid = TimeSpaceGrid(m1=3, n=3)
    K = build_stiffness(stencil(grid, wavy_coeff))
    gamma, eps = 1e-3, 0.2
    P = dense_preconditioner(grid, K, gamma, eps)
    inner = DenseShiftedSolver(np.eye(grid.m), K, grid.tau)
    pc = RbdEpsPreconditioner(grid, gamma, eps, inner=inner)
    rng = np.random.default_rng(11)
    r = rng.standard_normal(2 * grid.m * grid.n)
    assert rel_err(pc.apply_inverse(r), np.linalg.solve(P, r)) < 1e-10


def test_matches_dense_inverse_general_mass():
    # tridiagonal SPD mass matrix: the alpha-shift must weight by M, not I
    grid = TimeSpaceGrid(m1=2, n=3)
    m = grid.m
    M = sp.diags(
        [np.full(m - 1, 0.3), np.ones(m), np.full(m - 1, 0.3)], [-1, 0, 1]
    ).tocsr()
    K = sp.diags(
        [np.full(m - 1, -1.0), np.full(m, 2.5), np.full(m - 1, -1.0)], [-1, 0, 1]
    ).tocsr()
    gamma, eps = 0.25, 0.4
    P = dense_preconditioner(grid, K, gamma, eps, mass=M)
    pc = RbdEpsPreconditioner(
        grid, gamma, eps, inner=DenseShiftedSolver(M, K, grid.tau)
    )
    rng = np.random.default_rng(12)
    r = rng.standard_normal(2 * m * grid.n)
    assert rel_err(pc.apply_inverse(r), np.linalg.solve(P, r)) < 1e-10


def test_matches_dense_inverse_single_step():
    # n = 1: the corner damping lands on the diagonal, C = [1 - eps]
    grid = TimeSpaceGrid(m1=3, n=1)
    K = build_stiffness(stencil(grid, ones_coeff))
    P = dense_preconditioner(grid, K, 1.0, 0.5)
    pc = RbdEpsPreconditioner(grid, 1.0, 0.5, inner=PhysicalDstSolver(grid))
    rng = np.random.default_rng(13)
    r = rng.standard_normal(2 * grid.m)
    assert rel_err(pc.apply_inverse(r), np.linalg.solve(P, r)) < 1e-10


def fft_path_inverse(pc, r):
    """P^-1 r by scale, rfft, conjugate, solve, conjugate, irfft, scale back, rotate."""
    n, m = pc.grid.n, pc.grid.m
    half = n // 2 + 1
    d = pc.spectrum.scalings[:, None]
    scale = np.stack([1.0 / d, d])
    z = np.fft.rfft(r.reshape(2, n, m) * scale, axis=1, norm="ortho")
    z[0] = z[0].conj()
    solve = pc.inner.factor(pc.spectrum.lambdas[:half] + pc.alpha)
    z = solve(np.ascontiguousarray(z.transpose(2, 0, 1))).transpose(1, 2, 0)
    z[0] = z[0].conj()
    x = np.fft.irfft(z, n=n, axis=1, norm="ortho") * scale[::-1]
    return np.concatenate([x[0] - x[1], x[0] + x[1]]).reshape(-1)


@pytest.mark.parametrize("n", [63, 64, 128])
def test_matches_dense_inverse_many_steps(n):
    # the explicit time transform sums n terms per entry, so its round-off
    # grows with n and with 1/eps; odd n has no Nyquist block. Its matrices
    # are numpy's FFT applied to unit vectors, so the products differ from
    # the FFT path only in the order of their sums
    grid = TimeSpaceGrid(m1=3, n=n)
    K = build_stiffness(stencil(grid, ones_coeff))
    rng = np.random.default_rng(n)
    for eps in (0.5, 1 / (2 * n), 1e-3):
        P = dense_preconditioner(grid, K, 1e-2, eps)
        pc = RbdEpsPreconditioner(grid, 1e-2, eps, inner=PhysicalDstSolver(grid))
        r = rng.standard_normal(pc.size)
        got = pc.apply_inverse(r)
        assert rel_err(got, np.linalg.solve(P, r)) < 1e-10
        assert rel_err(got, fft_path_inverse(pc, r)) < 5e-13


def test_apply_inverse_linearity():
    grid = TimeSpaceGrid(m1=3, n=4)
    pc = RbdEpsPreconditioner(grid, 1e-2, 0.01, inner=DstShiftedSolver(grid))
    rng = np.random.default_rng(14)
    x = rng.standard_normal(2 * grid.m * grid.n)
    y = rng.standard_normal(2 * grid.m * grid.n)
    lhs = pc.apply_inverse(1.5 * x - 0.25 * y)
    rhs = 1.5 * pc.apply_inverse(x) - 0.25 * pc.apply_inverse(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_conjugate_pair_shortcut_matches_full_path():
    # only blocks k <= n/2 are solved, and the inverse product's doubled
    # weights stand for their conjugates; the dense inverse is the full path,
    # for even and odd n
    for n in (4, 5, 8):
        grid = TimeSpaceGrid(m1=3, n=n)
        K = build_stiffness(stencil(grid, ones_coeff))
        P = dense_preconditioner(grid, K, 1e-3, 0.25)
        pc = RbdEpsPreconditioner(grid, 1e-3, 0.25, inner=PhysicalDstSolver(grid))
        rng = np.random.default_rng(n)
        r = rng.standard_normal(2 * grid.m * n)
        assert rel_err(pc.apply_inverse(r), np.linalg.solve(P, r)) < 1e-10


class RecordingSolver:
    """Fake inner backend: records factor and solve calls, solves with an LU."""

    def __init__(self, inner):
        self.inner = inner
        self.factored = []
        self.solve_shapes = []
        self.solve_contiguous = []

    def factor(self, sigmas):
        self.factored.append(np.array(sigmas))
        solve = self.inner.factor(sigmas)

        def recorded(rhs, out=None):
            self.solve_shapes.append(rhs.shape)
            self.solve_contiguous.append(rhs.flags.c_contiguous)
            return solve(rhs, out)

        return recorded


@pytest.mark.parametrize("n", [1, 4, 5])
def test_one_lazy_factor_and_one_solve_per_apply(n):
    grid = TimeSpaceGrid(m1=3, n=n)
    K = build_stiffness(stencil(grid, ones_coeff))
    inner = RecordingSolver(DenseShiftedSolver(np.eye(grid.m), K, grid.tau))
    pc = RbdEpsPreconditioner(grid, 1e-2, 0.3, inner=inner)
    assert inner.factored == []  # nothing is factored at construction
    rng = np.random.default_rng(16)
    for apply in range(1, 4):
        pc.apply_inverse(rng.standard_normal(2 * grid.m * n))
        assert len(inner.factored) == 1
        assert len(inner.solve_shapes) == apply
    half = n // 2 + 1
    want = eps_spectrum(n, 0.3).lambdas[:half] + pc.alpha
    assert np.array_equal(inner.factored[0], want)
    assert inner.solve_shapes == [(grid.m, 2, half)] * 3
    assert all(inner.solve_contiguous)


class SkewedSolver:
    """Fake inner backend whose solves pick up a spurious complex factor."""

    def __init__(self, inner, skew=1 + 1e-3j):
        self.inner = inner
        self.skew = skew

    def factor(self, sigmas):
        solve = self.inner.factor(sigmas)
        return lambda rhs, out: np.multiply(solve(rhs, out), self.skew, out=out)


@pytest.mark.parametrize(
    "n, skew",
    [
        pytest.param(4, 1 + 1e-3j, id="4"),
        pytest.param(5, 1 + 1e-3j, id="5"),
        # a relative residue of about 5e-9, far above round-off
        pytest.param(4, 1 + 1e-8j, id="4-residue-1e-8"),
        pytest.param(5, 1 + 1e-8j, id="5-residue-1e-8"),
    ],
)
def test_imaginary_residue_guard_trips(n, skew):
    grid = TimeSpaceGrid(m1=3, n=n)
    skewed = SkewedSolver(DstShiftedSolver(grid), skew)
    pc = RbdEpsPreconditioner(grid, 1e-2, 0.3, inner=skewed)
    rng = np.random.default_rng(17)
    with pytest.raises(FloatingPointError, match="imaginary residue"):
        pc.apply_inverse(rng.standard_normal(2 * grid.m * n))


class LastShiftSkewedSolver(SkewedSolver):
    """Fake inner backend that skews only the solve of the last shift."""

    def factor(self, sigmas):
        solve = self.inner.factor(sigmas)

        def skewed(rhs, out):
            solve(rhs, out)
            out[..., -1] *= 1 + 1e-3j
            return out

        return skewed


@pytest.mark.parametrize("n", [2, 4])
def test_imaginary_residue_guard_sees_the_nyquist_block(n):
    # for even n the last solved block k = n/2 has a real shift too, and
    # the inverse product would silently drop its imaginary part
    grid = TimeSpaceGrid(m1=3, n=n)
    pc = RbdEpsPreconditioner(
        grid, 1e-2, 0.3, inner=LastShiftSkewedSolver(DstShiftedSolver(grid))
    )
    rng = np.random.default_rng(18)
    with pytest.raises(FloatingPointError, match="imaginary residue"):
        pc.apply_inverse(rng.standard_normal(2 * grid.m * n))


class FilledSolver:
    """Fake inner backend whose solves return a constant, such as nan + 0j."""

    def __init__(self, value):
        self.value = value

    def factor(self, sigmas):
        return lambda rhs, out: out.fill(self.value)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_inner_solve_trips_the_guard(value):
    # nan + 0j has no imaginary residue, so only a finiteness check sees it
    grid = TimeSpaceGrid(m1=3, n=4)
    pc = RbdEpsPreconditioner(grid, 1e-2, 0.3, inner=FilledSolver(value))
    with pytest.raises(FloatingPointError, match="not finite"):
        pc.apply_inverse(np.ones(2 * grid.m * grid.n))


def test_apply_leaves_its_input_and_earlier_outputs_unchanged():
    # the work buffers are reused across applies; what goes in and what
    # came out of an earlier apply must not alias them
    grid = TimeSpaceGrid(m1=3, n=4)
    pc = RbdEpsPreconditioner(grid, 1e-2, 0.3, inner=DstShiftedSolver(grid))
    rng = np.random.default_rng(19)
    x = rng.standard_normal(2 * grid.m * grid.n)
    x_copy = x.copy()
    first = pc.apply_inverse(x)
    first_copy = first.copy()
    assert np.array_equal(x, x_copy)
    second = pc.apply_inverse(rng.standard_normal(x.size))
    assert np.array_equal(first, first_copy)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("example", [1, 2])
def test_apply_in_place_equals_the_fresh_result(example):
    # in place, as GMRES calls it on a basis row, and into another array,
    # the apply writes the same bits as the fresh one, on either backend
    grid = TimeSpaceGrid(m1=7, n=8)
    inner, _ = make_inner_solver(get_problem(example, 1e-2).a, grid, None)
    eps = rate_constant(0.5, grid.tau, grid.horizon)
    pc = RbdEpsPreconditioner(grid, 1e-2, eps, inner=inner)
    r = np.random.default_rng(21).standard_normal(pc.size)
    want = pc.apply_inverse(r)
    out = np.empty_like(r)
    assert pc.apply_inverse(r, out=out) is out
    assert np.array_equal(out, want)
    assert pc.apply_inverse(r, out=r) is r
    assert np.array_equal(r, want)


def test_warm_apply_allocation_budget():
    # one warm apply allocates the returned vector and the solved half
    # spectrum, not a handful of full-size complex temporaries
    grid = TimeSpaceGrid(m1=15, n=16)
    pc = RbdEpsPreconditioner(grid, 1e-2, 0.3, inner=DstShiftedSolver(grid))
    r = np.random.default_rng(20).standard_normal(pc.size)
    pc.apply_inverse(r)
    tracemalloc.start()
    try:
        pc.apply_inverse(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * r.nbytes


@pytest.mark.parametrize("example", [1, 2])
def test_arnoldi_step_makes_no_system_sized_array(example):
    # the step GMRES runs: the operator into the next basis row, then the
    # preconditioner in place on it. At h = 2^-5 three warm steps peak at
    # 0.13 MB on the sine transform (the round-off guard's small arrays)
    # and 0.59 MB on multigrid, the fine level's prolonged correction,
    # which the sparse product returns fresh; an N-vector is 0.49 MB
    grid, inner, stiffness = mesh_setup(example, None, 2.0**-5)
    fresh = 0
    if not isinstance(inner, DstShiftedSolver):
        fresh = 8 * inner.levels[0].skew_size * 2 * 2 * (grid.n // 2 + 1)
    op = AllAtOnceOperator(grid, stiffness, 1e-2)
    pc = RbdEpsPreconditioner(grid, 1e-2, rate_constant(0.5, grid.tau, grid.horizon), inner)
    basis = np.empty((4, op.size))
    basis[0] = np.random.default_rng(22).standard_normal(op.size)

    def step(j):
        op.matvec(basis[j], out=basis[j + 1])
        pc.apply_inverse(basis[j + 1], out=basis[j + 1])

    step(0)  # the lazy factor and the V-cycle workspace
    tracemalloc.start()
    try:
        for j in range(3):
            step(j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fresh + basis[0].nbytes / 2


def test_real_input_gives_real_output():
    grid = TimeSpaceGrid(m1=3, n=4)
    pc = RbdEpsPreconditioner(grid, 1.0, 0.5, inner=DstShiftedSolver(grid))
    out = pc.apply_inverse(np.ones(2 * grid.m * grid.n))
    assert out.dtype == np.float64


def test_complex_input_is_rejected():
    # GMRES solves real systems only, so the preconditioner takes real vectors
    grid = TimeSpaceGrid(m1=2, n=4)
    pc = RbdEpsPreconditioner(grid, 0.5, 0.3, inner=DstShiftedSolver(grid))
    with pytest.raises(TypeError, match="real"):
        pc.apply_inverse(np.ones(2 * grid.m * 4, dtype=complex))


def test_rejects_bad_arguments():
    grid = TimeSpaceGrid(m1=2, n=2)
    inner = DstShiftedSolver(grid)
    with pytest.raises(ValueError):
        RbdEpsPreconditioner(grid, -1.0, 0.5, inner=inner)
    with pytest.raises(ValueError):
        RbdEpsPreconditioner(grid, 1.0, 0.0, inner=inner)
    with pytest.raises(ValueError):
        RbdEpsPreconditioner(grid, 1.0, 1.5, inner=inner)
    pc = RbdEpsPreconditioner(grid, 1.0, 0.5, inner=inner)
    with pytest.raises(ValueError):
        pc.apply_inverse(np.zeros(7))


# ------------------------------------------------------------ damping level


def test_rate_policy_value():
    # delta sqrt(tau) / (delta sqrt(tau) + 2 sqrt(T)) at delta=1/2, tau=1/8
    assert rate_constant(0.5, 0.125, 1.0) == pytest.approx(0.0812, abs=5e-5)


def test_rate_policy_rejects_bad_delta():
    with pytest.raises(ValueError):
        rate_constant(0.0, 0.125, 1.0)
    with pytest.raises(ValueError):
        rate_constant(1.0, 0.125, 1.0)


def test_contraction_factor_values():
    assert contraction_factor(0.9) == pytest.approx(0.9988, abs=5e-5)
    for delta in np.linspace(0.05, 0.95, 10):
        rho = contraction_factor(delta)
        assert 0.7 < rho < 1.0
    # monotone in delta: looser definiteness, slower certified rate
    rhos = [contraction_factor(d) for d in (0.1, 0.5, 0.9)]
    assert rhos[0] < rhos[1] < rhos[2]
