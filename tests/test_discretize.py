"""Grid, time-difference, stiffness, right-hand-side and error-measure tests.

The stiffness and RHS checks use independent scalar-loop oracles written here
in the test file; the library's vectorized assembly must agree with them.
"""

import numpy as np
import pytest

from pintopt.discretize import (
    DomainValidityError,
    TimeSpaceGrid,
    assemble_rhs,
    build_stiffness,
    error_norm,
    stencil,
)
from pintopt.problems import ParabolicControlProblem, get_problem
from pintopt.shifted import dst2d
from pintopt.validation import eps_circulant_matrix


def ones_coeff(x1, x2):
    return np.ones_like(x1)


def bench_coeff(x1, x2):
    return 1e-5 * np.sin(np.pi * x1 * x2)


def dense_stiffness_oracle(m1, a):
    """Scalar-loop assembly of the 5-point staggered-coefficient scheme."""
    h = 1.0 / (m1 + 1)
    K = np.zeros((m1 * m1, m1 * m1))
    for i in range(1, m1 + 1):
        for j in range(1, m1 + 1):
            row = (i - 1) * m1 + (j - 1)
            aw = a((i - 0.5) * h, j * h)
            ae = a((i + 0.5) * h, j * h)
            a_s = a(i * h, (j - 0.5) * h)
            an = a(i * h, (j + 0.5) * h)
            K[row, row] = (aw + ae + a_s + an) / h**2
            if i > 1:
                K[row, row - m1] = -aw / h**2
            if i < m1:
                K[row, row + m1] = -ae / h**2
            if j > 1:
                K[row, row - 1] = -a_s / h**2
            if j < m1:
                K[row, row + 1] = -an / h**2
    return K


# ---------------------------------------------------------------------------
# grid


def test_grid_paper_sizes():
    grid = TimeSpaceGrid.from_h(2.0**-5, n=32, horizon=1.0)
    assert grid.m1 == 31
    assert grid.m == 961
    assert grid.n == 32
    assert 2 * grid.m * grid.n == 61504
    assert grid.tau == pytest.approx(1.0 / 32)


def test_grid_h_relation_exact():
    for m1 in (1, 3, 7, 31):
        grid = TimeSpaceGrid(m1=m1, n=4, horizon=2.0)
        assert grid.h == 1.0 / (m1 + 1)
        assert grid.tau == 0.5


def test_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        TimeSpaceGrid(m1=0, n=4, horizon=1.0)
    with pytest.raises(ValueError):
        TimeSpaceGrid(m1=3, n=0, horizon=1.0)
    with pytest.raises(ValueError):
        TimeSpaceGrid.from_h(0.3, n=4, horizon=1.0)  # 1/0.3 is not an integer


# ---------------------------------------------------------------------------
# time-difference matrix B (the eps = 0 case of the dense corner builder;
# its n = 1 and n = 3 values are checked in test_transforms)


def test_time_difference_rejects_zero():
    with pytest.raises(ValueError):
        eps_circulant_matrix(0, 0.0)


# ---------------------------------------------------------------------------
# stiffness


def test_stiffness_constant_coefficient_quarter_grid():
    grid = TimeSpaceGrid.from_h(0.25, n=4, horizon=1.0)
    K = build_stiffness(stencil(grid, ones_coeff))
    dense = K.toarray()
    assert np.allclose(np.diag(dense), 64.0)
    offs = dense[dense != 0]
    assert set(np.unique(offs)) == {-16.0, 64.0}


def test_stiffness_single_point_grid():
    grid = TimeSpaceGrid.from_h(0.5, n=1, horizon=1.0)
    K = build_stiffness(stencil(grid, ones_coeff)).toarray()
    assert np.allclose(K, [[16.0]])
    # matches the sine eigenvalue (2 - 2cos(pi/2)) * 2 / h^2 = 16
    assert np.allclose(np.linalg.eigvalsh(K), [16.0])


def test_stiffness_matches_kron_form_for_constant_coefficient():
    m1 = 5
    h = 1.0 / (m1 + 1)
    grid = TimeSpaceGrid(m1=m1, n=2, horizon=1.0)
    K = build_stiffness(stencil(grid, ones_coeff)).toarray()
    T = 2 * np.eye(m1) - np.eye(m1, k=1) - np.eye(m1, k=-1)
    want = (np.kron(T, np.eye(m1)) + np.kron(np.eye(m1), T)) / h**2
    assert np.max(np.abs(K - want)) < 1e-12 / h**2


def test_stiffness_variable_coefficient_against_oracle():
    grid = TimeSpaceGrid.from_h(0.25, n=4, horizon=1.0)
    K = build_stiffness(stencil(grid, bench_coeff)).toarray()
    want = dense_stiffness_oracle(3, lambda u, v: 1e-5 * np.sin(np.pi * u * v))
    assert np.max(np.abs(K - want)) <= 1e-14 * np.max(np.abs(want))


def test_stiffness_is_bitwise_symmetric_and_positive():
    for m1, coeff in [(3, ones_coeff), (3, bench_coeff), (7, bench_coeff)]:
        grid = TimeSpaceGrid(m1=m1, n=2, horizon=1.0)
        K = build_stiffness(stencil(grid, coeff))
        assert K.format == "csr"
        assert (K != K.T).nnz == 0
        assert np.linalg.eigvalsh(K.toarray()).min() > 0
        assert K.nnz <= 5 * m1 * m1


def test_stiffness_rejects_nonpositive_coefficient():
    grid = TimeSpaceGrid(m1=3, n=2, horizon=1.0)
    with pytest.raises(DomainValidityError):
        build_stiffness(stencil(grid, lambda x1, x2: np.zeros_like(x1)))
    with pytest.raises(DomainValidityError):
        # dips negative inside the domain
        build_stiffness(stencil(grid, lambda x1, x2: x1 - 0.5))


def test_stiffness_accepts_boundary_vanishing_coefficient():
    # positive at every stencil sample even though it vanishes on parts of
    # the closed boundary
    grid = TimeSpaceGrid(m1=7, n=2, horizon=1.0)
    K = build_stiffness(stencil(grid, bench_coeff))
    assert np.linalg.eigvalsh(K.toarray()).min() > 0


# ---------------------------------------------------------------------------
# right-hand side


def make_problem(f, g, y0, gamma=1.0):
    zero = lambda x1, x2, t: np.zeros(np.broadcast(x1, x2, t).shape)
    return ParabolicControlProblem(
        gamma=gamma, a=ones_coeff, f=f, g=g, y0=y0, exact_y=zero, exact_p=zero
    )


def test_rhs_homogeneous_data_is_zero():
    grid = TimeSpaceGrid(m1=3, n=4, horizon=1.0)
    zero3 = lambda x1, x2, t: np.zeros_like(x1)
    zero2 = lambda x1, x2: np.zeros_like(x1)
    b = assemble_rhs(make_problem(zero3, zero3, zero2, gamma=0.01), grid)
    assert b.shape == (2 * grid.m * grid.n,)
    assert np.all(b == 0)


def test_rhs_example1_scalar_loop_oracle():
    gamma = 1e-2
    grid = TimeSpaceGrid.from_h(0.25, n=4, horizon=1.0)
    problem = get_problem(1, gamma=gamma)
    b = assemble_rhs(problem, grid)

    m1, m, n = grid.m1, grid.m, grid.n
    h, tau = grid.h, grid.tau

    def f_val(x1, x2, t):
        return (2 * np.pi**2 - 1) * np.exp(-t) * np.sin(np.pi * x1) * np.sin(np.pi * x2)

    def g_val(x1, x2, t):
        return np.exp(-t) * np.sin(np.pi * x1) * np.sin(np.pi * x2)

    def y0_val(x1, x2):
        return np.sin(np.pi * x1) * np.sin(np.pi * x2)

    want = np.zeros(2 * m * n)
    for k in range(1, n + 1):
        for i in range(1, m1 + 1):
            for j in range(1, m1 + 1):
                x1, x2 = i * h, j * h
                row = (k - 1) * m + (i - 1) * m1 + (j - 1)
                # target half samples t_0 .. t_{n-1}
                want[row] = tau * g_val(x1, x2, (k - 1) * tau)
                # source half samples t_1 .. t_n, plus the initial state at k=1
                fk = tau * f_val(x1, x2, k * tau)
                if k == 1:
                    fk += y0_val(x1, x2)
                want[m * n + row] = -np.sqrt(gamma) * fk
    assert np.max(np.abs(b - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_rhs_unit_gamma_bottom_half():
    grid = TimeSpaceGrid(m1=3, n=3, horizon=1.0)
    problem = get_problem(1, gamma=1.0)
    b = assemble_rhs(problem, grid)
    mn = grid.m * grid.n
    # with sqrt(gamma) = 1 the bottom half is exactly minus the source stack
    f_stack = np.empty(mn)
    xs = np.arange(1, grid.m1 + 1) * grid.h
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    for k in range(1, grid.n + 1):
        blk = grid.tau * problem.f(X1, X2, k * grid.tau).ravel()
        if k == 1:
            blk = blk + problem.y0(X1, X2).ravel()
        f_stack[(k - 1) * grid.m : k * grid.m] = blk
    assert np.allclose(b[mn:], -f_stack, rtol=0, atol=1e-15)


def test_rhs_linear_in_data():
    rng = np.random.default_rng(2)
    grid = TimeSpaceGrid(m1=3, n=2, horizon=1.0)
    c1, c2 = rng.standard_normal(2)

    def trig(u, v, s):
        return np.sin(3 * u) * np.cos(v) * np.exp(-s)

    def poly(u, v, s):
        return u * v + s

    d1 = make_problem(trig, poly, lambda u, v: u + v, gamma=0.25)
    d2 = make_problem(poly, trig, lambda u, v: u * v, gamma=0.25)
    combo = make_problem(
        lambda u, v, s: c1 * trig(u, v, s) + c2 * poly(u, v, s),
        lambda u, v, s: c1 * poly(u, v, s) + c2 * trig(u, v, s),
        lambda u, v: c1 * (u + v) + c2 * (u * v),
        gamma=0.25,
    )
    b = assemble_rhs(combo, grid)
    want = c1 * assemble_rhs(d1, grid) + c2 * assemble_rhs(d2, grid)
    assert np.max(np.abs(b - want)) < 1e-13 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# error measure


def exact_vector(problem, grid):
    """The exact solution in the layout of assemble_rhs.

    sqrt(gamma) times the state at t_1..t_n, then the adjoint at
    t_0..t_{n-1}, each level a row-major grid function.
    """
    X1, X2 = grid.interior_points()
    y = np.concatenate(
        [problem.exact_y(X1, X2, k * grid.tau).ravel() for k in range(1, grid.n + 1)]
    )
    p = np.concatenate(
        [problem.exact_p(X1, X2, k * grid.tau).ravel() for k in range(0, grid.n)]
    )
    return np.concatenate([np.sqrt(problem.gamma) * y, p])


def test_error_norm_zero_for_exact():
    grid = TimeSpaceGrid(m1=3, n=4, horizon=1.0)
    # sqrt(gamma) = 2^-7, so scaling the state by it and back is exact
    problem = get_problem(1, gamma=2.0**-14)
    assert error_norm(exact_vector(problem, grid), problem, grid) == 0.0


def test_error_norm_constant_level():
    # one corrupted level with constant error 1 on a 3x3 grid, h = 1/4:
    # e_h = h * sqrt(9) = 0.75
    grid = TimeSpaceGrid(m1=3, n=4, horizon=1.0)
    problem = get_problem(1, gamma=1e-4)
    x = exact_vector(problem, grid)
    x[2 * grid.m : 3 * grid.m] += np.sqrt(problem.gamma)  # the state half holds sqrt(gamma) y
    assert error_norm(x, problem, grid) == pytest.approx(0.75, abs=1e-14)


def test_error_norm_takes_levelwise_maximum():
    # y and p errors at the same level index are NOT combined: the result
    # is the worst single field, here the p level with constant error 2
    # (h * sqrt(9 * 4) = 1.5), not the euclidean stack h * 3 * sqrt(5)
    grid = TimeSpaceGrid(m1=3, n=4, horizon=1.0)
    problem = get_problem(1, gamma=1e-4)
    mn = grid.m * grid.n
    x = exact_vector(problem, grid)
    x[2 * grid.m : 3 * grid.m] += np.sqrt(problem.gamma)
    x[mn + 2 * grid.m : mn + 3 * grid.m] += 2.0
    assert error_norm(x, problem, grid) == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize("gamma", [1e-6, 1e-2, 1.0])
@pytest.mark.parametrize("example", [1, 2])
def test_error_norm_inverts_the_rhs_layout(example, gamma):
    # the exact solution laid out as assemble_rhs lays out the right-hand
    # side reads back as zero error, in the grid basis and in the sine basis
    grid = TimeSpaceGrid.from_h(2.0**-3, n=8)
    problem = get_problem(example, gamma)
    x = exact_vector(problem, grid)
    scale = max(1.0, np.max(np.abs(x)))
    assert error_norm(x, problem, grid) <= 1e-15 * scale
    rotated = dst2d(x.reshape(2, grid.n, grid.m1, grid.m1)).reshape(-1)
    kept = rotated.copy()
    assert error_norm(rotated, problem, grid, transform=dst2d) <= 1e-14 * scale
    assert np.array_equal(rotated, kept)  # the solution is read, not written


# ---------------------------------------------------------------------------
# all levels at once


def rhs_level_loop(problem, grid):
    """The right-hand side assembled one time level at a time."""
    X1, X2 = grid.interior_points()
    m, n, tau = grid.m, grid.n, grid.tau
    top = np.empty(m * n)
    bot = np.empty(m * n)
    for k in range(1, n + 1):
        gk = np.asarray(problem.g(X1, X2, (k - 1) * tau), dtype=float).ravel()
        fk = np.asarray(problem.f(X1, X2, k * tau), dtype=float).ravel()
        top[(k - 1) * m : k * m] = tau * gk
        fblk = tau * fk
        if k == 1:
            fblk = fblk + np.asarray(problem.y0(X1, X2), dtype=float).ravel()
        bot[(k - 1) * m : k * m] = fblk
    return np.concatenate([top, -np.sqrt(problem.gamma) * bot])


def error_level_loop(x, problem, grid):
    """The worst-level error of a solution vector, measured one time level at a time."""
    X1, X2 = grid.interior_points()
    m, n = grid.m, grid.n
    y = x[: m * n].reshape(n, m) / np.sqrt(problem.gamma)
    p = x[m * n :].reshape(n, m)
    worst = 0.0
    for k in range(1, n + 1):
        ey = y[k - 1] - problem.exact_y(X1, X2, k * grid.tau).ravel()
        ep = p[k - 1] - problem.exact_p(X1, X2, (k - 1) * grid.tau).ravel()
        worst = max(worst, float(ey @ ey), float(ep @ ep))
    return grid.h * np.sqrt(worst)


@pytest.mark.parametrize("level", [3, 5])
@pytest.mark.parametrize("example", [1, 2])
def test_all_levels_at_once_match_the_level_loop(example, level):
    # sampling with times shaped (n, 1, 1) must give the loop's numbers exactly
    grid = TimeSpaceGrid.from_h(2.0**-level, n=2**level)
    problem = get_problem(example, gamma=1e-4)
    assert np.array_equal(assemble_rhs(problem, grid), rhs_level_loop(problem, grid))
    rng = np.random.default_rng(level)
    x = rng.standard_normal(2 * grid.m * grid.n) * 1e-3
    assert error_norm(x, problem, grid) == error_level_loop(x, problem, grid)

