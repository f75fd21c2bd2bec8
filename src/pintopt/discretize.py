"""Space-time grid, stiffness matrix, right-hand side and error measure.

The spatial domain is the open unit square with homogeneous Dirichlet
boundary; space is discretized by the standard 5-point scheme with the
diffusion coefficient sampled at staggered edge midpoints, time by backward
Euler. Grid functions are flattened row-major with the first coordinate
slowest: index (i-1)*m1 + (j-1) holds the value at (i*h, j*h).

:func:`stencil` is the one definition of the 5-point stencil: the CSR
stiffness of :func:`build_stiffness`, the bands of every multigrid level
and the choice of the inner solver all read it.

The time derivative and the tracking term act on grid values directly, so
the M of the general theory is the identity here and the stiffness K is
the only spatial matrix: the operator and the right-hand side use grid
values as they are, and the inner solvers add their shifts straight to the
diagonal of K.

Block vectors over time are laid out time-major (block k contiguous). The
assembled right-hand side follows the scaled coupled-system convention: the
top half stacks the weighted target samples at t_0..t_{n-1}, the bottom half
stacks minus sqrt(gamma) times the weighted source samples at t_1..t_n with
the initial state folded into the first block. The solution has the same
two halves: sqrt(gamma) times the state at t_1..t_n, then the adjoint at
t_0..t_{n-1}. This module owns that layout: :func:`assemble_rhs` writes
it and :func:`error_norm` reads it back.

Both work in the basis of the space samples they are given.
:func:`sample_space` samples each space function of a problem once on the
grid, and may rotate all of them with one transform call, such as the
orthonormal 2-D sine transform of :func:`pintopt.shifted.dst2d`. A field's
values on all levels are then one matrix product of its terms' time
coefficients with those samples, so neither function evaluates a problem
callback on the space-time grid or transforms a stack of levels:
:func:`assemble_rhs` writes the right-hand side in the samples' basis, and
:func:`error_norm` measures a solution in it, where an orthonormal
transform leaves every level's norm as it is.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class DomainValidityError(ValueError):
    """Raised when a diffusion coefficient fails to be positive on the grid."""


@dataclass(frozen=True)
class TimeSpaceGrid:
    """Uniform tensor grid on (0,1)^2 x (0, horizon).

    m1 interior points per spatial dimension (h = 1/(m1+1), m = m1^2 spatial
    unknowns), n backward-Euler steps of size tau = horizon/n.
    """

    m1: int
    n: int
    horizon: float = 1.0

    def __post_init__(self):
        if self.m1 < 1:
            raise ValueError(f"need at least one interior point, got m1={self.m1}")
        if self.n < 1:
            raise ValueError(f"need at least one time step, got n={self.n}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @classmethod
    def from_h(cls, h, n, horizon=1.0):
        """Build the grid from a spatial step h = 1/(m1+1)."""
        inv = 1.0 / h
        if abs(inv - round(inv)) > 1e-9 or round(inv) < 2:
            raise ValueError(f"1/h must be an integer >= 2, got h={h}")
        return cls(m1=int(round(inv)) - 1, n=n, horizon=horizon)

    @property
    def h(self):
        return 1.0 / (self.m1 + 1)

    @property
    def m(self):
        return self.m1 * self.m1

    @property
    def tau(self):
        return self.horizon / self.n

    def interior_points(self):
        """Meshgrid (X1, X2) of the interior nodes, shape (m1, m1), 'ij' order."""
        xs = np.arange(1, self.m1 + 1) * self.h
        return np.meshgrid(xs, xs, indexing="ij")


def stencil(grid, a):
    """The 5-point staggered-coefficient stencil of K: (center, north, west).

    Three (m1, m1) arrays over the interior nodes (i, j): K's diagonal, and
    its couplings to (i-1, j) and to (i, j-1), zero where that neighbour is
    a boundary point. K is symmetric, so the couplings to (i+1, j) and
    (i, j+1) are north[i+1, j] and west[i, j+1]. The coefficient ``a`` is
    evaluated at the midpoints of the four edges meeting each node; the
    diagonal is the sum of those four samples over h^2 and each coupling is
    minus the shared edge sample over h^2. For constant a == c this is c/h^2
    times the standard 5-point Laplacian.

    Every coefficient sample (nodes and edge midpoints, all strictly inside
    the domain) must be positive, otherwise DomainValidityError is raised.
    """
    m1, h = grid.m1, grid.h
    nodes = np.arange(1, m1 + 1) * h
    edges = (np.arange(m1 + 1) + 0.5) * h

    # edge samples: horiz[i, j] sits between nodes (i-1, j) and (i, j) in the
    # first coordinate, vert[i, j] between (i, j-1) and (i, j) in the second
    E1, N2 = np.meshgrid(edges, nodes, indexing="ij")
    horiz = np.asarray(a(E1, N2), dtype=float)
    N1, E2 = np.meshgrid(nodes, edges, indexing="ij")
    vert = np.asarray(a(N1, E2), dtype=float)
    X1, X2 = grid.interior_points()
    at_nodes = np.asarray(a(X1, X2), dtype=float)

    if not (np.all(horiz > 0) and np.all(vert > 0) and np.all(at_nodes > 0)):
        raise DomainValidityError(
            "diffusion coefficient must be positive at every grid node and "
            "edge midpoint"
        )

    center = (horiz[:-1, :] + horiz[1:, :] + vert[:, :-1] + vert[:, 1:]) / h**2
    north = np.zeros((m1, m1))
    north[1:] = -horiz[1:-1, :] / h**2
    west = np.zeros((m1, m1))
    west[:, 1:] = -vert[:, 1:-1] / h**2
    return center, north, west


def build_stiffness(bands):
    """The stiffness K of the :func:`stencil` ``bands`` as a CSR matrix, indices sorted.

    Taking the bands rather than the coefficient lets a caller that has
    already sampled the coefficient assemble K without sampling it again.
    """
    center, north, west = bands
    m1 = center.shape[0]
    # row (i, j) couples to (i-1, j), (i, j-1), itself, (i, j+1) and (i+1, j)
    south, east = np.zeros((2, m1, m1))
    south[:-1], east[:, :-1] = north[1:], west[:, 1:]
    bands = np.stack([north, west, center, east, south], axis=-1).reshape(-1, 5)
    columns = np.arange(m1 * m1)[:, None] + [-m1, -1, 0, 1, m1]
    # the stencil's zeros are the boundary couplings, which K does not store
    kept = bands != 0
    indptr = np.concatenate([[0], np.cumsum(kept.sum(axis=1))])
    return sp.csr_matrix((bands[kept], columns[kept], indptr), shape=(m1 * m1,) * 2)


def sample_space(problem, grid, transform=None):
    """The problem's space data on the grid: each space function sampled once.

    Returns a dict that maps each distinct space function of the problem
    (those of the terms of f, g, exact_y and exact_p, and y0) to its m
    samples on the interior nodes. ``transform``, when given, maps a stack
    of (m1, m1) grid functions over its last two axes (such as
    :func:`pintopt.shifted.dst2d`); it is called once, as
    ``transform(stack, out=stack)`` on the C-contiguous float stack of all
    the samples, and puts every sample in its basis.

    Gamma enters a problem's data only through the term coefficients, and
    every gamma of an example names the same space functions, so the result
    serves every gamma of one example on this grid.
    """
    fields = (problem.f, problem.g, problem.exact_y, problem.exact_p)
    functions = dict.fromkeys([problem.y0, *(fn for terms in fields for *_, fn in terms)])
    X1, X2 = grid.interior_points()
    stack = np.array([fn(X1, X2) for fn in functions], dtype=float)
    if transform is not None:
        transform(stack, out=stack)
    return dict(zip(functions, stack.reshape(len(functions), grid.m)))


def _combine(terms, times, scale, space, out):
    """Write the sum of ``terms`` at ``times``, times ``scale``, into ``out``, one row per time.

    Row k is the sum over terms of scale * coefficient * time(times[k])
    times the term's samples in ``space``: one outer product per term,
    formed together as one (times, terms) by (terms, m) matrix product.
    """
    coeffs = np.array([scale * c * time(times) for c, time, _ in terms]).reshape(-1, times.size)
    np.dot(coeffs.T, np.array([space[fn] for *_, fn in terms]).reshape(-1, out.shape[1]), out=out)


def assemble_rhs(problem, grid, space, out=None):
    """Assemble the length-2mn right-hand side of the coupled system.

    Top half, block k (k = 1..n): tau * g(., t_{k-1}).
    Bottom half, block k: -sqrt(gamma) * (tau * f(., t_k) + [k == 1] y0).

    ``space`` is the :func:`sample_space` of this example on ``grid``, and
    the right-hand side comes out in its basis. Each half is the time
    coefficients of its field's terms times their space samples, written
    straight into the half; the initial state is then folded into the first
    block of the bottom half.

    The right-hand side is written into ``out``, a float64 vector of length
    2mn, and returned; without it, into a fresh array.
    """
    n, tau = grid.n, grid.tau
    times = np.arange(n + 1) * tau
    if out is None:
        out = np.empty(2 * grid.m * n)
    elif out.shape != (2 * grid.m * n,) or out.dtype != float:
        raise ValueError(f"out must be a float64 vector of length {2 * grid.m * n}")
    rhs = out.reshape(2, n, grid.m)
    root = np.sqrt(problem.gamma)
    _combine(problem.g, times[:-1], tau, space, rhs[0])
    _combine(problem.f, times[1:], -root * tau, space, rhs[1])
    rhs[1, 0] -= root * space[problem.y0]
    return out


def error_norm(x, problem, grid, space, out=None):
    """Worst-over-levels discrete L2 error of a solution of the coupled system.

    ``x`` is the length-2mn solution as ``gmres_solve`` returns it, laid out
    as :func:`assemble_rhs` lays out the right-hand side: sqrt(gamma) times
    the state at t_1..t_n, then the adjoint at t_0..t_{n-1}, in the basis of
    ``space``, the :func:`sample_space` of this example on ``grid``. The
    error is measured in that basis, with the same per-level dot products:
    each half's exact solution, scaled as the half is, is formed from
    ``space`` and taken from the half, and the state half's norms are
    divided by gamma. The 2-D sine transform is orthonormal, so in the sine
    basis the norms are those of the grid basis up to round-off. The
    difference is written into ``out``, a float64 vector of x's length that
    shares no memory with it, when given; else into a fresh array. So ``x``
    itself is left as it is.

    Each of the 2n stored fields is measured on its own — the result is the
    largest single-level error, where the discrete L2 norm of a grid
    function is h times its Euclidean norm. (Combining the paired y/p
    levels euclideanly instead would overshoot the benchmark error columns
    by ~30% where the two parts are comparable; the per-level maximum
    reproduces them to three digits.)
    """
    times = np.arange(grid.n + 1) * grid.tau
    if out is None:
        out = np.empty(np.shape(x))
    elif out.shape != np.shape(x) or out.dtype != float or np.shares_memory(out, x):
        raise ValueError("out must be a float64 array of x's shape, sharing no memory with x")
    halves, diff = np.reshape(x, (2, grid.n, grid.m)), out.reshape(2, grid.n, grid.m)
    worst = 0.0
    for half, terms, levels, scale in (
        (0, problem.exact_y, times[1:], np.sqrt(problem.gamma)),
        (1, problem.exact_p, times[:-1], 1.0),
    ):
        _combine(terms, levels, -scale, space, diff[half])
        diff[half] += halves[half]
        # one dot product per level keeps the sums those of the level loop
        worst = max(worst, max(float(e @ e) for e in diff[half]) / scale**2)
    return grid.h * np.sqrt(worst)
