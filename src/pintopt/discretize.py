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
the initial state folded into the first block.
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


def assemble_rhs(problem, grid, transform=None):
    """Assemble the length-2mn right-hand side of the coupled system.

    Top half, block k (k = 1..n): tau * g(., t_{k-1}).
    Bottom half, block k: -sqrt(gamma) * (tau * f(., t_k) + [k == 1] y0).

    The data are sampled once on all levels, with the times shaped (n, 1, 1)
    against the (m1, m1) interior grid. ``transform``, when given, maps a
    stack of (m1, m1) grid functions over its last two axes (such as
    :func:`pintopt.shifted.dst2d`). It is called once, as
    ``transform(rhs, out=rhs)`` on the whole C-contiguous (2, n, m1, m1)
    float stack, and must write its result into ``out``, which is the
    input itself; the right-hand side comes out in its basis.
    """
    X1, X2 = grid.interior_points()
    n, tau = grid.n, grid.tau
    levels = np.arange(n)[:, None, None]
    rhs = np.empty((2, n, grid.m1, grid.m1))
    rhs[0] = tau * np.asarray(problem.g(X1, X2, levels * tau), dtype=float)
    rhs[1] = tau * np.asarray(problem.f(X1, X2, (levels + 1) * tau), dtype=float)
    rhs[1, 0] += np.asarray(problem.y0(X1, X2), dtype=float)
    rhs[1] *= -np.sqrt(problem.gamma)
    if transform is not None:
        transform(rhs, out=rhs)
    return rhs.reshape(-1)


def error_norm(y_approx, p_approx, problem, grid, transform=None):
    """Worst-over-levels discrete L2 error of the state/adjoint pair.

    The state is compared at t_1..t_n and the adjoint at t_0..t_{n-1} (the
    levels actually stored). Each of the 2n stored fields is measured on
    its own — the result is the largest single-level error, where the
    discrete L2 norm of a grid function is h times its Euclidean norm.
    (Combining the paired y/p levels euclideanly instead would overshoot
    the benchmark error columns by ~30% where the two parts are comparable;
    the per-level maximum reproduces them to three digits.)

    The exact solutions are evaluated once on all levels, with the times
    shaped (n, 1, 1). ``transform``, when given, carries each of the state
    and the adjoint, as a stack of n (m1, m1) grid functions, back to grid
    values before they are compared: one call each, into a fresh array, as
    the approximations may be views of a solution the caller still reads.
    """
    if problem.exact_y is None or problem.exact_p is None:
        raise ValueError("problem carries no exact solution to compare against")
    X1, X2 = grid.interior_points()
    m1, n, tau = grid.m1, grid.n, grid.tau
    levels = np.arange(n)[:, None, None]
    worst = 0.0
    for approx, exact, times in (
        (y_approx, problem.exact_y, (levels + 1) * tau),
        (p_approx, problem.exact_p, levels * tau),
    ):
        approx = np.asarray(approx).reshape(n, m1, m1)
        if transform is not None:
            approx = transform(approx)
        err = (approx - exact(X1, X2, times)).reshape(n, -1)
        # one dot product per level keeps the sums those of the level loop
        worst = max(worst, *(float(e @ e) for e in err))
    return grid.h * np.sqrt(worst)
