"""Test references for the batched shifted-solve interface.

:class:`DenseShiftedSolver` has the ``factor(sigmas) -> solve`` interface of
the backends in :mod:`pintopt.shifted`, but inverts the dense shifted
matrices (sigma M + tau K) explicitly. It is exact for any mass/stiffness
pair, so the tests use it on small problems to check the fast backends and
the preconditioner, including with a general (non-identity) mass matrix that
the solver itself never sees.

:class:`PhysicalDstSolver` solves the constant-diffusion system in the
physical basis, with the 5-point stiffness K itself: it wraps the
production sine-basis solve of :class:`pintopt.shifted.DstShiftedSolver`
in one :func:`pintopt.shifted.dst2d` before and one after, K = S Lambda S.

:func:`solve_sine_basis` solves the whole all-at-once system exactly when
K is a diagonal, as it is in the sine basis. It is the algebraic-error
oracle for example 1: its solution is the exact discrete solution, so its
error is the discretization error alone, independent of GMRES.
"""

import numpy as np

from pintopt.shifted import DstShiftedSolver, dst2d


def into(result, out):
    """The solve contract's ``out``: ``result`` copied into it, or ``result`` itself."""
    if out is None:
        return result
    out[...] = result
    return out


class DenseShiftedSolver:
    """Dense solves of (sigma M + tau K) for arbitrary M, K, by explicit inverses."""

    def __init__(self, mass, stiffness, tau):
        self.mass = np.asarray(
            mass.toarray() if hasattr(mass, "toarray") else mass, dtype=float
        )
        self.stiffness = np.asarray(
            stiffness.toarray() if hasattr(stiffness, "toarray") else stiffness,
            dtype=float,
        )
        self.tau = float(tau)

    def factor(self, sigmas):
        shifted = np.asarray(sigmas)[:, None, None] * self.mass + self.tau * self.stiffness
        inverses = np.linalg.inv(shifted)

        def solve(rhs, out=None):
            return into(np.einsum("kpq,qlk->plk", inverses, rhs, order="C"), out)

        return solve


class PhysicalDstSolver:
    """(sigma I + tau K) z = r for the 5-point K: dst2d, the diagonal solve, dst2d."""

    def __init__(self, grid, diffusion=1.0):
        self.grid = grid
        self.diagonal = DstShiftedSolver(grid, diffusion)

    def factor(self, sigmas):
        m1 = self.grid.m1
        solve_diagonal = self.diagonal.factor(sigmas)

        def rotate(v):
            # dst2d transforms the last two axes, so the batch goes first
            grids = v.reshape(m1, m1, -1).transpose(2, 0, 1)
            # the solve contract takes and returns C-contiguous stacks
            return np.ascontiguousarray(dst2d(grids).transpose(1, 2, 0).reshape(v.shape))

        def solve(rhs, out=None):
            return into(rotate(solve_diagonal(rotate(rhs))), out)

        return solve


def spd_tridiagonal_solve(diag, off, rhs):
    """Thomas sweeps for symmetric positive definite tridiagonal systems.

    Column l of the (n, k) ``rhs`` is solved with the matrix whose diagonal
    is column l of ``diag`` and whose two off-diagonals are the constant
    ``off[l]``. Positive definiteness makes the elimination stable without
    pivoting.
    """
    d = np.array(diag, dtype=float)
    x = np.array(rhs, dtype=float)
    for j in range(1, len(d)):
        factor = off / d[j - 1]
        d[j] -= factor * off
        x[j] -= factor * x[j - 1]
    x[-1] /= d[-1]
    for j in range(len(d) - 2, -1, -1):
        x[j] = (x[j] - off * x[j + 1]) / d[j]
    return x


def solve_sine_basis(grid, lambdas, gamma, rhs):
    """Exact solution of the all-at-once system with the diagonal stiffness ``lambdas``.

    With K = diag(lambdas) the system decouples into one 2n x 2n system per
    mode lambda, [[alpha I, T'], [-T, alpha I]] [u; w] = [f; g], where
    T = B + tau lambda I is lower bidiagonal with mu = 1 + tau lambda on the
    diagonal and -1 below it. Eliminating either half leaves two SPD
    tridiagonal systems, (alpha^2 + T'T) u = alpha f - T' g and
    (alpha^2 + T T') w = alpha g + T f, whose off-diagonals are -mu; both
    are solved by Thomas sweeps over all modes at once. ``rhs`` is laid out
    as the operator's, time-major within each half.
    """
    n, tau = grid.n, grid.tau
    alpha = tau / np.sqrt(gamma)
    f, g = np.asarray(rhs, dtype=float).reshape(2, n, -1)
    mu = 1.0 + tau * np.asarray(lambdas, dtype=float)
    t_f = mu * f  # T f
    t_f[1:] -= f[:-1]
    tt_g = mu * g  # T' g
    tt_g[:-1] -= g[1:]
    # T'T has mu^2 + 1 on its diagonal but mu^2 last, T T' but mu^2 first
    diag = np.broadcast_to(alpha**2 + mu**2 + 1.0, f.shape)
    for_u, for_w = diag.copy(), diag.copy()
    for_u[-1] -= 1.0
    for_w[0] -= 1.0
    u = spd_tridiagonal_solve(for_u, -mu, alpha * f - tt_g)
    w = spd_tridiagonal_solve(for_w, -mu, alpha * g + t_f)
    return np.concatenate([u, w]).reshape(-1)
