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
"""

import numpy as np

from pintopt.shifted import DstShiftedSolver, dst2d


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

        def solve(rhs):
            return np.einsum("kpq,qlk->plk", inverses, rhs, order="C")

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

        return lambda rhs: rotate(solve_diagonal(rotate(rhs)))
