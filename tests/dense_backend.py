"""Dense test oracle for the batched shifted-solve interface.

:class:`DenseShiftedSolver` has the ``factor(sigmas) -> solve`` interface of
the backends in :mod:`pintopt.shifted`, but inverts the dense shifted
matrices (sigma M + tau K) explicitly. It is exact for any mass/stiffness
pair, so the tests use it on small problems to check the fast backends and
the preconditioner, including with a general (non-identity) mass matrix that
the solver itself never sees.
"""

import numpy as np


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
            return np.einsum("kpq,...kq->...kp", inverses, rhs)

        return solve
