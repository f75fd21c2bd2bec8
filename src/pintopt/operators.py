"""Matrix-free application of the all-at-once saddle-point operator.

After eliminating the control and scaling the state unknowns by
sqrt(gamma), the discrete optimality system reads

    [ alpha I   T'      ] [ sqrt(gamma) y ]   [ rhs_top ]
    [ -T        alpha I ] [ p             ] = [ rhs_bot ]

with alpha = tau / sqrt(gamma) and the space-time evolution matrix
T = B x I + tau I x K, where B is the backward-difference bidiagonal and K
the stiffness matrix. This module applies T, T' and the full 2mn x 2mn
operator without ever forming Kronecker products.
"""

import numpy as np


class AllAtOnceOperator:
    """Applies the coupled space-time system matrix block by block."""

    def __init__(self, grid, stiffness, gamma):
        if not gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {gamma}")
        self.grid = grid
        self.stiffness = stiffness
        self.gamma = float(gamma)
        self.alpha = grid.tau / np.sqrt(gamma)
        self.size = 2 * grid.m * grid.n

    def _blocks(self, v):
        n, m = self.grid.n, self.grid.m
        v = np.asarray(v)
        if v.shape != (n * m,):
            raise ValueError(f"expected a vector of length {n * m}, got {v.shape}")
        return v.reshape(n, m)

    def apply_evolution(self, v):
        """(B x I + tau I x K) v: backward difference in time, stiffness in space."""
        V = self._blocks(v)
        out = V + self.grid.tau * self.stiffness.dot(V.T).T
        out[1:] -= V[:-1]
        return out.ravel()

    def apply_evolution_t(self, v):
        """Transpose of :meth:`apply_evolution`."""
        V = self._blocks(v)
        out = V + self.grid.tau * self.stiffness.dot(V.T).T
        out[:-1] -= V[1:]
        return out.ravel()

    def matvec(self, x):
        """Apply the full 2mn x 2mn saddle-point matrix."""
        x = np.asarray(x)
        if x.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {x.shape}")
        half = self.size // 2
        u, w = x[:half], x[half:]
        top = self.alpha * u + self.apply_evolution_t(w)
        bot = -self.apply_evolution(u) + self.alpha * w
        return np.concatenate([top, bot])
