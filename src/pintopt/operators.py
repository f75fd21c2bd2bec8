"""Matrix-free application of the all-at-once saddle-point operator.

After eliminating the control and scaling the state unknowns by
sqrt(gamma), the discrete optimality system reads

    [ alpha I   T'      ] [ sqrt(gamma) y ]   [ rhs_top ]
    [ -T        alpha I ] [ p             ] = [ rhs_bot ]

with alpha = tau / sqrt(gamma) and the space-time evolution matrix
T = B x I + tau I x K, where B is the backward-difference bidiagonal and K
the stiffness matrix. The operator applies the full 2mn x 2mn matrix on a
(2, n, m) view of its input without ever forming Kronecker products: T u
and T' w share one evolution buffer, and the two halves of the result are
written into one fresh output.
"""

import numpy as np


class AllAtOnceOperator:
    """Applies the coupled space-time system matrix block by block."""

    def __init__(self, grid, stiffness, gamma):
        if not gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {gamma}")
        self.grid = grid
        self.stiffness = stiffness
        self.alpha = grid.tau / np.sqrt(gamma)
        self.size = 2 * grid.m * grid.n

    def matvec(self, x):
        """Apply the full 2mn x 2mn saddle-point matrix; returns a fresh array."""
        x = np.asarray(x)
        if x.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {x.shape}")
        n, m = self.grid.n, self.grid.m
        X = x.reshape(2, n, m)
        # evo[0] = T u and evo[1] = T' w: the same tau K product plus identity,
        # then the backward difference or its transpose in time
        evo = np.empty((2, n, m))
        for half in range(2):
            np.multiply(self.grid.tau, self.stiffness.dot(X[half].T).T, out=evo[half])
        evo += X
        evo[0, 1:] -= X[0, :-1]
        evo[1, :-1] -= X[1, 1:]
        out = np.empty((2, n, m))
        np.multiply(self.alpha, X[0], out=out[0])
        out[0] += evo[1]
        np.multiply(self.alpha, X[1], out=out[1])
        out[1] -= evo[0]
        return out.reshape(-1)
