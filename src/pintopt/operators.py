"""Matrix-free application of the all-at-once saddle-point operator.

After eliminating the control and scaling the state unknowns by
sqrt(gamma), the discrete optimality system reads

    [ alpha I   T'      ] [ sqrt(gamma) y ]   [ rhs_top ]
    [ -T        alpha I ] [ p             ] = [ rhs_bot ]

with alpha = tau / sqrt(gamma) and the space-time evolution matrix
T = B x I + tau I x K, where B is the backward-difference bidiagonal and K
the stiffness matrix. The operator applies the full 2mn x 2mn matrix on a
(2, n, m) view of its input without ever forming Kronecker products: T' w
and then T u go through one (n, m) work array that the operator keeps (or
that its caller lends it, so that operators built one after the other for
one grid share it), and the two halves of the result are written straight
into the output.

K is either an (m, m) matrix, applied by one sparse product per time
level, or a diagonal given as its length-m vector of entries, such as the
eigenvalues Lambda of the sine basis, applied by one broadcast product over
the time levels.
"""

import numpy as np


class AllAtOnceOperator:
    """Applies the coupled space-time system matrix block by block."""

    def __init__(self, grid, stiffness, gamma, work=None):
        if not gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {gamma}")
        m = grid.m
        if stiffness.shape not in ((m,), (m, m)):
            raise ValueError(
                f"stiffness must have shape ({m},) for a diagonal or ({m}, {m}) "
                f"on this grid, got {stiffness.shape}"
            )
        self.grid = grid
        self.stiffness = stiffness
        self.diagonal = stiffness.ndim == 1
        self.alpha = grid.tau / np.sqrt(gamma)
        self.size = 2 * grid.m * grid.n
        # T' w, then T u; a lent work array is only ever overwritten
        if work is None:
            work = np.empty((grid.n, m))
        elif work.shape != (grid.n, m) or work.dtype != float:
            raise ValueError(f"work must be a float64 array of shape {(grid.n, m)}")
        self._work = work

    def matvec(self, x, out=None):
        """Apply the full 2mn x 2mn saddle-point matrix to ``x``.

        The result is written into ``out``, a float64 vector of length 2mn
        that shares no memory with ``x``, and returned; without ``out`` it is
        a fresh array. The work array makes the operator non-reentrant, and
        so do operators that share one: only one of them may run at a time.
        """
        x = np.asarray(x)
        if x.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {x.shape}")
        if out is None:
            out = np.empty(self.size)
        elif out.shape != (self.size,) or out.dtype != float:
            raise ValueError(f"out must be a float64 vector of length {self.size}")
        elif np.shares_memory(out, x):
            raise ValueError("out must not share memory with the input")
        n, m = self.grid.n, self.grid.m
        u, w = x.reshape(2, n, m)
        top, bottom = out.reshape(2, n, m)
        work = self._work
        # T' w: the tau K product plus the identity, less the next time level
        self._scaled_stiffness(w, work)
        work += w
        work[:-1] -= w[1:]
        np.multiply(self.alpha, u, out=top)
        top += work
        # T u: the same product plus the identity, less the previous level
        self._scaled_stiffness(u, work)
        work += u
        work[1:] -= u[:-1]
        np.multiply(self.alpha, w, out=bottom)
        bottom -= work
        return out

    def _scaled_stiffness(self, v, out):
        """tau K applied to each time level of the (n, m) array v, into out."""
        if self.diagonal:
            # (v * Lambda) * tau, in the order of the product with diag(Lambda)
            np.multiply(v, self.stiffness, out=out)
            out *= self.grid.tau
        else:
            for level, row in zip(v, out):
                np.multiply(self.grid.tau, self.stiffness.dot(level), out=row)
