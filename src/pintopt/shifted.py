"""Inner solvers for complex-shifted spatial systems (sigma M + tau K) z = r.

Applying the rotated-block-diagonal preconditioner reduces, after the time
transform, to independent spatial solves whose complex shifts sigma come
from the eigenvalues of the corner-perturbed difference matrix. Three
interchangeable backends are provided:

* :class:`DstShiftedSolver` - direct diagonalization by the orthonormal
  discrete sine transform; exact, but only valid for the constant unit
  diffusion coefficient (identity mass matrix, 5-point Laplacian).
* :class:`DenseShiftedSolver` - one batched inversion of the dense shifted
  matrices; exact for any mass/stiffness pair, meant for small validation
  problems.
* the geometric multigrid backend in :mod:`pintopt.multigrid`.

Each backend exposes one batched entry point, ``factor(sigmas) -> solve``:
it prepares every shift at once, and ``solve(rhs)`` takes a complex array
whose last two axes are ``(len(sigmas), m)`` and solves row k of that axis
pair with shift ``sigmas[k]``, returning an array of the same shape.
"""

import numpy as np

from .transforms import dst2d


class DstShiftedSolver:
    """Sine-transform diagonalization of (sigma I + tau K), constant diffusion.

    For diffusion coefficient a = c the stiffness is c times the 5-point
    Laplacian with mesh width h = 1/(m1+1), whose eigenvalues are
    c (4 - 2 cos(i pi h) - 2 cos(j pi h)) / h^2; the orthonormal DST-I
    diagonalizes it, so a batched solve costs two transforms of the whole
    stack and one pointwise product with the reciprocal of a (shifts, m1, m1)
    denominator, which ``factor`` stores once.
    """

    def __init__(self, grid, diffusion=1.0):
        if diffusion <= 0:
            raise ValueError(f"diffusion constant must be positive, got {diffusion}")
        self.grid = grid
        m1, h = grid.m1, grid.h
        theta = 2.0 - 2.0 * np.cos(np.pi * h * np.arange(1, m1 + 1))
        self.laplacian_eigs = diffusion * (theta[:, None] + theta[None, :]) / h**2

    def factor(self, sigmas):
        m1 = self.grid.m1
        denom = np.asarray(sigmas)[:, None, None] + self.grid.tau * self.laplacian_eigs
        if np.min(np.abs(denom)) == 0.0:
            raise ValueError("a shift makes the system singular")
        inverse = 1.0 / denom

        def solve(rhs):
            grids = dst2d(rhs.reshape(*rhs.shape[:-1], m1, m1))
            grids *= inverse
            return dst2d(grids, overwrite_x=True).reshape(rhs.shape)

        return solve


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
