"""Inner solvers for complex-shifted spatial systems (sigma M + tau K) z = r.

Applying the rotated-block-diagonal preconditioner reduces, after the time
transform, to independent spatial solves whose complex shifts sigma come
from the eigenvalues of the corner-perturbed difference matrix. Two
interchangeable backends run in the solver:

* :class:`DstShiftedSolver` - direct diagonalization by the orthonormal
  discrete sine transform :func:`dst2d`; exact, but only valid for a
  constant diffusion coefficient (identity mass matrix, 5-point Laplacian).
* the geometric multigrid backend in :mod:`pintopt.multigrid`, for any
  positive coefficient.

The tests add a third with the same interface, a dense oracle that inverts
(sigma M + tau K) explicitly for any mass/stiffness pair
(``tests/dense_backend.py``).

Each backend exposes one batched entry point, ``factor(sigmas) -> solve``:
it prepares every shift at once, and ``solve(rhs)`` takes a complex array
whose last two axes are ``(len(sigmas), m)`` and solves row k of that axis
pair with shift ``sigmas[k]``, returning an array of the same shape.
"""

import numpy as np
import scipy.fft


def dst2d(v, overwrite_x=False):
    """Orthonormal 2D sine transform over the last two axes of ``v``.

    Applies S along each of the two axes, where S is the DST-I matrix with
    entries sqrt(2/(m1+1)) * sin(j*k*pi/(m1+1)); leading axes are a batch.
    S is involutory, so the transform is its own inverse. Complex input has
    its real and imaginary parts transformed separately. With
    ``overwrite_x`` the transform may run in the memory of ``v``, which is
    then destroyed.
    """
    return scipy.fft.dstn(v, type=1, norm="ortho", axes=(-2, -1), overwrite_x=overwrite_x)


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

        # dst2d is looked up in the module at call time, so a wrapper set on
        # pintopt.shifted.dst2d (the benchmark tracer's seam) sees every call
        def solve(rhs):
            grids = dst2d(rhs.reshape(*rhs.shape[:-1], m1, m1))
            grids *= inverse
            return dst2d(grids, overwrite_x=True).reshape(rhs.shape)

        return solve

