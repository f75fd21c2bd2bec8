"""Inner solvers for complex-shifted spatial systems (sigma M + tau K) z = r.

Applying the rotated-block-diagonal preconditioner reduces, after the time
transform, to independent spatial solves whose complex shifts sigma come
from the eigenvalues of the corner-perturbed difference matrix. Two
interchangeable backends run in the solver:

* :class:`DstShiftedSolver` - the constant-diffusion case in the sine
  basis. The orthonormal discrete sine transform :func:`dst2d` diagonalizes
  the 5-point Laplacian, K = S Lambda S, so a cell with constant diffusion
  is solved entirely on S-transformed vectors (``pintopt.bench.solve_cell``
  rotates the right-hand side once and the solution back once). There K is
  the diagonal Lambda, which the all-at-once operator takes as the vector
  ``laplacian_eigs``, and each shifted solve is one pointwise product with
  stored reciprocals; no transform runs inside the Krylov loop.
* the geometric multigrid backend in :mod:`pintopt.multigrid`, for any
  positive coefficient, in the physical basis.

The tests add a dense oracle that inverts (sigma M + tau K) explicitly for
any mass/stiffness pair, and a physical-basis sine-transform solve that
wraps :class:`DstShiftedSolver` in two :func:`dst2d` calls
(``tests/dense_backend.py``).

Each backend exposes one batched entry point, ``factor(sigmas) -> solve``:
it prepares every shift at once, and ``solve(rhs)`` takes a complex,
C-contiguous ``(m, l, k)`` stack, positions first, and solves
``rhs[:, :, i]`` with shift ``sigmas[i]``, k = len(sigmas). It returns a
fresh C-contiguous array of that shape; no backend takes another layout.
"""

import numpy as np
import scipy.fft


def dst2d(v):
    """Orthonormal 2D sine transform over the last two axes of ``v``.

    Applies S along each of the two axes, where S is the DST-I matrix with
    entries sqrt(2/(m1+1)) * sin(j*k*pi/(m1+1)); leading axes are a batch.
    S is involutory, so the transform is its own inverse. Complex input has
    its real and imaginary parts transformed separately.
    """
    return scipy.fft.dstn(v, type=1, norm="ortho", axes=(-2, -1))


class DstShiftedSolver:
    """Solves (sigma I + tau Lambda), the constant-diffusion system in the sine basis.

    For diffusion coefficient a = c the stiffness is c times the 5-point
    Laplacian with mesh width h = 1/(m1+1), and the orthonormal DST-I
    diagonalizes it: K = S Lambda S, where ``laplacian_eigs`` holds Lambda,
    c (4 - 2 cos(i pi h) - 2 cos(j pi h)) / h^2, as a length-m vector in
    the row-major order of the grid functions. The right-hand sides and
    solutions of ``solve`` are S-transformed vectors, so a batched solve is
    one pointwise product with the reciprocal of the (m, 1, shifts)
    denominator, which ``factor`` stores once. A physical-basis solve is
    dst2d, this solve, dst2d.
    """

    def __init__(self, grid, diffusion=1.0):
        if diffusion <= 0:
            raise ValueError(f"diffusion constant must be positive, got {diffusion}")
        self.grid = grid
        m1, h = grid.m1, grid.h
        theta = 2.0 - 2.0 * np.cos(np.pi * h * np.arange(1, m1 + 1))
        self.laplacian_eigs = (diffusion * (theta[:, None] + theta[None, :]) / h**2).ravel()

    def factor(self, sigmas):
        denom = self.grid.tau * self.laplacian_eigs[:, None, None] + np.asarray(sigmas)
        if np.min(np.abs(denom)) == 0.0:
            raise ValueError("a shift makes the system singular")
        inverse = 1.0 / denom

        def solve(rhs):
            return rhs * inverse

        return solve

