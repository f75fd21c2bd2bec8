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

:func:`dst2d` applies S as two real matrix products per grid, S V S, on
blocks of grids, rather than as a fast transform: for the mesh sizes the
solver runs, the O(m1^3) products cost less than an FFT-based DST-I (the
same trade the time transform of :mod:`pintopt.rbd` makes). One block's
intermediate fits in ``BLOCK_BYTES`` and is reused across the blocks, and
the result can overwrite the input.

The tests add a dense oracle that inverts (sigma M + tau K) explicitly for
any mass/stiffness pair, and a physical-basis sine-transform solve that
wraps :class:`DstShiftedSolver` in two :func:`dst2d` calls
(``tests/dense_backend.py``).

Each backend exposes one batched entry point, ``factor(sigmas) -> solve``:
it prepares every shift at once, and ``solve(rhs, out=None)`` takes a
complex, C-contiguous ``(m, l, k)`` stack, positions first, and solves
``rhs[:, :, i]`` with shift ``sigmas[i]``, k = len(sigmas). The solution is
written into ``out``, a C-contiguous complex array of that shape, and
returned; ``out`` may be ``rhs`` itself, and without it the solution is a
fresh array. No backend takes another layout.

Every solve that ``factor(sigmas)`` returns owns its arrays (the
reciprocals of the shifted diagonal, a multigrid solve's V-cycle), so two
solves of one backend may be alive and used in any order. The two
backends of the solver also let a caller done with a solve hand it back
as ``factor(sigmas, reuse=solve)`` (the dense oracle does not): the
returned solve is ``solve`` itself, refilled in place for the new shifts
where its arrays fit them, so a sweep over shifts of one size allocates
them once. The old shifts are gone from it, and the caller must not use
it for them again.
"""

import numpy as np

# bytes of the one intermediate dst2d keeps per block of grids: 8 real grids
# at m1 = 63, so the block stays in cache between its two products
BLOCK_BYTES = 256 * 1024


def dst2d(v, out=None):
    """Orthonormal 2D sine transform over the last two axes of ``v``.

    Each (m1, m1) grid V becomes S V S, where S is the DST-I matrix with
    entries sqrt(2/(m1+1)) * sin(j*k*pi/(m1+1)); leading axes are a batch.
    S is symmetric and involutory, so the transform is its own inverse. S
    is built on each call, its angles reduced mod 2 pi in integers,
    (j k) mod 2 (m1+1), so that large products j k lose no digits. The
    grids go through in blocks: one matrix product along the last axis
    writes a block's V S into a work buffer of at most ``BLOCK_BYTES``,
    reused from block to block, and a second, batched, writes S (V S) into
    ``out``. Complex input goes through complex products with the real S.

    ``out``, when given, receives the result and is returned. It must be a
    C-contiguous array of ``v``'s shape and of the result's dtype (float64,
    or complex128 for complex ``v``). It may be ``v`` itself, which is then
    transformed in place; no other overlap with ``v`` is supported. Without
    it the result is a fresh C-contiguous array. A ValueError is raised
    unless the last two axes are square and ``out`` fits.
    """
    v = np.asarray(v)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError(f"dst2d transforms square grids over the last two axes, got {v.shape}")
    dtype = np.result_type(v.dtype, float)
    if out is None:
        out = np.empty(v.shape, dtype)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == v.shape
        and out.dtype == dtype
        and out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous {dtype} array of shape {v.shape}")
    m1 = v.shape[-1]
    if out.size == 0:
        return out
    j = np.arange(1, m1 + 1)
    angle = (np.pi / (m1 + 1)) * (np.outer(j, j) % (2 * (m1 + 1)))
    s = (np.sqrt(2.0 / (m1 + 1)) * np.sin(angle)).astype(dtype, copy=False)
    grids = v.reshape(-1, m1, m1)
    results = out.reshape(-1, m1, m1)
    block = max(1, BLOCK_BYTES // (m1 * m1 * out.itemsize))
    work = np.empty((min(block, len(grids)), m1, m1), dtype)
    for start in range(0, len(grids), block):
        part = work[: min(block, len(grids) - start)]
        np.matmul(grids[start : start + block].reshape(-1, m1), s, out=part.reshape(-1, m1))
        np.matmul(s, part, out=results[start : start + block])
    return out


class DstShiftedSolver:
    """Solves (sigma I + tau Lambda), the constant-diffusion system in the sine basis.

    For diffusion coefficient a = c the stiffness is c times the 5-point
    Laplacian with mesh width h = 1/(m1+1), and the orthonormal DST-I
    diagonalizes it: K = S Lambda S, where ``laplacian_eigs`` holds Lambda,
    c (4 - 2 cos(i pi h) - 2 cos(j pi h)) / h^2, as a length-m vector in
    the row-major order of the grid functions. The right-hand sides and
    solutions of ``solve`` are S-transformed vectors, so a batched solve is
    one pointwise product with the reciprocal of the (m, 1, shifts)
    denominator, which ``factor`` stores once, in the array of ``reuse``
    when it has that shape and dtype. A physical-basis solve is dst2d, this
    solve, dst2d.
    """

    def __init__(self, grid, diffusion=1.0):
        if diffusion <= 0:
            raise ValueError(f"diffusion constant must be positive, got {diffusion}")
        self.grid = grid
        m1, h = grid.m1, grid.h
        theta = 2.0 - 2.0 * np.cos(np.pi * h * np.arange(1, m1 + 1))
        self.laplacian_eigs = (diffusion * (theta[:, None] + theta[None, :]) / h**2).ravel()

    def factor(self, sigmas, reuse=None):
        sigmas = np.asarray(sigmas)
        scaled = self.grid.tau * self.laplacian_eigs[:, None, None]
        shape, dtype = (scaled.size, 1, sigmas.size), np.result_type(scaled, sigmas)
        solve = _DstSolve() if reuse is None else reuse
        if solve.inverse is None or solve.inverse.shape != shape or solve.inverse.dtype != dtype:
            solve.inverse = np.empty(shape, dtype)
        # the denominator first, in place, then its reciprocal
        inverse = np.add(scaled, sigmas, out=solve.inverse)
        if not inverse.all():
            raise ValueError("a shift makes the system singular")
        np.divide(1.0, inverse, out=inverse)
        return solve


class _DstSolve:
    """The solve of :meth:`DstShiftedSolver.factor`: one product with ``inverse``."""

    def __init__(self):
        self.inverse = None

    def __call__(self, rhs, out=None):
        count = self.inverse.shape[-1]
        if rhs.shape[-1] != count:
            raise ValueError(f"expected {count} shifts on the last axis, got {rhs.shape[-1]}")
        return np.multiply(rhs, self.inverse, out=out)

