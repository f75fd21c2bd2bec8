"""Geometric multigrid for complex-shifted variable-coefficient systems.

Solves (sigma I + tau K_h) z = r approximately with V-cycles when the
diffusion coefficient varies in space and the sine-transform backend does
not apply. :class:`MgShiftedSolver` is the backend the preconditioner sees:
its ``factor(sigmas) -> solve`` runs each V-cycle once on the whole stack
of right-hand sides, every shift together, with no matrix or factorization
per shift. Components:

* stencil bands: each level keeps the diagonal of tau K and its couplings
  to (i-1, j) and to (i, j-1), from :func:`pintopt.discretize.stencil` on
  that level's grid, so the coarse operators are re-discretized from the
  same coefficient. K is symmetric, so the couplings to (i+1, j) and
  (i, j+1) are the same bands shifted by one point;
* ``factor`` adds each shift to the diagonal of every level, one reciprocal
  column per shift, and keeps no other matrix; a shift that zeroes any
  level's shifted diagonal raises the sine-transform backend's "a shift
  makes the system singular" ValueError. Each stencil is stored once and
  broadcast over every shift and right-hand side, so one factored solve
  serves any number of right-hand sides;
* smoother: lexicographic forward Gauss-Seidel, one pre-sweep from zero
  and one post-sweep. Point (i, j) needs the new values at (i-1, j) and
  (i, j-1), both on the anti-diagonal i + j = d - 1, and the old values at
  (i+1, j) and (i, j+1), both on d + 1. Sweeping d = 0, 1, ... updates a
  whole anti-diagonal, for every shift and every right-hand side, in one
  vector operation and gives exactly the lexicographic values;
* residual: the sweep from zero solves the lower triangle L of A = L + U
  exactly, so right after it b - A z = -U z, the upper couplings applied to
  z, one sparse product with U in skewed order, like P and R; the cycle
  restricts U z and subtracts the prolonged correction;
* transfers: bilinear prolongation P, a sparse matrix from the coarse
  level's skewed order to this level's, and full-weighting restriction
  R = P'/4, the variational partner of bilinear interpolation. Coarse
  point (I, J) gives weight w[a] w[b] to fine point (2I+a, 2J+b), with
  w = (1/2, 1, 1/2).

Fields are complex (positions, batch) arrays: batch column l k + j holds the
l-th right-hand side of shift j, and real weights multiply the interleaved
real/imaginary view, (positions, 2 batch). This is the solve's (m, l, k)
stack with its last two axes merged, so a solve only reshapes it. Every
level stores its points skewed: anti-diagonal d is one contiguous run of
positions, between two zero positions that stand for the Dirichlet
boundary, so each neighbor of a run is a slice of the run before or after
it. A solve scatters its right-hand sides into skewed order once and
gathers the result once; the transfers map skewed order to skewed order,
so the V-cycle never converts.

Nothing in the hierarchy depends on the shifts, so it is built once per
(grid, coefficient) pair: ``_hierarchy`` keeps the last one, and the cells
of a sweep over gamma that run in one process, which pass the same
coefficient object, each get their own solver on the same levels. The
cache key is the (grid, coefficient) pair, so the coefficient must be a
pure function of position; an unhashable one is built afresh for every
solver. Solvers share only the levels, which no solve writes; each solve
works in arrays of its own.

The fine grid needs m1 = 2^l - 1 points per dimension, so the hierarchy
halves it down to the one-point grid: 63, 31, 15, 7, 3, 1. There one sweep
from zero is the exact solve, so the coarsest level runs the same sweep as
every other level and stops. Prepared shifts and one V(1,1) cycle per solve
make one fixed linear map, so the solve is safe inside non-flexible GMRES.
"""

import functools

import numpy as np
import scipy.sparse as sp

from .discretize import TimeSpaceGrid, stencil


class Level:
    """One grid of the hierarchy: stencil bands of tau K, skewed order, transfers.

    ``upper`` is U, the strict upper triangle of tau K, in skewed order.
    ``coarse`` is the next coarser level, from and to which ``prolong`` and
    ``restrict`` map; the coarsest level has neither.
    """

    def __init__(self, grid, coeff, coarse=None):
        m1, tau = grid.m1, grid.tau
        center, north, west = stencil(grid, coeff)
        self.m1 = m1
        self.diag = tau * center.ravel()

        # anti-diagonal d = -1 .. 2 m1 - 1 holds the points of grid rows
        # first[d] .. first[d] + count[d] - 1 at the skewed positions
        # start[d] + 1 .. start[d] + count[d], with a zero position on each
        # side; d = -1 and d = 2 m1 - 1 are empty, only their zeros exist
        d = np.arange(-1, 2 * m1)
        first = np.maximum(0, d - m1 + 1)
        count = np.maximum(0, np.minimum(d, m1 - 1) + 1 - first)
        start = np.concatenate([[0], np.cumsum(count + 2)])
        self.skew_size = start[-1]
        i, j = np.divmod(np.arange(m1 * m1), m1)
        self.skew_index = start[i + j + 1] + 1 + i - first[i + j + 1]
        # real (positions, 1) columns of the couplings of (i, j) to (i-1, j)
        # and to (i, j-1), zero where that neighbor is a boundary point. The
        # coupling of a point to (i+1, j) is the north weight stored at
        # (i+1, j), and to (i, j+1) the west weight stored at (i, j+1)
        self.north = np.zeros((self.skew_size, 1))
        self.north[self.skew_index, 0] = tau * north.ravel()
        self.west = np.zeros((self.skew_size, 1))
        self.west[self.skew_index, 0] = tau * west.ravel()
        # per anti-diagonal: its positions, then the positions of the points
        # (i-1, j), (i, j-1), (i+1, j) and (i, j+1) of its points (i, j)
        e = np.arange(1, 2 * m1)  # array index of d = 0 .. 2 m1 - 2
        offsets = [
            start[e] + 1,
            start[e - 1] + first[e] - first[e - 1],
            start[e - 1] + 1 + first[e] - first[e - 1],
            start[e + 1] + 2 + first[e] - first[e + 1],
            start[e + 1] + 1 + first[e] - first[e + 1],
        ]
        self.fronts = [
            tuple(slice(at, at + n) for at in row)
            for n, *row in zip(count[e].tolist(), *(o.tolist() for o in offsets))
        ]
        # U, the couplings to (i+1, j) and (i, j+1), in skewed order; zero
        # positions have empty rows and columns
        index = self.skew_index.reshape(m1, m1)
        rows = np.concatenate([index[:-1].ravel(), index[:, :-1].ravel()])
        cols = np.concatenate([index[1:].ravel(), index[:, 1:].ravel()])
        couplings = tau * np.concatenate([north[1:].ravel(), west[:, 1:].ravel()])
        self.upper = sp.csr_matrix((couplings, (rows, cols)), shape=(self.skew_size,) * 2)
        if coarse is None:
            return

        # coarse point (I, J) gives w[a] w[b] to fine point (2I+a, 2J+b)
        w = np.array([0.5, 1.0, 0.5])
        ci, cj = np.divmod(np.arange(coarse.m1**2), coarse.m1)
        a, b = np.divmod(np.arange(9), 3)
        fine = self.skew_index[(2 * ci[:, None] + a) * m1 + 2 * cj[:, None] + b]
        fine, source, weight = np.broadcast_arrays(fine, coarse.skew_index[:, None], w[a] * w[b])
        self.prolong = sp.csr_matrix(
            (weight.ravel(), (fine.ravel(), source.ravel())),
            shape=(self.skew_size, coarse.skew_size),
        )
        self.restrict = self.prolong.T / 4

    def to_skew(self, field):
        """A (m1^2, ...) field in skewed order, zero positions included."""
        out = np.zeros((self.skew_size, *field.shape[1:]), dtype=field.dtype)
        out[self.skew_index] = field
        return out

    def to_grid(self, skewed):
        return skewed[self.skew_index]

    def sweep(self, z, b, inv_diag, from_zero=False):
        """One forward Gauss-Seidel sweep, in place on the skewed stack z.

        ``inv_diag`` is the skewed (positions, k) reciprocal of the shifted
        diagonal. ``from_zero`` skips the upper neighbors, which are zero on
        a first sweep from z = 0.
        """
        zr, br = z.view(float), b.view(float)
        k = inv_diag.shape[1]
        acc = np.empty((self.m1, zr.shape[1]))
        tmp = np.empty_like(acc)
        for here, north, west, south, east in self.fronts:
            n = here.stop - here.start
            a, t = acc[:n], tmp[:n]
            np.multiply(self.north[here], zr[north], out=a)
            np.subtract(br[here], a, out=a)
            np.multiply(self.west[here], zr[west], out=t)
            a -= t
            if not from_zero:
                np.multiply(self.north[south], zr[south], out=t)
                a -= t
                np.multiply(self.west[east], zr[east], out=t)
                a -= t
            np.multiply(
                a.view(complex).reshape(n, -1, k),
                inv_diag[here, None, :],
                out=z[here].reshape(n, -1, k),
            )


def _build_levels(grid, coeff):
    """The levels of (grid, coeff), finest first."""
    sizes = [grid.m1]
    while sizes[-1] > 1:
        sizes.append((sizes[-1] - 1) // 2)
    # coarsest first: each level's transfers need the next coarser level
    levels = []
    coarse = None
    for size in reversed(sizes):
        coarse = Level(TimeSpaceGrid(m1=size, n=grid.n, horizon=grid.horizon), coeff, coarse)
        levels.insert(0, coarse)
    return tuple(levels)


# the last hierarchy built, shared by every solver of that (grid, coeff) pair
_hierarchy = functools.lru_cache(maxsize=1)(_build_levels)


class MgShiftedSolver:
    """Batched shifted solves by V-cycles on one re-discretized hierarchy."""

    def __init__(self, grid, coeff):
        m1 = grid.m1
        if m1 & (m1 + 1) != 0:
            raise ValueError(
                f"multigrid needs m1 = 2^l - 1 points per dimension, got m1={m1}"
            )
        try:
            hash(coeff)
        except TypeError:  # an unhashable coefficient cannot key the cache
            self.levels = _build_levels(grid, coeff)
        else:
            self.levels = _hierarchy(grid, coeff)

    def factor(self, sigmas):
        sigmas = np.asarray(sigmas, dtype=complex)
        shifted = [level.diag[:, None] + sigmas for level in self.levels]
        if any((d == 0).any() for d in shifted):
            raise ValueError("a shift makes the system singular")
        # all a solve reads: each level's skewed reciprocal shifted diagonal
        inv_diags = [level.to_skew(1.0 / d) for level, d in zip(self.levels, shifted)]

        def solve(rhs):
            k = rhs.shape[-1]
            if k != sigmas.size:
                raise ValueError(f"expected {sigmas.size} shifts on the last axis, got {k}")
            top = self.levels[0]
            b = top.to_skew(rhs.reshape(rhs.shape[0], -1))
            return top.to_grid(self._cycle(0, inv_diags, b)).reshape(rhs.shape)

        return solve

    def _cycle(self, depth, inv_diags, b):
        """One V-cycle on level depth from a zero initial guess, in its skewed order."""
        level = self.levels[depth]
        # V(1,1): one sweep from zero, the coarse correction of its residual
        # -U z, then one post-sweep. On the one-point coarsest grid the sweep
        # from zero is the exact solve
        z = np.zeros_like(b)
        level.sweep(z, b, inv_diags[depth], from_zero=True)
        if depth + 1 == len(self.levels):
            return z
        defect = (level.restrict @ (level.upper @ z.view(float))).view(complex)
        correction = level.prolong @ self._cycle(depth + 1, inv_diags, defect).view(float)
        z -= correction.view(complex)
        level.sweep(z, b, inv_diags[depth])
        return z
