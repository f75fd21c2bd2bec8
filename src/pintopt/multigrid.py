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
* ``factor`` keeps the shifts, and a shift that zeroes any level's
  shifted diagonal raises the sine-transform backend's "a shift makes the
  system singular" ValueError. The solve's workspace adds the shifts to
  the diagonal of every level, one reciprocal column per shift, and builds
  no other matrix. Each stencil is stored once and broadcast over every
  shift and right-hand side, so one factored solve serves any number of
  right-hand sides;
* smoother: lexicographic forward Gauss-Seidel, one pre-sweep from zero
  and one post-sweep. Point (i, j) needs the new values at (i-1, j) and
  (i, j-1), both on the anti-diagonal i + j = d - 1, and the old values at
  (i+1, j) and (i, j+1), both on d + 1. Sweeping d = 0, 1, ... updates a
  whole anti-diagonal, for every shift and every right-hand side, in one
  vector operation and gives exactly the lexicographic values;
* residual: the sweep from zero solves the lower triangle L of A = L + U
  exactly, so right after it b - A z = -U z, the upper couplings applied to
  z. The cycle needs only its restriction, so each level keeps the product
  R U as one sparse matrix in skewed order, like P and R: the coarse
  right-hand side is one product of coarse size, and the cycle subtracts
  the prolonged correction;
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
solver. Solvers share only the levels, which no solve writes.

Each factored solve keeps the arrays of its V-cycle for the batch width it
last saw: per level a complex z and b, their zero positions zeroed once,
and every front's views of them, of the stencil bands, of the reciprocal
diagonal and of two scratch rows, so a sweep only calls ufuncs. A solve
scatters its right-hand sides into the finest b and gathers the result
from the finest z; apart from the sparse products' outputs it makes no
array. That workspace makes a solve non-reentrant: two calls of one solve
must not run at the same time.

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
    ``restrict`` map, and to which ``defect`` = ``restrict @ upper`` maps;
    the coarsest level has none of them.
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
        self.defect = (self.restrict @ self.upper).tocsr()

    def to_skew(self, field):
        """A (m1^2, ...) field in skewed order, zero positions included."""
        out = np.zeros((self.skew_size, *field.shape[1:]), dtype=field.dtype)
        out[self.skew_index] = field
        return out

    def front_views(self, z, b, inv_diag):
        """Every front's views for :func:`sweep` on the skewed (positions, l k) z and b.

        ``inv_diag`` is the skewed (positions, k) reciprocal of the shifted
        diagonal, broadcast over the l right-hand sides of each shift. Two
        scratch rows are made here and kept alive by the views.
        """
        zr, br = z.view(float), b.view(float)
        k = inv_diag.shape[1]
        acc = np.empty((self.m1, zr.shape[1]))
        tmp = np.empty_like(acc)
        views = []
        for here, north, west, south, east in self.fronts:
            n = here.stop - here.start
            views.append((
                self.north[here], zr[north], br[here], acc[:n],
                self.west[here], zr[west], tmp[:n],
                self.north[south], zr[south], self.west[east], zr[east],
                acc[:n].view(complex).reshape(n, -1, k), inv_diag[here, None, :],
                z[here].reshape(n, -1, k),
            ))
        return views


def sweep(views, from_zero=False):
    """One forward Gauss-Seidel sweep, in place on the z of ``views``.

    ``views`` is :meth:`Level.front_views`. ``from_zero`` skips the upper
    neighbors, which are zero on a first sweep from z = 0.
    """
    for (north, z_north, b_here, acc, west, z_west, tmp,
         south, z_south, east, z_east, acc_complex, inv, z_here) in views:
        np.multiply(north, z_north, out=acc)
        np.subtract(b_here, acc, out=acc)
        np.multiply(west, z_west, out=tmp)
        acc -= tmp
        if not from_zero:
            np.multiply(south, z_south, out=tmp)
            acc -= tmp
            np.multiply(east, z_east, out=tmp)
            acc -= tmp
        np.multiply(acc_complex, inv, out=z_here)


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
        if any((level.diag[:, None] + sigmas == 0).any() for level in self.levels):
            raise ValueError("a shift makes the system singular")
        top = self.levels[0]
        cycle = None

        def solve(rhs, out=None):
            nonlocal cycle
            k = rhs.shape[-1]
            if k != sigmas.size:
                raise ValueError(f"expected {sigmas.size} shifts on the last axis, got {k}")
            if out is None:
                out = np.empty(rhs.shape, complex)
            elif not (out.shape == rhs.shape and out.dtype == complex and out.flags.c_contiguous):
                raise ValueError(f"out must be a C-contiguous complex array of shape {rhs.shape}")
            width = rhs[0].size
            if cycle is None or cycle.width != width:
                cycle = _VCycle(self.levels, sigmas, width)
            cycle.b[0][top.skew_index] = rhs.reshape(-1, width)
            cycle.run()
            # mode="clip": with the default "raise", numpy buffers out
            np.take(cycle.z[0], top.skew_index, axis=0, out=out.reshape(-1, width), mode="clip")
            return out

        return solve


class _VCycle:
    """The kept arrays of one V(1,1) cycle for one batch width, in skewed order.

    Per level: the solution z, the right-hand side b and every front's views
    of them and of the skewed reciprocal of the shifted diagonal. The zero
    positions are zeroed here, once: the sweeps never write them, and the
    transfers map them to zero.
    """

    def __init__(self, levels, sigmas, width):
        self.levels = levels
        self.width = width
        self.z = [np.zeros((level.skew_size, width), complex) for level in levels]
        self.b = [np.zeros_like(z) for z in self.z]
        self.fronts = [
            level.front_views(z, b, level.to_skew(1.0 / (level.diag[:, None] + sigmas)))
            for level, z, b in zip(levels, self.z, self.b)
        ]

    def run(self, depth=0):
        """One V-cycle on level depth from a zero initial guess, into its z."""
        level, z, fronts = self.levels[depth], self.z[depth], self.fronts[depth]
        # V(1,1): one sweep from zero, the coarse correction of its residual
        # -U z, then one post-sweep. On the one-point coarsest grid the sweep
        # from zero is the exact solve
        sweep(fronts, from_zero=True)
        if depth + 1 == len(self.levels):
            return
        np.copyto(self.b[depth + 1].view(float), level.defect @ z.view(float))
        self.run(depth + 1)
        z -= (level.prolong @ self.z[depth + 1].view(float)).view(complex)
        sweep(fronts)
