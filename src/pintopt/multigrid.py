"""Geometric multigrid for complex-shifted variable-coefficient systems.

Solves (sigma I + tau K_h) z = r approximately with V-cycles when the
diffusion coefficient varies in space and the sine-transform backend does
not apply. :class:`MgShiftedSolver` is the backend the preconditioner sees:
its ``factor(sigmas) -> solve`` runs each V-cycle once on the whole stack
of right-hand sides, every shift together, with no matrix or factorization
per shift. Components:

* neighbor pairs: each level keeps the diagonal of tau K and, per point,
  the weights of its couplings to the pair (i-1, j), (i, j-1) and to the
  pair (i, j+1), (i+1, j), from :func:`pintopt.discretize.stencil` on that
  level's grid, so the coarse operators are re-discretized from the same
  coefficient. K is symmetric, so the second pair's weights are the west
  and north bands shifted by one point, zero at the boundary;
* ``factor`` keeps the shifts, and a shift that zeroes any level's
  shifted diagonal raises the sine-transform backend's "a shift makes the
  system singular" ValueError. The solve's workspace adds the shifts to
  the diagonal of every level, one reciprocal column per shift, and builds
  no other matrix. A solve handed back as ``factor(sigmas, reuse=solve)``
  keeps its workspace and refills those columns in place. Each level's
  weights are stored once and broadcast over every shift and right-hand
  side, so one factored solve serves any number of right-hand sides;
* smoother: lexicographic forward Gauss-Seidel, one pre-sweep from zero
  and one post-sweep. Point (i, j) needs the new values at (i-1, j) and
  (i, j-1), both on the anti-diagonal i + j = d - 1, and the old values at
  (i, j+1) and (i+1, j), both on d + 1. In skewed order each pair sits at
  two adjacent positions, so a front of n points reads its lower pairs as
  an (n, 2, columns) window of the run before it and weighs them with its
  (n, 1, 2) weights in one matmul, and its upper pairs likewise on the run
  after it. Sweeping d = 0, 1, ... updates a whole anti-diagonal, for every
  shift and every right-hand side, in three calls from zero and five after
  it, and gives the lexicographic values: a pair is summed before it is
  subtracted, which moves only round-off;
* residual: the sweep from zero solves the lower triangle L of A = L + U
  exactly, so right after it b - A z = -U z, the upper couplings applied to
  z. The cycle needs only its restriction, so each level keeps the product
  R U, its defect, as one sparse matrix in skewed order, like P: the coarse
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

Nothing in the hierarchy depends on the shifts: a solver builds it once,
and every ``factor`` and every solve reads it and writes none of it.

Each factored solve keeps the arrays of its V-cycle for the batch width it
last saw: per level a complex z and b, their zero positions zeroed once,
the skewed reciprocals of the shifted diagonal, and every front's views:
its pair windows of z, all from one sliding window view of that z, and its
rows of b, of the reciprocal diagonal and of two scratch rows, so a sweep
only calls ufuncs. A solve scatters its right-hand sides into the finest
b and gathers the result from the finest z; apart from the sparse
products' outputs it makes no array. That workspace makes a solve
non-reentrant: two calls of one solve must not run at the same time.

The fine grid needs m1 = 2^l - 1 points per dimension, so the hierarchy
halves it down to the one-point grid: 63, 31, 15, 7, 3, 1. There one sweep
from zero is the exact solve, so the coarsest level runs the same sweep as
every other level and stops. Prepared shifts and one V(1,1) cycle per solve
make one fixed linear map, so the solve is safe inside non-flexible GMRES.
"""

import numpy as np
import scipy.sparse as sp

from .discretize import TimeSpaceGrid, stencil


class Level:
    """One grid of the hierarchy: skewed order, neighbor-pair weights, transfers.

    ``fronts`` holds, per anti-diagonal, its positions, the starts of the
    windows of its lower and upper neighbor pairs in the runs before and
    after it, and the (n, 1, 2) weight stacks of those pairs. ``coarse`` is
    the next coarser level: ``prolong`` maps from it and ``defect`` = R U
    to it, with U the strict upper triangle of tau K in skewed order and
    R = P'/4; the coarsest level has neither.
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
        # the diagonal in skewed order, and the positions that hold a point
        self.points = np.zeros((self.skew_size, 1), bool)
        self.points[self.skew_index] = True
        self.skew_diag = np.zeros((self.skew_size, 1))
        self.skew_diag[self.skew_index, 0] = self.diag
        # the weights of each point's couplings to the pair (i-1, j), (i, j-1)
        # and to the pair (i, j+1), (i+1, j), in skewed order. K is symmetric,
        # so east and south are the west and north bands shifted by one
        # point, zero at the boundary
        east = np.pad(west[:, 1:], ((0, 0), (0, 1)))
        south = np.pad(north[1:], ((0, 1), (0, 0)))
        lower, upper = np.zeros((2, self.skew_size, 1, 2))
        lower[self.skew_index, 0] = tau * np.stack([north.ravel(), west.ravel()], axis=1)
        upper[self.skew_index, 0] = tau * np.stack([east.ravel(), south.ravel()], axis=1)
        # per anti-diagonal: its positions, the position of (i-1, j) of its
        # first point, with (i, j-1) next to it, and that of (i, j+1), with
        # (i+1, j) next to it
        e = np.arange(1, 2 * m1)  # array index of d = 0 .. 2 m1 - 2
        here = start[e] + 1
        below = start[e - 1] + first[e] - first[e - 1]
        above = start[e + 1] + 1 + first[e] - first[e + 1]
        self.fronts = [
            (slice(at, at + n), slice(lo, lo + n), slice(up, up + n),
             lower[at : at + n], upper[at : at + n])
            for n, at, lo, up in zip(*(v.tolist() for v in (count[e], here, below, above)))
        ]
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
        # U from the upper pairs that the post-sweep uses: each point's two
        # weights at the position of its (i, j+1) and the next one, that of
        # (i+1, j). Zero positions get no row; the product drops the zero
        # weights of boundary neighbors
        east_at = start[i + j + 2] + 1 + i - first[i + j + 2]
        rows, cols = np.repeat(self.skew_index, 2), (east_at[:, None] + [0, 1]).ravel()
        shape = (self.skew_size,) * 2
        upper_matrix = sp.csr_matrix((upper[self.skew_index].ravel(), (rows, cols)), shape=shape)
        self.defect = (self.prolong.T / 4 @ upper_matrix).tocsr()

    def reciprocals(self, sigmas, out):
        """1 / (diag + sigma) for each of the k ``sigmas``, into the skewed (positions, k) ``out``.

        Only the rows of points are written, in place, so the zero
        positions of ``out`` keep what they hold. Returns ``out``.
        """
        np.add(self.skew_diag, sigmas, out=out, where=self.points)
        return np.divide(1.0, out, out=out, where=self.points)

    def front_views(self, z, b, inv_diag):
        """Every front's views for :func:`sweep` on the skewed (positions, l k) z and b.

        ``inv_diag`` is the skewed (positions, k) array of
        :meth:`reciprocals`, the reciprocal of the diagonal shifted by each
        of k shifts; a front reads its rows, broadcast over the l
        right-hand sides of each shift, so a refill of ``inv_diag`` reaches
        the views. A front's neighbor pairs are (n, 2, columns) windows of
        one sliding window view of z, two rows each. Two scratch rows are
        made here and kept alive by the views.
        """
        k = inv_diag.shape[1]
        zr, br = z.view(float), b.view(float)
        pairs = np.lib.stride_tricks.sliding_window_view(zr, 2, axis=0).swapaxes(1, 2)
        acc = np.empty((self.m1, 1, zr.shape[1]))
        tmp = np.empty_like(acc)
        views = []
        for here, below, above, lower, upper in self.fronts:
            n = here.stop - here.start
            views.append((
                lower, pairs[below], br[here, None], acc[:n], upper, pairs[above], tmp[:n],
                acc[:n, 0].view(complex).reshape(n, -1, k), inv_diag[here, None, :],
                z[here].reshape(n, -1, k),
            ))
        return views


def sweep(views, from_zero=False):
    """One forward Gauss-Seidel sweep, in place on the z of ``views``.

    ``views`` is :meth:`Level.front_views`. A front is b minus one product
    of its lower weight pairs with their pairs of z on the run before it,
    minus one such product of its upper pairs on the run after it, times
    the reciprocal diagonal. ``from_zero`` skips the upper product, zero on
    a first sweep from z = 0.
    """
    for lower, z_lower, b_here, acc, upper, z_upper, tmp, acc_complex, inv, z_here in views:
        np.matmul(lower, z_lower, out=acc)
        np.subtract(b_here, acc, out=acc)
        if not from_zero:
            np.matmul(upper, z_upper, out=tmp)
            acc -= tmp
        np.multiply(acc_complex, inv, out=z_here)


class MgShiftedSolver:
    """Batched shifted solves by V-cycles on one re-discretized hierarchy."""

    def __init__(self, grid, coeff):
        m1 = grid.m1
        if m1 & (m1 + 1) != 0:
            raise ValueError(
                f"multigrid needs m1 = 2^l - 1 points per dimension, got m1={m1}"
            )
        # m1 = 2^l - 1 halves to 2^(l-1) - 1 down to 1, built coarsest first:
        # each level's transfers need the next coarser level
        levels = []
        coarse = None
        for bits in range(1, m1.bit_length() + 1):
            level_grid = TimeSpaceGrid(m1=2**bits - 1, n=grid.n, horizon=grid.horizon)
            coarse = Level(level_grid, coeff, coarse)
            levels.insert(0, coarse)
        self.levels = tuple(levels)

    def factor(self, sigmas, reuse=None):
        sigmas = np.asarray(sigmas, dtype=complex)
        # the diagonals are real, so only a real shift can zero one
        real = sigmas.real[sigmas.imag == 0]
        if any((level.diag[:, None] + real == 0).any() for level in self.levels):
            raise ValueError("a shift makes the system singular")
        if reuse is None or reuse.levels is not self.levels:
            return _MgSolve(self.levels, sigmas)
        reuse.sigmas = sigmas
        if reuse.cycle is not None:
            if reuse.cycle.inv_diag[0].shape[1] == sigmas.size:
                reuse.cycle.refill(sigmas)
            else:
                reuse.cycle = None
        return reuse


class _MgSolve:
    """The solve of :meth:`MgShiftedSolver.factor`: one V-cycle on the whole stack.

    ``cycle`` is the :class:`_VCycle` of the batch width last solved, made
    on the first solve and again when the width changes.
    """

    def __init__(self, levels, sigmas):
        self.levels = levels
        self.sigmas = sigmas
        self.cycle = None

    def __call__(self, rhs, out=None):
        k = rhs.shape[-1]
        if k != self.sigmas.size:
            raise ValueError(f"expected {self.sigmas.size} shifts on the last axis, got {k}")
        if out is None:
            out = np.empty(rhs.shape, complex)
        elif not (out.shape == rhs.shape and out.dtype == complex and out.flags.c_contiguous):
            raise ValueError(f"out must be a C-contiguous complex array of shape {rhs.shape}")
        width = rhs[0].size
        if self.cycle is None or self.cycle.width != width:
            self.cycle = None  # freed before the new one is made
            self.cycle = _VCycle(self.levels, self.sigmas, width)
        top, cycle = self.levels[0], self.cycle
        cycle.b[0][top.skew_index] = rhs.reshape(-1, width)
        cycle.run()
        # mode="clip": with the default "raise", numpy buffers out
        np.take(cycle.z[0], top.skew_index, axis=0, out=out.reshape(-1, width), mode="clip")
        return out


class _VCycle:
    """The kept arrays of one V(1,1) cycle for one batch width, in skewed order.

    Per level: the solution z, the right-hand side b, the skewed reciprocal
    of the diagonal shifted by each of the k shifts, and every front's
    views of them. The zero positions are zeroed here, once: the sweeps
    never write them, and the transfers map them to zero. :meth:`refill`
    moves the cycle to other shifts of the same count.
    """

    def __init__(self, levels, sigmas, width):
        self.levels = levels
        self.width = width
        self.z = [np.zeros((level.skew_size, width), complex) for level in levels]
        self.b = [np.zeros_like(z) for z in self.z]
        self.inv_diag = [np.zeros((level.skew_size, sigmas.size), complex) for level in levels]
        self.refill(sigmas)
        self.fronts = [
            level.front_views(z, b, inv)
            for level, z, b, inv in zip(levels, self.z, self.b, self.inv_diag)
        ]

    def refill(self, sigmas):
        """Write the reciprocals of ``sigmas`` in place, where every front's views see them."""
        for level, inv in zip(self.levels, self.inv_diag):
            level.reciprocals(sigmas, out=inv)

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
