"""Geometric multigrid for complex-shifted variable-coefficient systems.

Solves (sigma I + tau K_h) z = r approximately with V-cycles when the
diffusion coefficient varies in space and the sine-transform backend does
not apply. :class:`MgShiftedSolver` is the backend the preconditioner sees:
its ``factor(sigmas) -> solve`` runs each V-cycle once on the whole stack
of right-hand sides, every shift together, with no matrix or factorization
per shift. Components:

* stencil bands: each level keeps the diagonal of tau K and its couplings
  to (i-1, j) and to (i, j-1), read from the stiffness assembled on that
  level's grid, so the coarse operators are re-discretized from the same
  coefficient. K is symmetric, so the couplings to (i+1, j) and (i, j+1)
  are the same bands shifted by one point;
* ``factor`` adds each shift to the diagonal of every level and inverts the
  coarsest level (3 or fewer points per dimension) densely, one small
  matrix per shift;
* smoother: lexicographic forward Gauss-Seidel, ``PRE_SWEEPS`` = 2
  pre-sweeps (the first from zero) and ``POST_SWEEPS`` = 1 post-sweep.
  Point (i, j) needs the new values at (i-1, j) and (i, j-1), both on the
  anti-diagonal i + j = d - 1, and the old values at (i+1, j) and
  (i, j+1), both on d + 1. Sweeping d = 0, 1, ... updates a whole
  anti-diagonal, for every shift and every right-hand side, in one vector
  operation and gives exactly the lexicographic values;
* residual: a sweep solves its lower triangle exactly against the old upper
  neighbors, so right after the last pre-sweep b - A z is the upper
  couplings applied to the change of z, two products per anti-diagonal;
* transfers: bilinear prolongation P and full-weighting restriction
  R = P'/2, dense 1D matrices applied per dimension as P @ field @ P' and
  R @ field @ R', so the 2D restriction is (P x P)'/4, the variational
  partner of bilinear interpolation.

Fields are complex (points, batch) arrays: batch column l k + j holds the
l-th right-hand side of shift j, and real weights multiply the interleaved
real/imaginary view, (points, 2 batch). Inside a level the points are
stored skewed: anti-diagonal d is one contiguous run of positions, between
two zero positions that stand for the Dirichlet boundary, so each neighbor
of a run is a slice of the run before or after it.

The fine grid needs m1 = 2^l - 1 points per dimension so the nested-grid
hierarchy exists. Prepared shifts and one V(2,1) cycle per solve make one
fixed linear map, so the solve is safe inside non-flexible GMRES.
"""

from collections import namedtuple

import numpy as np

from .discretize import TimeSpaceGrid, build_stiffness

COARSEST_POINTS = 3
# the V(2,1) schedule: Gauss-Seidel sweeps before and after the coarse correction
PRE_SWEEPS = 2
POST_SWEEPS = 1

# a level's shifted operator in skewed order, repeated over the batch: the
# complex reciprocal of the shifted diagonal, (positions, batch), and the
# real couplings to (i-1, j) and to (i, j-1), (positions, 2 batch). The
# coupling of a point to (i+1, j) is the north weight stored at (i+1, j), and
# to (i, j+1) the west weight stored at (i, j+1)
Stencil = namedtuple("Stencil", "inv_diag north west")


def prolongation_1d(m1):
    """Dense 1D bilinear interpolation from (m1-1)//2 coarse to m1 fine points.

    Odd fine points coincide with coarse points; even fine points average the
    two coarse neighbors (missing neighbors are homogeneous boundary values).
    """
    if m1 < 3 or m1 % 2 == 0:
        raise ValueError(f"cannot coarsen a grid with m1={m1}")
    coarse = np.arange((m1 - 1) // 2)
    prolong = np.zeros((m1, coarse.size))
    prolong[2 * coarse + 1, coarse] = 1.0
    prolong[2 * coarse, coarse] = 0.5
    prolong[2 * coarse + 2, coarse] = 0.5
    return prolong


def sandwich(op, field):
    """op @ F @ op' for the grid F of each batch column of an (m1^2, batch) stack.

    ``op`` is real, so both products run as real matrix products on the
    interleaved real/imaginary view of the stack.
    """
    rows, cols = op.shape
    flat = field.view(float).reshape(cols, -1)
    half = (op @ flat).reshape(rows, cols, -1)
    return (op @ half).reshape(rows * rows, -1).view(complex)


class Level:
    """One grid of the hierarchy: stencil bands of tau K, skewed order, transfers."""

    def __init__(self, grid, coeff, coarsest):
        m1, tau = grid.m1, grid.tau
        stiffness = build_stiffness(grid, coeff)
        self.m1 = m1
        if coarsest:
            self.dense = tau * stiffness.toarray()
            return
        self.dense = None
        self.diag = tau * stiffness.diagonal(0)
        # couplings of (i, j) to (i-1, j) and to (i, j-1), zero where that
        # neighbor is a boundary point; the diagonal -1 of K is already zero
        # from (i, 0) to (i-1, m1-1)
        self.couplings = np.zeros((2, m1 * m1))
        self.couplings[0, m1:] = tau * stiffness.diagonal(-m1)
        self.couplings[1, 1:] = tau * stiffness.diagonal(-1)

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

        self.prolong = prolongation_1d(m1)
        self.restrict = self.prolong.T / 2

    def to_skew(self, field):
        """A (m1^2, ...) field in skewed order, zero positions included."""
        out = np.zeros((self.skew_size, *field.shape[1:]), dtype=field.dtype)
        out[self.skew_index] = field
        return out

    def to_grid(self, skewed):
        return skewed[self.skew_index]

    def stencil(self, inv_diag, batch):
        """The skewed :class:`Stencil` for ``batch`` right-hand sides per shift.

        ``inv_diag`` is the (m1^2, k) reciprocal of the shifted diagonal;
        every array is repeated to the full batch width so the sweeps run on
        equal-shaped contiguous slices.
        """
        width = 2 * batch * inv_diag.shape[1]
        return Stencil(
            self.to_skew(np.tile(inv_diag, batch)),
            *(np.repeat(self.to_skew(c)[:, None], width, axis=1) for c in self.couplings),
        )

    def sweep(self, z, b, stencil, from_zero=False):
        """One forward Gauss-Seidel sweep, in place on the skewed stack z.

        ``from_zero`` skips the upper neighbors, which are zero on a first
        sweep from z = 0.
        """
        zr, br = z.view(float), b.view(float)
        acc = np.empty((self.m1, zr.shape[1]))
        tmp = np.empty_like(acc)
        for here, north, west, south, east in self.fronts:
            n = here.stop - here.start
            a, t = acc[:n], tmp[:n]
            np.multiply(stencil.north[here], zr[north], out=a)
            np.subtract(br[here], a, out=a)
            np.multiply(stencil.west[here], zr[west], out=t)
            a -= t
            if not from_zero:
                np.multiply(stencil.north[south], zr[south], out=t)
                a -= t
                np.multiply(stencil.west[east], zr[east], out=t)
                a -= t
            np.multiply(a.view(complex), stencil.inv_diag[here], out=z[here])

    def sweep_residual(self, change, stencil):
        """b - (sigma I + tau K) z right after a sweep took z to z - change.

        The sweep solved its lower triangle exactly against the old upper
        neighbors, so the residual is the upper couplings applied to the
        change of those neighbors. Zero positions are left unset.
        """
        r = np.empty_like(change)
        rr, cr = r.view(float), change.view(float)
        tmp = np.empty((self.m1, cr.shape[1]))
        for here, _, _, south, east in self.fronts:
            t = tmp[: here.stop - here.start]
            np.multiply(stencil.north[south], cr[south], out=rr[here])
            np.multiply(stencil.west[east], cr[east], out=t)
            rr[here] += t
        return r


class MgShiftedSolver:
    """Batched shifted solves by V-cycles on one re-discretized hierarchy."""

    def __init__(self, grid, coeff):
        m1 = grid.m1
        if m1 & (m1 + 1) != 0:
            raise ValueError(
                f"multigrid needs m1 = 2^l - 1 points per dimension, got m1={m1}"
            )
        sizes = [m1]
        while sizes[-1] > COARSEST_POINTS:
            sizes.append((sizes[-1] - 1) // 2)
        self.levels = [
            Level(
                TimeSpaceGrid(m1=size, n=grid.n, horizon=grid.horizon), coeff,
                coarsest=size == sizes[-1],
            )
            for size in sizes
        ]

    def factor(self, sigmas):
        sigmas = np.asarray(sigmas, dtype=complex)
        inv_diags = [1.0 / (level.diag[:, None] + sigmas) for level in self.levels[:-1]]
        coarsest = self.levels[-1]
        eye = np.eye(coarsest.m1 * coarsest.m1)
        coarse_inverse = np.linalg.inv(sigmas[:, None, None] * eye + coarsest.dense)
        # per number of right-hand sides per shift: the Stencil of every
        # level but the coarsest, then the coarsest level's inverses
        prepared = {}

        def solve(rhs):
            *_, k, m = rhs.shape
            if k != sigmas.size:
                raise ValueError(f"expected {sigmas.size} shifts on axis -2, got {k}")
            b = np.ascontiguousarray(rhs.reshape(-1, m).T, dtype=complex)
            batch = b.shape[1] // k
            if batch not in prepared:
                prepared[batch] = [
                    level.stencil(inv_diag, batch)
                    for level, inv_diag in zip(self.levels, inv_diags)
                ] + [coarse_inverse]
            return self._cycle(0, prepared[batch], b).T.reshape(rhs.shape)

        return solve

    def _cycle(self, depth, ops, b):
        """One V-cycle on level depth from a zero initial guess."""
        level = self.levels[depth]
        if level.dense is not None:
            k = ops[depth].shape[0]
            grouped = b.reshape(b.shape[0], -1, k)
            z = np.einsum("kpq,qlk->plk", ops[depth], grouped)
            return np.ascontiguousarray(z).reshape(b.shape)
        stencil = ops[depth]
        b_skew = level.to_skew(b)
        z_skew = np.zeros_like(b_skew)
        for sweep in range(PRE_SWEEPS):
            if sweep == PRE_SWEEPS - 1:
                change = z_skew.copy()
            level.sweep(z_skew, b_skew, stencil, from_zero=sweep == 0)
        change -= z_skew
        residual = level.to_grid(level.sweep_residual(change, stencil))
        defect = sandwich(level.restrict, residual)
        correction = sandwich(level.prolong, self._cycle(depth + 1, ops, defect))
        z_skew[level.skew_index] += correction
        for _ in range(POST_SWEEPS):
            level.sweep(z_skew, b_skew, stencil)
        return level.to_grid(z_skew)
