"""Geometric multigrid for complex-shifted variable-coefficient systems.

Solves (sigma I + tau K_h) z = r approximately with V-cycles when the
diffusion coefficient varies in space and the sine-transform backend does
not apply. Components:

* smoother: forward Gauss-Seidel, realized exactly as a solve with the
  lower triangle of the level matrix (one pre-sweep starting from zero,
  configurable extra sweeps);
* full-weighting restriction and bilinear prolongation, built as tensor
  products of a 1D interpolation stencil (restriction is 1/4 of the
  prolongation transpose);
* coarse operators re-discretized from the same coefficient on each
  coarser grid, with the shift sigma and the step weight tau unchanged;
* a dense direct solve once the grid reaches 3 or fewer points per
  dimension.

The fine grid needs m1 = 2^l - 1 points per dimension so the nested-grid
hierarchy exists. A solver prepared with a fixed shift and a fixed cycle
count is one fixed linear map, so it is safe inside non-flexible GMRES.
:class:`MgShiftedSolver` is the backend the preconditioner sees: its
``factor(sigmas) -> solve`` prepares one V-cycle solver per shift and routes
each row of a stacked right-hand side to the solver of its shift.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .discretize import TimeSpaceGrid, build_stiffness
from .shifted import stacked

COARSEST_POINTS = 3


def prolongation_1d(m1):
    """Sparse 1D bilinear interpolation from (m1-1)//2 coarse to m1 fine points.

    Odd fine points coincide with coarse points; even fine points average the
    two coarse neighbors (missing neighbors are homogeneous boundary values).
    """
    if m1 < 3 or m1 % 2 == 0:
        raise ValueError(f"cannot coarsen a grid with m1={m1}")
    mc = (m1 - 1) // 2
    rows, cols, vals = [], [], []
    for i in range(m1):
        if i % 2 == 1:
            rows.append(i)
            cols.append((i - 1) // 2)
            vals.append(1.0)
        else:
            for c in (i // 2 - 1, i // 2):
                if 0 <= c < mc:
                    rows.append(i)
                    cols.append(c)
                    vals.append(0.5)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m1, mc))


def build_hierarchy(grid, coeff):
    """Stiffness matrices and interlevel transfers from fine m1 down to <= 3.

    Returns a list of (m1, stiffness, prolong_1d) triples ordered fine to
    coarse; prolong_1d maps from the NEXT (coarser) level and is None on the
    coarsest one.
    """
    m1 = grid.m1
    if m1 & (m1 + 1) != 0:
        raise ValueError(
            f"multigrid needs m1 = 2^l - 1 points per dimension, got m1={m1}"
        )
    sizes = [m1]
    while sizes[-1] > COARSEST_POINTS:
        sizes.append((sizes[-1] - 1) // 2)
    levels = []
    for depth, size in enumerate(sizes):
        level_grid = TimeSpaceGrid(m1=size, n=grid.n, horizon=grid.horizon)
        stiffness = build_stiffness(level_grid, coeff).stiffness
        prolong = prolongation_1d(size) if depth + 1 < len(sizes) else None
        levels.append((size, stiffness, prolong))
    return levels


class VCycleSolver:
    """Fixed number of V-cycles for one shifted system (sigma I + tau K) z = r."""

    def __init__(self, hierarchy, tau, sigma, pre=1, post=1, cycles=1):
        if pre < 1 or post < 0 or cycles < 1:
            raise ValueError("need pre >= 1, post >= 0 and cycles >= 1")
        self.pre, self.post, self.cycles = pre, post, cycles
        self.levels = []
        for m1, stiffness, prolong in hierarchy:
            matrix = (sigma * sp.identity(m1 * m1) + tau * stiffness).tocsr()
            entry = {"m1": m1, "matrix": matrix, "prolong": prolong}
            if prolong is None:
                lu, piv = scipy.linalg.lu_factor(matrix.toarray())
                entry["direct"] = (lu, piv)
            else:
                entry["lower"] = splu(
                    sp.tril(matrix).tocsc(), permc_spec="NATURAL",
                    options={"SymmetricMode": False},
                )
            self.levels.append(entry)

    def _transfer(self, op, field, m_from, m_to):
        return (op @ field.reshape(m_from, m_from) @ op.T).reshape(m_to * m_to)

    def _cycle(self, depth, rhs):
        level = self.levels[depth]
        if level["prolong"] is None:
            return scipy.linalg.lu_solve(level["direct"], rhs)
        A, lower, prolong = level["matrix"], level["lower"], level["prolong"]
        z = lower.solve(rhs)
        for _ in range(self.pre - 1):
            z += lower.solve(rhs - A @ z)
        m_fine = level["m1"]
        m_coarse = self.levels[depth + 1]["m1"]
        defect = self._transfer(0.25 * prolong.T, rhs - A @ z, m_fine, m_coarse)
        z += self._transfer(prolong, self._cycle(depth + 1, defect), m_coarse, m_fine)
        for _ in range(self.post):
            z += lower.solve(rhs - A @ z)
        return z

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=complex)
        z = self._cycle(0, rhs)
        A = self.levels[0]["matrix"]
        for _ in range(self.cycles - 1):
            z = z + self._cycle(0, rhs - A @ z)
        return z


class MgShiftedSolver:
    """Batched shifted solves: one :class:`VCycleSolver` per shift, one hierarchy."""

    def __init__(self, grid, coeff, pre=1, post=1, cycles=1):
        self.hierarchy = build_hierarchy(grid, coeff)
        self.tau = grid.tau
        self.pre, self.post, self.cycles = pre, post, cycles

    def factor(self, sigmas):
        return stacked([
            VCycleSolver(
                self.hierarchy, self.tau, sigma,
                pre=self.pre, post=self.post, cycles=self.cycles,
            ).solve
            for sigma in sigmas
        ])
