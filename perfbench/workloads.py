"""Workload definitions: which cells each workload solves and what they must give.

A cell is one (example, inner solver, h, gamma, tol) solve through
``pintopt.bench.solve_cell``. Every cell carries its reference iteration count
and its reference error ``e_h`` to three significant digits; a cell whose
solve disagrees counts as failed.

The h = 2^-5 and 2^-6 references at tol = 1e-6 are the published tables (the
same numbers the acceptance tests check), copied here so the benchmark does
not import the test suite. The h = 2^-5 cells serve the harness's own tests;
no workload solves them, because on a shared two-vCPU machine their short
solves timed too unsteadily to hold a 25% bound. The tol = 1e-10 references of ``ex1-dst-h6-tight``
have no published table; they were recorded with the solver as it stood when
this benchmark was defined.

``RESIDUAL_FACTOR`` bounds the true relative residual ||b - A x|| / ||b||
at ``RESIDUAL_FACTOR * tol``. GMRES stops on the preconditioned residual;
when the bound was recorded the largest true residual over every cell below
was 2.6 tol (example 2, gamma = 1, h = 2^-6).
"""

import math
from dataclasses import dataclass

GAMMAS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)

# {(example, h): (iterations per gamma, e_h per gamma)}, gamma as in GAMMAS
PUBLISHED = {
    (1, 2.0**-5): ((4, 6, 8, 11, 12, 8), (1.54e-2, 1.54e-2, 1.54e-2, 1.42e-2, 3.10e-3, 7.19e-4)),
    (1, 2.0**-6): ((4, 6, 10, 11, 12, 8), (7.75e-3, 7.75e-3, 7.71e-3, 7.09e-3, 1.50e-3, 3.65e-4)),
    (2, 2.0**-5): ((4, 6, 8, 14, 11, 6), (1.03e-3, 1.03e-3, 1.02e-3, 9.82e-4, 4.03e-3, 2.85e-2)),
    (2, 2.0**-6): ((4, 6, 10, 15, 9, 6), (5.17e-4, 5.17e-4, 5.15e-4, 4.92e-4, 2.17e-3, 1.43e-2)),
}

# example 1, dst, h = 2^-6, tol = 1e-10: {gamma: (iterations, e_h)}
TIGHT = {1e-4: (19, 7.09e-3), 1e-2: (21, 1.50e-3)}

RESIDUAL_FACTOR = 10.0

INNER = {1: "dst", 2: "mg"}


@dataclass(frozen=True)
class Cell:
    example: int
    inner: str
    h: float
    gamma: float
    tol: float
    ref_iterations: int
    ref_e_h: float

    @property
    def label(self):
        level = round(-math.log2(self.h))
        return f"ex{self.example}-{self.inner}-h2^-{level}-g{self.gamma:g}-tol{self.tol:g}"

    @property
    def residual_bound(self):
        return RESIDUAL_FACTOR * self.tol


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cells: tuple


def published_cells(example, level):
    h = 2.0**-level
    iters, errors = PUBLISHED[(example, h)]
    return tuple(
        Cell(example, INNER[example], h, g, 1e-6, it, e)
        for g, it, e in zip(GAMMAS, iters, errors)
    )


def tight_cells():
    return tuple(
        Cell(1, "dst", 2.0**-6, g, 1e-10, it, e) for g, (it, e) in TIGHT.items()
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ex1-dst-h6",
            "example 1, sine-transform inner solves, h = 2^-6, six gammas: time FFT and "
            "rotation, DST solves, GMRES and matvec share the time; multigrid idle",
            published_cells(1, 6),
        ),
        Workload(
            "ex2-mg-h6",
            "example 2, multigrid inner solves, h = 2^-6, six gammas: multigrid factorisations "
            "and V-cycles take about three quarters of the time, and peak memory is the largest; "
            "DST idle",
            published_cells(2, 6),
        ),
        Workload(
            "ex1-dst-h6-tight",
            "example 1, sine transform, h = 2^-6, tol 1e-10, gamma 1e-4 and 1e-2: the longest "
            "Krylov bases, so GMRES orthogonalisation takes a larger share and the basis raises "
            "peak memory",
            tight_cells(),
        ),
    )
}
