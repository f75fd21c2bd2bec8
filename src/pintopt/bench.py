"""Benchmark driver: sweep (gamma, h) cells, solve each, tabulate results.

One cell = one optimal-control problem instance on a space-time grid with
tau = h, solved by left-preconditioned GMRES with the damped-rotation
preconditioner. Rows carry iteration counts, solve-only wall time and the
worst-over-time discrete L2 error; CSV and aligned-text emitters live here
too so the command-line front end stays a thin argument parser.
"""

import concurrent.futures
import csv
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import shifted
from .discretize import TimeSpaceGrid, assemble_rhs, build_stiffness, error_norm, stencil
from .gmres import DEFAULT_MAXIT, gmres_solve
from .multigrid import MgShiftedSolver
from .operators import AllAtOnceOperator
from .problems import get_problem
from .rbd import RbdEpsPreconditioner, choose_epsilon

# N-length float64 arrays a cell of N unknowns holds besides its
# (maxit + 1, N) GMRES basis, by inner backend. Measured as a cell's rise in
# peak RSS less its k + 1 basis rows, at gamma = 1, h = 2^-6 and 2^-7: 6.92
# and 6.16 with the sine transform (example 1); 10.43 and 9.42 with
# multigrid on example 2, 10.57 and 9.45 on example 1. Multigrid keeps its
# V-cycle's arrays, about three N-vectors over all levels, for the whole cell.
WORKING_ARRAYS = {"dst": 7, "mg": 11}

CSV_COLUMNS = ("gamma", "h", "dof", "iter", "cpu_s", "e_h", "e_h_raw")

# Smallest corner damping eps a solve may run with. The preconditioner scales
# the time levels by eps^(j/n) and back, so its round-off grows like u / eps
# for the unit round-off u. A delta sweep on both examples at h = 2^-4 and
# 2^-5 kept every 3-digit e_h of delta = 0.5 down to eps = 8.8e-11 and lost
# one at 8.8e-12; at h = 2^-6 both tables are unchanged just above this
# floor, which holds the round-off near sqrt(u) = 1.5e-8.
EPS_FLOOR = math.sqrt(np.finfo(float).eps)


class ConfigurationError(ValueError):
    """Invalid experiment configuration, detected before any solve runs."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated sweep description: which cells to run and how.

    Its defaults are the only defaults of ``pintopt solve``.
    """

    example: int
    h_values: tuple = (2.0**-5,)
    gammas: tuple = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
    inner: str = None
    tol: float = 1e-6
    maxit: int = DEFAULT_MAXIT
    delta: float = 0.5
    jobs: int = 1

    def __post_init__(self):
        if self.example not in (1, 2):
            raise ConfigurationError(f"unknown example {self.example!r}; choose 1 or 2")
        if self.inner not in (None, "dst", "mg"):
            raise ConfigurationError(f"unknown inner solver {self.inner!r}")
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not self.h_values or not self.gammas:
            raise ConfigurationError("the sweep needs at least one h and one gamma")
        for name in ("h_values", "gammas", "tol", "delta"):
            values = getattr(self, name)
            for value in values if isinstance(values, tuple) else (values,):
                if not math.isfinite(value):
                    raise ConfigurationError(f"{name} must be a finite number, got {value}")
        finest = max(self.h_values, key=mesh_level)
        for g in self.gammas:
            if g <= 0:
                raise ConfigurationError(f"gamma must be positive, got {g}")
        if not 0 < self.tol < 1:
            raise ConfigurationError(f"tolerance must lie in (0, 1), got {self.tol}")
        if self.maxit < 1:
            raise ConfigurationError(f"maxit must be >= 1, got {self.maxit}")
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")
        eps = choose_epsilon(cell_grid(finest), self.delta)
        if eps < EPS_FLOOR:  # eps is nearly proportional to a delta this small
            raise ConfigurationError(
                f"delta = {self.delta:g} gives eps = {eps:.2e} at h = 2^-{mesh_level(finest)}, "
                f"below the round-off floor {EPS_FLOOR:.2e}; delta must be about "
                f"{self.delta * EPS_FLOOR / eps:.2e} or more there"
            )
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")
        # gmres_solve reserves its basis in full, and run_experiment runs up to
        # min(jobs, cells) cells at once: at worst the largest ones together.
        # Example 2 has a variable coefficient, so its cells run multigrid
        sizes = sorted((2 * g.m * g.n for g in map(cell_grid, self.h_values)), reverse=True)
        together = [size for size in sizes for _ in self.gammas][: self.jobs]
        total = sum(together)
        arrays = WORKING_ARRAYS["mg" if self.inner == "mg" or self.example == 2 else "dst"]
        available = available_memory()
        need = sum(8 * size * (min(self.maxit, size) + 1 + arrays) for size in together)
        if available is not None and need > available:
            fits = (available // 8 - (1 + arrays) * total) // total
            advice = f"the largest maxit that fits is {fits}" if fits >= 1 else "no maxit fits"
            cells = f"{len(together)} cell{'s' if len(together) > 1 else ''} at a time"
            raise ConfigurationError(
                f"h = 2^-{mesh_level(finest)} needs {need / 2**30:.2f} GiB at maxit "
                f"{self.maxit} for {cells}, but {available / 2**30:.2f} GiB is available; "
                f"{advice}"
            )


def available_memory():
    """MemAvailable of /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            found = [line.split() for line in fh if line.startswith("MemAvailable:")]
    except OSError:
        return None
    return int(found[0][1]) * 1024 if found else None


def mesh_level(h):
    """The integer k with h = 2^-k, or a configuration error."""
    if h <= 0 or h >= 1:
        raise ConfigurationError(f"h must lie in (0, 1), got {h}")
    level = round(-math.log2(h))
    if level < 1 or abs(h - 2.0**-level) > 1e-12 * h:
        raise ConfigurationError(
            f"h must be a negative power of two (mesh nesting and tau = h), got {h}"
        )
    return level


def cell_grid(h):
    """The space-time grid of a cell: mesh size h and time step tau = h."""
    return TimeSpaceGrid.from_h(h, n=2 ** mesh_level(h))


def constant_diffusion_value(bands, grid):
    """c when the stencil ``bands`` is c times the 5-point Laplacian's, else None.

    ``bands`` is the ``(center, north, west)`` of
    :func:`pintopt.discretize.stencil`. That is exactly the case in which
    the sine transform diagonalizes K: 4 c / h^2 at the center and -c / h^2
    for each of the four grid neighbours.
    """
    center, north, west = bands
    unit = center[0, 0] / 4.0  # c / h^2
    for band, want in ((center, 4 * unit), (north[1:], -unit), (west[:, 1:], -unit)):
        if np.max(np.abs(band - want), initial=0.0) > 1e-12 * unit:
            return None
    return float(unit * grid.h**2)


def make_inner_solver(a, grid, inner):
    """Build the shifted-solve backend, failing fast on incompatibility.

    Returns the backend and the stencil ``stencil(grid, a)`` it was chosen
    from, so that a caller assembling K does not sample the coefficient
    again. With no ``inner``, the sine transform when the diffusion
    coefficient ``a`` is constant, multigrid otherwise.
    """
    bands = stencil(grid, a)
    if inner != "mg":
        value = constant_diffusion_value(bands, grid)
        if value is not None:
            return shifted.DstShiftedSolver(grid, diffusion=value), bands
        if inner == "dst":
            raise ConfigurationError(
                "the sine-transform inner solver requires a constant diffusion "
                "coefficient; this problem's coefficient varies in space "
                "(use the multigrid inner solver instead)"
            )
    return MgShiftedSolver(grid, a), bands


@functools.lru_cache(maxsize=1)
def mesh_setup(example, inner, h):
    """What every gamma cell of one mesh shares: the grid, the backend and K.

    A problem's coefficient does not depend on gamma, and neither does
    anything built from it, so the cells of one (example, inner, h) that a
    process solves in a row share one set-up. The stiffness is what the
    operator takes: the sine transform's ``laplacian_eigs``, or the CSR K
    for multigrid, assembled from the stencil the backend was chosen from.
    ``make_inner_solver`` and ``build_stiffness`` are looked up at call
    time. No cell writes what this returns: a backend's ``factor`` gives
    each cell its own solve and work arrays.
    """
    grid = cell_grid(h)
    a = get_problem(f"example{example}", 1.0).a  # any weight: a does not depend on it
    backend, bands = make_inner_solver(a, grid, inner)
    if isinstance(backend, shifted.DstShiftedSolver):
        return grid, backend, backend.laplacian_eigs
    return grid, backend, build_stiffness(bands)


@dataclass(frozen=True)
class CellResult:
    """Everything measured for one (gamma, h) cell."""

    gamma: float
    h: float
    dof: int
    iterations: int
    converged: bool
    cpu_seconds: float
    error: float = None
    failure: str = None


def solve_cell(spec, gamma, h):
    """Assemble and solve one cell; wall time covers the GMRES loop only.

    The grid, the backend and the stiffness come from :func:`mesh_setup`,
    built once for the cells of one mesh. A cell with the sine-transform
    backend is solved in the sine basis: the stiffness handed to the
    operator is the vector ``DstShiftedSolver.laplacian_eigs`` of the
    diagonal Lambda, which the matvec applies as one broadcast product,
    ``assemble_rhs`` rotates the right-hand side once with
    ``shifted.dst2d`` and ``error_norm`` rotates the state and the adjoint
    back, so GMRES, the matvec and the preconditioner run no sine
    transform. The transform is orthogonal, so the iterates are those of
    the physical-basis solve up to round-off. ``shifted.dst2d`` is read in
    every cell, never kept, so a wrapper set on it sees every rotation.
    Multigrid cells are solved in the physical basis, with the assembled
    stiffness.

    A FloatingPointError from the preconditioner's round-off guard, or
    from GMRES when the operator or the preconditioner produces a NaN or
    Inf, fails only this cell, and so does a MemoryError, such as a GMRES
    basis too large for this machine: the cell comes back unconverged,
    with no iterations or error and the message in ``failure``. A cell
    that GMRES leaves unconverged keeps its iterations and error, and its
    ``failure`` names the last iteration and the relative residual.
    """
    grid, inner, stiffness = mesh_setup(spec.example, spec.inner, h)
    problem = get_problem(f"example{spec.example}", gamma)
    transform = shifted.dst2d if isinstance(inner, shifted.DstShiftedSolver) else None

    op = AllAtOnceOperator(grid, stiffness, gamma)
    rhs = assemble_rhs(problem, grid, transform)
    prec = RbdEpsPreconditioner(grid, gamma, choose_epsilon(grid, spec.delta), inner)

    mn = grid.m * grid.n
    start = time.perf_counter()
    try:
        report = gmres_solve(
            op.matvec, rhs, apply_prec=prec.apply_inverse, tol=spec.tol, maxit=spec.maxit
        )
    except (FloatingPointError, MemoryError) as exc:
        return CellResult(
            gamma=gamma, h=h, dof=2 * mn, iterations=0,
            converged=False, cpu_seconds=time.perf_counter() - start, failure=str(exc),
        )
    cpu = time.perf_counter() - start

    failure = None
    if not report.converged:
        failure = (
            f"GMRES stopped unconverged at iteration {report.iterations}: preconditioned "
            f"relative residual {report.residuals[-1] / report.residuals[0]:.3e} > tol {spec.tol:g}"
        )
    iterations, converged = report.iterations, report.converged
    state = report.x[:mn] / np.sqrt(gamma)
    adjoint = report.x[mn:]
    # free the Krylov basis before the error check, whose arrays would
    # otherwise come on top of it
    del report
    err = None
    if problem.exact_y is not None and problem.exact_p is not None:
        err = float(error_norm(state, adjoint, problem, grid, transform))
    return CellResult(
        gamma=gamma, h=h, dof=2 * mn, iterations=iterations,
        converged=converged, cpu_seconds=cpu, error=err, failure=failure,
    )


def run_experiment(spec):
    """Run every (h, gamma) cell of the sweep, h outermost, in table order."""
    cells = [(h, gamma) for h in spec.h_values for gamma in spec.gammas]
    if spec.jobs == 1 or len(cells) <= 1:
        return [solve_cell(spec, gamma, h) for h, gamma in cells]
    hs, gammas = zip(*cells)
    # at most one process per cell: a forking pool starts all its workers at once
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(spec.jobs, len(cells))) as pool:
        return list(pool.map(solve_cell, itertools.repeat(spec), gammas, hs))


# ------------------------------------------------------------- formatting


def three_significant(x):
    """Compact 3-significant-digit scientific form: 0.0154 -> '1.54e-2'.

    Python's ``.2e`` rounds the exact binary value, so a float just off a
    halfway point rounds the way it lies (1.035e-8 -> '1.04e-8').
    """
    if x is None:
        return ""
    if x == 0:
        return "0"
    mantissa, exponent = f"{x:.2e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def result_row(res):
    return {
        "gamma": f"{res.gamma:.10g}",
        "h": f"{res.h:.10g}",
        "dof": str(res.dof),
        "iter": str(res.iterations),
        "cpu_s": f"{res.cpu_seconds:.4f}",
        "e_h": three_significant(res.error),
        "e_h_raw": "" if res.error is None else repr(res.error),
    }


def write_csv(results, stream):
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for res in results:
        writer.writerow(result_row(res))


def aligned_text(results):
    """Fixed-width table for terminal output."""
    header = ("gamma", "h", "dof", "iter", "cpu_s", "e_h", "converged")
    rows = [header]
    for res in results:
        row = result_row(res)
        rows.append(
            (
                row["gamma"], row["h"], row["dof"], row["iter"], row["cpu_s"],
                row["e_h"] or "-", "yes" if res.converged else "NO",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines)

