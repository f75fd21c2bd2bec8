"""Benchmark driver: sweep (gamma, h) cells, solve each, tabulate results.

One cell = one optimal-control problem instance on a space-time grid with
tau = h, solved by left-preconditioned GMRES with the damped-rotation
preconditioner. Rows carry iteration counts, solve-only wall time and the
worst-over-time discrete L2 error; CSV and aligned-text emitters live here
too so the command-line front end stays a thin argument parser.
"""

import concurrent.futures
import csv
import io
import math
import time
from dataclasses import dataclass

import numpy as np

from .discretize import TimeSpaceGrid, assemble_rhs, build_stiffness, error_norm
from .gmres import gmres_solve
from .multigrid import MgShiftedSolver
from .operators import AllAtOnceOperator
from .problems import get_problem
from .rbd import RbdEpsPreconditioner, choose_epsilon
from .shifted import DstShiftedSolver

DEFAULT_MAX_LEVEL = 6  # finest default mesh is h = 2^-6; finer is opt-in

CSV_COLUMNS = ("gamma", "h", "dof", "iter", "cpu_s", "e_h", "e_h_raw")


class ConfigurationError(ValueError):
    """Invalid experiment configuration, detected before any solve runs."""


@dataclass(frozen=True)
class ExperimentSpec:
    """A validated sweep description: which cells to run and how."""

    example: int
    h_values: tuple = (2.0**-5,)
    gammas: tuple = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)
    inner: str = "dst"
    tol: float = 1e-6
    maxit: int = 100
    eps_policy: str = "step"
    eps_value: float = None
    delta: float = 0.5
    mg_pre: int = 2
    mg_post: int = 1
    mg_cycles: int = 1
    allow_fine: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.example not in (1, 2):
            raise ConfigurationError(f"unknown example {self.example!r}; choose 1 or 2")
        if self.inner not in ("dst", "mg"):
            raise ConfigurationError(f"unknown inner solver {self.inner!r}")
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        for name in ("h_values", "gammas", "tol", "delta", "eps_value"):
            values = getattr(self, name)
            for value in values if isinstance(values, tuple) else (values,):
                if value is not None and not math.isfinite(value):
                    raise ConfigurationError(f"{name} must be a finite number, got {value}")
        for h in self.h_values:
            level = mesh_level(h)
            if level > DEFAULT_MAX_LEVEL and not self.allow_fine:
                raise ConfigurationError(
                    f"h = 2^-{level} exceeds the default finest mesh 2^-{DEFAULT_MAX_LEVEL}; "
                    "pass allow_fine to run it anyway"
                )
        for g in self.gammas:
            if g <= 0:
                raise ConfigurationError(f"gamma must be positive, got {g}")
        if self.tol <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tol}")
        if self.maxit < 1:
            raise ConfigurationError(f"maxit must be >= 1, got {self.maxit}")
        if self.eps_policy not in ("step", "rate", "fixed"):
            raise ConfigurationError(f"unknown damping policy {self.eps_policy!r}")
        if not 0 < self.delta < 1:
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.eps_policy == "fixed":
            if self.eps_value is None or not 0 < self.eps_value <= 1:
                raise ConfigurationError(
                    f"fixed damping needs a value in (0, 1], got {self.eps_value}"
                )
        if self.mg_pre < 1 or self.mg_post < 0 or self.mg_cycles < 1:
            raise ConfigurationError(
                "multigrid needs mg_pre >= 1, mg_post >= 0 and mg_cycles >= 1, got "
                f"{self.mg_pre}, {self.mg_post} and {self.mg_cycles}"
            )
        if self.jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {self.jobs}")


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


def constant_diffusion_value(problem, grid):
    """The constant value of the diffusion coefficient, or None if it varies.

    Samples the coefficient at the same staggered edge points the assembly
    uses, plus interior nodes, so any variation the discrete operator can
    see is detected.
    """
    h, m1 = grid.h, grid.m1
    edges = (np.arange(m1 + 1) + 0.5) * h
    nodes = (np.arange(m1) + 1) * h
    samples = [
        np.asarray(problem.a(e1, e2), dtype=float).ravel()
        for e1, e2 in (
            np.meshgrid(edges, nodes, indexing="ij"),
            np.meshgrid(nodes, edges, indexing="ij"),
            np.meshgrid(nodes, nodes, indexing="ij"),
        )
    ]
    flat = np.concatenate(samples)
    value = float(flat[0])
    if np.max(np.abs(flat - value)) > 1e-12 * max(1.0, abs(value)):
        return None
    return value


def make_inner_solver(problem, grid, spec):
    """Build the frequency-solve factory, failing fast on incompatibility."""
    if spec.inner == "dst":
        value = constant_diffusion_value(problem, grid)
        if value is None:
            raise ConfigurationError(
                "the sine-transform inner solver requires a constant diffusion "
                "coefficient; this problem's coefficient varies in space "
                "(use the multigrid inner solver instead)"
            )
        return DstShiftedSolver(grid, diffusion=value)
    return MgShiftedSolver(
        grid, problem.a, pre=spec.mg_pre, post=spec.mg_post, cycles=spec.mg_cycles
    )


def pick_epsilon(grid, spec):
    if spec.eps_policy == "fixed":
        return spec.eps_value
    return choose_epsilon(grid, policy=spec.eps_policy, delta=spec.delta)


@dataclass(frozen=True)
class CellResult:
    """Everything measured for one (gamma, h) cell."""

    gamma: float
    h: float
    m1: int
    n: int
    dof: int
    iterations: int
    converged: bool
    cpu_seconds: float
    error: float = None
    failure: str = None


def solve_cell(spec, gamma, h):
    """Assemble and solve one cell; wall time covers the GMRES loop only.

    A FloatingPointError from the preconditioner's round-off guard fails
    only this cell: it comes back unconverged, with no iterations or error
    and the guard's message in ``failure``.
    """
    level = mesh_level(h)
    grid = TimeSpaceGrid.from_h(h, n=2**level)
    problem = get_problem(f"example{spec.example}", gamma)
    inner = make_inner_solver(problem, grid, spec)

    op = AllAtOnceOperator(grid, build_stiffness(grid, problem.a), gamma)
    rhs = assemble_rhs(problem, grid)
    prec = RbdEpsPreconditioner(grid, gamma, pick_epsilon(grid, spec), inner)

    mn = grid.m * grid.n
    start = time.perf_counter()
    try:
        report = gmres_solve(
            op.matvec, rhs, apply_prec=prec.apply_inverse, tol=spec.tol, maxit=spec.maxit
        )
    except FloatingPointError as exc:
        return CellResult(
            gamma=gamma, h=h, m1=grid.m1, n=grid.n, dof=2 * mn, iterations=0,
            converged=False, cpu_seconds=time.perf_counter() - start, failure=str(exc),
        )
    cpu = time.perf_counter() - start

    state = report.x[:mn] / np.sqrt(gamma)
    adjoint = report.x[mn:]
    err = None
    if problem.exact_y is not None and problem.exact_p is not None:
        err = float(error_norm(state, adjoint, problem, grid))
    return CellResult(
        gamma=gamma,
        h=h,
        m1=grid.m1,
        n=grid.n,
        dof=2 * mn,
        iterations=report.iterations,
        converged=report.converged,
        cpu_seconds=cpu,
        error=err,
    )


def _solve_cell_args(packed):
    spec_kwargs, gamma, h = packed
    return solve_cell(ExperimentSpec(**spec_kwargs), gamma, h)


def run_experiment(spec):
    """Run every (h, gamma) cell of the sweep, h outermost, in table order."""
    cells = [(h, gamma) for h in spec.h_values for gamma in spec.gammas]
    if spec.jobs == 1 or len(cells) <= 1:
        return [solve_cell(spec, gamma, h) for h, gamma in cells]
    spec_kwargs = {
        name: getattr(spec, name) for name in spec.__dataclass_fields__
    }
    packed = [(spec_kwargs, gamma, h) for h, gamma in cells]
    with concurrent.futures.ProcessPoolExecutor(max_workers=spec.jobs) as pool:
        return list(pool.map(_solve_cell_args, packed))


# ------------------------------------------------------------- formatting


def three_significant(x):
    """Compact 3-significant-digit scientific form: 0.0154 -> '1.54e-2'."""
    if x is None:
        return ""
    if x == 0:
        return "0"
    exponent = math.floor(math.log10(abs(x)))
    mantissa = x / 10.0**exponent
    if abs(round(mantissa, 2)) >= 10.0:  # rounding spillover, e.g. 9.996
        mantissa /= 10.0
        exponent += 1
    return f"{mantissa:.2f}e{exponent}"


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


def csv_text(results):
    buf = io.StringIO()
    write_csv(results, buf)
    return buf.getvalue()


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

