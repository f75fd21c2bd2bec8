"""Benchmark driver and command-line behavior on desk-size grids."""

import csv
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dense_backend import PhysicalDstSolver

import pintopt

from pintopt import bench, discretize, shifted
from pintopt.bench import (
    CSV_COLUMNS,
    ConfigurationError,
    ExperimentSpec,
    cell_grid,
    constant_diffusion_value,
    mesh_level,
    run_experiment,
    solve_cell,
    three_significant,
    write_csv,
)
from pintopt.cli import (
    SETTINGS,
    build_parser,
    main,
    parse_h_token,
    parse_list,
    spec_from_args,
)
from pintopt.discretize import (
    TimeSpaceGrid,
    assemble_rhs,
    build_stiffness,
    error_norm,
    sample_space,
    stencil,
)
from pintopt.gmres import gmres_solve
from pintopt.multigrid import MgShiftedSolver
from pintopt.operators import AllAtOnceOperator
from pintopt.problems import EXAMPLES, ParabolicControlProblem, get_problem
from pintopt.rbd import RbdEpsPreconditioner, rate_constant

FAST = dict(h_values=(2.0**-3,), gammas=(1e-4, 1e-2))
GIB = 2**30


def csv_text(results):
    buf = io.StringIO()
    write_csv(results, buf)
    return buf.getvalue()


# ------------------------------------------------------------ spec checks


def test_spec_accepts_every_example_the_registry_builds():
    for example in EXAMPLES:
        spec = ExperimentSpec(example=example, h_values=(2.0**-3,), gammas=(1.0,))
        assert isinstance(get_problem(spec.example, 1.0), ParabolicControlProblem)


def test_spec_rejects_a_bool_example():
    # True == 1 is a key of the registry, but a bool names no example, as
    # the command line's integer converter already says
    for flag in (True, False):
        with pytest.raises(ConfigurationError, match=f"unknown example {flag}; choose from"):
            ExperimentSpec(example=flag, h_values=(2.0**-3,), gammas=(1.0,))


def test_example_given_as_float_solves_that_example():
    # the spec and the registry agree on which numbers name an example
    cells = dict(h_values=(2.0**-3,), gammas=(1.0,))
    want = run_experiment(ExperimentSpec(example=1, **cells))
    got = run_experiment(ExperimentSpec(example=1.0, **cells))
    assert [(r.dof, r.iterations, r.converged, r.error) for r in got] == [
        (r.dof, r.iterations, r.converged, r.error) for r in want
    ]


def test_spec_rejects_bad_values():
    with pytest.raises(ConfigurationError, match="example"):
        ExperimentSpec(example=7)
    with pytest.raises(ConfigurationError, match="inner"):
        ExperimentSpec(example=1, inner="cg")
    with pytest.raises(ConfigurationError, match="power of two"):
        ExperimentSpec(example=1, h_values=(0.3,))
    with pytest.raises(ConfigurationError, match="gamma"):
        ExperimentSpec(example=1, gammas=(0.0,))
    with pytest.raises(ConfigurationError, match="jobs"):
        ExperimentSpec(example=1, jobs=0)


@pytest.mark.parametrize("field, value", [
    ("maxit", 2.5),
    ("maxit", True),
    ("jobs", 1.5),
    ("tol", "1e-6"),
    ("h_values", 0.25),
    ("gammas", (1e-4, None)),
    ("delta", 0.5 + 0j),
], ids=lambda v: repr(v))
def test_spec_rejects_values_of_the_wrong_type(field, value):
    # each would reach a TypeError inside run_experiment; the spec names the
    # field and the value in one line, before any cell is solved
    with pytest.raises(ConfigurationError, match=f"^{field} must be ") as caught:
        ExperimentSpec(example=1, **{**dict(h_values=(2.0**-3,), gammas=(1.0,)), field: value})
    assert "\n" not in str(caught.value) and repr(value) in str(caught.value)


def test_empty_h_or_gamma_list_is_a_configuration_error():
    for empty in (dict(h_values=()), dict(gammas=())):
        with pytest.raises(ConfigurationError, match="at least one h and one gamma"):
            ExperimentSpec(example=1, **empty)


def test_spec_rejects_delta_outside_unit_interval():
    # the contraction factor reaches 1 at delta = 1, so no rate is certified there
    for delta in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigurationError, match="delta"):
            ExperimentSpec(example=1, delta=delta)
    assert ExperimentSpec(example=1, delta=0.99).delta == 0.99


def test_spec_rejects_delta_below_the_round_off_floor():
    # eps shrinks with h, so the finest h of the sweep decides. Just above the
    # floor both tables keep every 3-digit e_h of delta = 0.5. At delta = 1e-10
    # and h = 2^-5 example 1 already loses a digit (gamma = 1); far below it
    # cells "converge" to errors of order 1 or fail as not finite
    def least(h):  # the delta that gives eps = EPS_FLOOR at tau = h, horizon 1
        return 2 * bench.EPS_FLOOR / math.sqrt(h) / (1 - bench.EPS_FLOOR)

    for h in (2.0**-5, 2.0**-6):
        assert ExperimentSpec(example=1, h_values=(h,), delta=1.001 * least(h)).delta > 0
    for delta, h_values in [(0.999 * least(2.0**-6), (2.0**-5, 2.0**-6)), (1e-10, (2.0**-5,)),
                            (1e-15, (2.0**-5,)), (1e-250, (2.0**-4,))]:
        with pytest.raises(ConfigurationError, match="round-off floor"):
            ExperimentSpec(example=1, h_values=h_values, delta=delta)


def test_fine_mesh_builds_with_the_fields_of_a_benchmark_cell(monkeypatch):
    # the fields a benchmark harness sets, and no other: on an 8 GiB machine
    # h = 2^-7 needs no opt-in, its cell at the default maxit needing 3.4 GiB
    monkeypatch.setattr(bench, "available_memory", lambda: 8 * GIB)
    spec = ExperimentSpec(example=1, inner="dst", tol=1e-6, h_values=(2**-7,), gammas=(1.0,))
    assert spec.h_values == (2.0**-7,)


def test_memory_check_rejects_a_cell_whose_basis_does_not_fit(monkeypatch):
    # h = 2^-6: N = 508,032 unknowns, 3.9 MiB an array, so maxit 100 needs
    # (101 + WORKING_ARRAYS) arrays, 0.41 GiB with the sine transform's 7
    size = 2 * 63**2 * 64
    need = 8 * size * (100 + 1 + bench.WORKING_ARRAYS["dst"])
    monkeypatch.setattr(bench, "available_memory", lambda: need - 1)
    with pytest.raises(ConfigurationError) as info:
        ExperimentSpec(example=1, h_values=(2.0**-5, 2.0**-6))
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(
        "h = 2^-6 needs 0.41 GiB at maxit 100 for 1 cell at a time, but 0.41 GiB is available"
    )
    assert message.endswith("the largest maxit that fits is 99")
    assert ExperimentSpec(example=1, h_values=(2.0**-6,), maxit=99).maxit == 99
    # jobs multiplies the need by the cells that run together, min(jobs, cells)
    with pytest.raises(ConfigurationError) as info:
        ExperimentSpec(example=1, h_values=(2.0**-6,), maxit=99, jobs=4)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith("h = 2^-6 needs 1.62 GiB at maxit 99 for 4 cells at a time")
    assert message.endswith("the largest maxit that fits is 18")
    assert ExperimentSpec(example=1, h_values=(2.0**-6,), maxit=18, jobs=4).jobs == 4
    one_cell = ExperimentSpec(example=1, h_values=(2.0**-6,), gammas=(1.0,), maxit=99, jobs=4)
    assert one_cell.jobs == 4
    monkeypatch.setattr(bench, "available_memory", lambda: need)
    assert ExperimentSpec(example=1, h_values=(2.0**-6,)).maxit == 100
    monkeypatch.setattr(bench, "available_memory", lambda: 1000)
    with pytest.raises(ConfigurationError, match="no maxit fits"):
        ExperimentSpec(example=1, h_values=(2.0**-2,), maxit=1)


def test_memory_check_counts_the_largest_cells_that_run_together(monkeypatch):
    # two meshes, two gammas, four jobs: the cells running together are the
    # two on h = 2^-6 and the two on h = 2^-5, 8 times smaller, not four
    # on the finest mesh
    fine, coarse = 2 * 63**2 * 64, 2 * 31**2 * 32
    need = 2 * 8 * (fine + coarse) * (40 + 1 + bench.WORKING_ARRAYS["dst"])
    spec = dict(example=1, h_values=(2.0**-5, 2.0**-6), gammas=(1e-4, 1.0), maxit=40, jobs=4)
    monkeypatch.setattr(bench, "available_memory", lambda: need)
    assert ExperimentSpec(**spec).jobs == 4
    assert 4 * 8 * fine * (40 + 1 + bench.WORKING_ARRAYS["dst"]) > need
    monkeypatch.setattr(bench, "available_memory", lambda: need - 1)
    with pytest.raises(ConfigurationError) as info:
        ExperimentSpec(**spec)
    message = str(info.value)
    assert message.startswith("h = 2^-6 needs 0.41 GiB at maxit 40 for 4 cells at a time")
    assert message.endswith("the largest maxit that fits is 39")


def test_memory_check_caps_maxit_at_the_system_size(monkeypatch):
    # gmres_solve never reserves more than N + 1 rows, whatever maxit asks for
    size = 2 * 7**2 * 8
    need = 8 * size * (size + 1 + bench.WORKING_ARRAYS["dst"])
    monkeypatch.setattr(bench, "available_memory", lambda: need)
    assert ExperimentSpec(example=1, h_values=(2.0**-3,), maxit=10**8).maxit == 10**8


def test_memory_check_counts_the_working_arrays_of_the_implied_backend(monkeypatch):
    # example 1 runs the sine transform, which keeps fewer working arrays
    # than the nine once counted for every backend, so a cell that fitted
    # with nine still fits; example 2, or inner="mg", runs multigrid, whose
    # V-cycle keeps more
    size = 2 * 63**2 * 64
    assert bench.WORKING_ARRAYS["dst"] <= 9 < bench.WORKING_ARRAYS["mg"]
    monkeypatch.setattr(bench, "available_memory", lambda: 8 * size * (101 + 9))
    assert ExperimentSpec(example=1, h_values=(2.0**-6,)).maxit == 100
    need = 8 * size * (101 + bench.WORKING_ARRAYS["mg"])
    monkeypatch.setattr(bench, "available_memory", lambda: need - 1)
    for fields in (dict(example=2), dict(example=1, inner="mg"), dict(example=2, inner="mg")):
        with pytest.raises(ConfigurationError, match="the largest maxit that fits is 99"):
            ExperimentSpec(h_values=(2.0**-6,), **fields)
    assert ExperimentSpec(example=1, h_values=(2.0**-6,)).maxit == 100
    monkeypatch.setattr(bench, "available_memory", lambda: need)
    assert ExperimentSpec(example=2, h_values=(2.0**-6,)).maxit == 100


def test_memory_check_is_skipped_when_memory_cannot_be_read(monkeypatch):
    monkeypatch.setattr(bench, "available_memory", lambda: None)
    spec = ExperimentSpec(example=1, h_values=(2.0**-10,))
    assert spec.h_values == (2.0**-10,)


@pytest.mark.parametrize("text,want", [
    ("MemTotal:       8211568 kB\nMemAvailable:   7662992 kB\n", 7662992 * 1024),
    ("MemTotal:       8211568 kB\n", None),
    (None, None),
], ids=["line", "no-line", "no-file"])
def test_available_memory_reads_meminfo(monkeypatch, text, want):
    # a missing file (None) or a missing line leaves the memory unknown
    def fake_open(path):
        assert path == "/proc/meminfo"
        if text is None:
            raise FileNotFoundError(path)
        return io.StringIO(text)

    monkeypatch.setattr(bench, "open", fake_open, raising=False)
    assert bench.available_memory() == want


def test_mesh_level_parses_powers_of_two():
    assert mesh_level(0.5) == 1
    assert mesh_level(2.0**-6) == 6
    for bad in (0.3, 1.0, -0.5, 0.75):
        with pytest.raises(ConfigurationError):
            mesh_level(bad)


def test_constant_diffusion_detection():
    grid = TimeSpaceGrid(m1=7, n=4)

    def detect(coeff):
        return constant_diffusion_value(stencil(grid, coeff), grid)

    assert detect(get_problem(1, 1e-4).a) == 1.0
    assert detect(get_problem(2, 1e-4).a) is None
    assert detect(lambda x1, x2: np.full(np.shape(x1), 3.0)) == 3.0
    # one edge sample off the constant changes two diagonal and two coupling entries
    assert detect(lambda x1, x2: np.where((x1 == 0.0625) & (x2 == 0.125), 3.5, 3.0)) is None
    # a variation far below any discretization error still gets multigrid
    assert detect(lambda x1, x2: 3.0 * (1.0 + 1e-6 * np.sin(np.pi * x1))) is None


# ------------------------------------------------------------- formatting


def test_three_significant_digits():
    assert three_significant(0.0154) == "1.54e-2"
    assert three_significant(0.75) == "7.50e-1"
    assert three_significant(7.19e-4) == "7.19e-4"
    assert three_significant(9.996e-3) == "1.00e-2"  # rounding spillover
    assert three_significant(0.0) == "0"
    assert three_significant(None) == ""
    assert three_significant(-0.0154) == "-1.54e-2"
    # the exact binary value decides a near-halfway case: the float nearest
    # 1.035e-8 lies just above that halfway point, the one nearest 1.145e-8
    # just below its own
    assert three_significant(1.035e-8) == "1.04e-8"
    assert three_significant(1.145e-8) == "1.14e-8"


# ----------------------------------------------------------------- driver


def test_solve_cell_converges_and_reports():
    res = solve_cell(ExperimentSpec(example=1), 1e-4, 2.0**-3)
    assert res.converged
    assert res.dof == 2 * 49 * 8
    assert 0 < res.error < 1
    assert res.cpu_seconds > 0


def test_sine_transform_cell_assembles_no_stiffness(monkeypatch):
    # the backend is chosen from the stencil, and the sine basis needs no K
    def refuse(bands):
        raise AssertionError("assembled the stiffness")

    monkeypatch.setattr(bench, "build_stiffness", refuse)
    assert solve_cell(ExperimentSpec(example=1), 1e-4, 2.0**-3).converged
    with pytest.raises(AssertionError, match="assembled"):
        solve_cell(ExperimentSpec(example=2), 1e-4, 2.0**-3)


def test_multigrid_cell_samples_the_coefficient_once(monkeypatch):
    # the backend choice and the CSR stiffness read one stencil, which the
    # first cell of the mesh samples; the multigrid hierarchy samples its
    # levels on its own. The next cell of that mesh samples nothing
    calls = []
    for module in (bench, discretize):
        def counted(grid, a, original=module.stencil):
            calls.append(grid.m1)
            return original(grid, a)

        monkeypatch.setattr(module, "stencil", counted)
    spec = ExperimentSpec(example=2)
    h = 2.0**-3
    assert solve_cell(spec, 1e-4, h).converged
    assert calls == [cell_grid(h).m1]
    assert solve_cell(spec, 1e-2, h).converged
    assert calls == [cell_grid(h).m1]


def test_cells_of_one_mesh_share_one_set_up(monkeypatch):
    # the gamma cells of one mesh get one backend and one K; another h or
    # another inner solver gets its own set-up
    backends, stiffnesses = [], []
    preconditioner, build = bench.RbdEpsPreconditioner, bench.build_stiffness

    def recording(grid, gamma, eps, inner, **kwargs):
        backends.append(inner)
        return preconditioner(grid, gamma, eps, inner, **kwargs)

    def counted(bands):
        stiffnesses.append(build(bands))
        return stiffnesses[-1]

    monkeypatch.setattr(bench, "RbdEpsPreconditioner", recording)
    monkeypatch.setattr(bench, "build_stiffness", counted)
    h = 2.0**-3
    rows = run_experiment(ExperimentSpec(example=2, h_values=(h,), gammas=(1e-6, 1e-4, 1e-2)))
    assert all(r.converged for r in rows)
    assert len(stiffnesses) == 1
    assert len(backends) == 3 and backends[1] is backends[0] and backends[2] is backends[0]
    assert solve_cell(ExperimentSpec(example=2), 1e-2, 2.0**-2).converged
    assert len(stiffnesses) == 2 and backends[-1] is not backends[0]

    # example 1 runs multigrid when asked, right after a sine-transform cell
    # of the same mesh, and as it would from a cold start
    assert solve_cell(ExperimentSpec(example=1), 1e-2, h).converged
    assert isinstance(backends[-1], shifted.DstShiftedSolver)
    warm = solve_cell(ExperimentSpec(example=1, inner="mg"), 1e-2, h)
    assert isinstance(backends[-1], MgShiftedSolver)
    bench.mesh_setup.cache_clear()
    cold = solve_cell(ExperimentSpec(example=1, inner="mg"), 1e-2, h)
    assert backends[-1] is not backends[-2]
    assert (warm.iterations, warm.error) == (cold.iterations, cold.error)


@pytest.mark.parametrize("example", [1, 2])
def test_a_warm_cell_is_a_cold_cell(monkeypatch, example):
    # the cells of one mesh refill one workspace: whatever cell ran before,
    # with whatever maxit, a cell solves bit for bit as in a fresh process.
    # maxit 10**6 is capped at the system size, N = 784, which resizes the
    # basis, and maxit 3 leaves the cell unconverged
    h = 2.0**-3
    cells = [(100, 1e-2), (10**6, 1e-6), (100, 1e-2), (3, 1e-6), (10**6, 1e-2)]
    solves = []
    original = bench.gmres_solve

    def recording(apply_op, b, **kwargs):
        report = original(apply_op, b, **kwargs)
        solves.append((apply_op, b, report.x))
        return report

    def solve(maxit, gamma):
        result = solve_cell(ExperimentSpec(example=example, h_values=(h,), maxit=maxit), gamma, h)
        # a caller can still check the cell's true residual once it returns:
        # the kept b and x are intact, and the operator has this cell's gamma
        apply_op, b, x = solves.pop()
        residual = np.linalg.norm(b - apply_op(x)) / np.linalg.norm(b)
        return result.iterations, result.converged, result.error, result.failure, residual

    monkeypatch.setattr(bench, "gmres_solve", recording)
    warm = [solve(maxit, gamma) for maxit, gamma in cells]
    for (maxit, gamma), got in zip(cells, warm):
        bench.mesh_setup.cache_clear()
        assert got == solve(maxit, gamma)
    assert [converged for _, converged, *_ in warm] == [True, True, True, False, True]
    # 1.9e-7 to 1.0e-6 at the default tol 1e-6
    assert all(residual < 1e-5 for _, converged, *_, residual in warm if converged)


@pytest.mark.parametrize("example", [1, 2])
def test_a_warm_cell_allocates_no_system_sized_array(example):
    # after the first cell of a mesh, a cell refills the kept workspace and
    # combines the problem data from the mesh's space samples; what it still
    # makes is the preconditioner's small arrays and, on example 2, the
    # V-cycle's sparse-product outputs: 0.66 N-vectors at the peak on
    # example 1, 1.49 on example 2. A cell that sampled the problem
    # callbacks on the whole space-time grid would peak at 1.74 on example 2.
    # A cold cell reserves its (101, N) basis: 106 and 111
    h = 2.0**-5
    spec = ExperimentSpec(example=example)
    assert solve_cell(spec, 1e-2, h).converged
    tracemalloc.start()
    try:
        result = solve_cell(spec, 1e-6, h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.converged
    assert peak < 1.6 * 8 * result.dof


def test_dst_rejects_variable_coefficient_before_solving():
    with pytest.raises(ConfigurationError, match="constant diffusion"):
        solve_cell(ExperimentSpec(example=2, inner="dst"), 1e-4, 2.0**-3)


@pytest.mark.parametrize("inner", ["mg", None])
def test_mg_inner_solves_variable_coefficient(inner):
    # with no inner solver named, the variable coefficient selects multigrid
    res = solve_cell(ExperimentSpec(example=2, inner=inner), 1e-4, 2.0**-3)
    assert res.converged
    assert res.error < 0.1


def test_solve_cell_runs_the_certified_damping(monkeypatch):
    # eps = O(sqrt(tau)) of the theorem: 2 eps sqrt(n) / (1 - eps) = delta
    seen = []
    original = bench.RbdEpsPreconditioner

    def recording(grid, gamma, eps, inner, **kwargs):
        seen.append(eps)
        return original(grid, gamma, eps, inner, **kwargs)

    monkeypatch.setattr(bench, "RbdEpsPreconditioner", recording)
    assert solve_cell(ExperimentSpec(example=1, delta=0.3), 1e-2, 2.0**-3).converged
    [eps] = seen
    assert eps == rate_constant(0.3, 1 / 8, 1.0)
    assert 2 * eps * math.sqrt(8) / (1 - eps) == pytest.approx(0.3)


def physical_basis_cell(spec, gamma, h):
    """The cell solved with the 5-point stiffness and the physical-basis DST solve."""
    grid = TimeSpaceGrid.from_h(h, n=round(1 / h))
    problem = get_problem(spec.example, gamma)
    op = AllAtOnceOperator(grid, build_stiffness(stencil(grid, problem.a)), gamma)
    eps = rate_constant(spec.delta, grid.tau, grid.horizon)
    prec = RbdEpsPreconditioner(grid, gamma, eps, PhysicalDstSolver(grid))
    space = sample_space(problem, grid)
    report = gmres_solve(
        op.matvec, assemble_rhs(problem, grid, space), apply_prec=prec.apply_inverse,
        tol=spec.tol, maxit=spec.maxit,
    )
    return report.iterations, error_norm(report.x, problem, grid, space)


@pytest.mark.parametrize("gamma", [1e-10, 1e-2])
def test_sine_basis_cell_matches_the_physical_basis(gamma, monkeypatch):
    # the cell runs in the sine basis: the same iterates and error as the
    # physical-basis solve. The cell that builds the mesh rotates its space
    # samples with at most one dst2d, and a warm cell runs none, however
    # many iterations it takes
    calls = []
    original = shifted.dst2d

    def counted(v, **kwargs):
        calls.append(v.shape)
        return original(v, **kwargs)

    spec = ExperimentSpec(example=1)
    want_iterations, want_error = physical_basis_cell(spec, gamma, 2.0**-4)
    monkeypatch.setattr(shifted, "dst2d", counted)
    for most in (1, 0):  # the cold cell, then a warm one
        calls.clear()
        res = solve_cell(spec, gamma, 2.0**-4)
        assert res.iterations == want_iterations
        assert res.error == pytest.approx(want_error, rel=1e-12)
        assert len(calls) <= most


def test_rows_run_in_table_order():
    spec = ExperimentSpec(example=1, h_values=(2.0**-2, 2.0**-3), gammas=(1e-4, 1.0))
    rows = run_experiment(spec)
    assert [(r.h, r.gamma) for r in rows] == [
        (0.25, 1e-4), (0.25, 1.0), (0.125, 1e-4), (0.125, 1.0)
    ]


def test_parallel_jobs_match_sequential():
    seq = run_experiment(ExperimentSpec(example=1, **FAST))
    par = run_experiment(ExperimentSpec(example=1, jobs=2, **FAST))
    assert [r.iterations for r in seq] == [r.iterations for r in par]
    assert [r.error for r in seq] == pytest.approx([r.error for r in par], rel=1e-12)


def test_process_pool_has_at_most_one_worker_per_cell(monkeypatch):
    # a fake executor records the pool size and maps in this process, so no
    # worker is started however many jobs are asked for
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(bench.concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(bench, "solve_cell", lambda spec, gamma, h: (h, gamma))
    for jobs, want in [(100_000, 3), (3, 3), (2, 2)]:
        spec = ExperimentSpec(example=1, h_values=(2.0**-3,), gammas=(1e-6, 1e-4, 1e-2), jobs=jobs)
        assert run_experiment(spec) == [(0.125, 1e-6), (0.125, 1e-4), (0.125, 1e-2)]
        assert sizes.pop() == want


def fail_guard_for_gamma(monkeypatch, gamma):
    """Make the preconditioner's round-off guard trip in the cells of one gamma.

    The preconditioner keeps no gamma, so its cells are told apart by
    alpha = tau / sqrt(gamma). The patch reaches the ``jobs`` workers because
    the process pool forks.
    """
    original = RbdEpsPreconditioner.apply_inverse

    def apply_inverse(self, r, out=None):
        if self.alpha == self.grid.tau / np.sqrt(gamma):
            raise FloatingPointError("imaginary residue 1.000e-03 exceeds the round-off bound")
        return original(self, r, out)

    monkeypatch.setattr(RbdEpsPreconditioner, "apply_inverse", apply_inverse)


def unpatched_rows(spec):
    """The sweep's (iterations, error) per cell, from a cold start and no patch."""
    rows = run_experiment(spec)
    bench.mesh_setup.cache_clear()
    return [(r.iterations, r.error) for r in rows]


@pytest.mark.parametrize("jobs", [1, 2])
def test_guard_failure_fails_only_its_cell(monkeypatch, jobs):
    spec = ExperimentSpec(example=1, h_values=(2.0**-3,), gammas=(1e-6, 1e-4, 1e-2), jobs=jobs)
    want = unpatched_rows(spec)
    fail_guard_for_gamma(monkeypatch, 1e-4)
    rows = run_experiment(spec)
    assert [r.gamma for r in rows] == [1e-6, 1e-4, 1e-2]
    assert [r.converged for r in rows] == [True, False, True]
    assert "imaginary residue" in rows[1].failure and rows[1].error is None
    assert rows[0].failure is None and rows[2].failure is None
    assert [(r.iterations, r.error) for r in rows[::2]] == want[::2]


class NanInner:
    """A backend whose solves return NaN, standing in for the mesh's own."""

    def factor(self, sigmas):
        return lambda rhs, out: out.fill(np.nan)


def nan_inner_solve_for_gamma(monkeypatch, gamma):
    """Make the inner solves of one gamma's cells return NaN.

    The preconditioner of those cells gets a backend of its own, so the
    one the cells of a mesh share is left as it is. The patch reaches the
    ``jobs`` workers because the process pool forks.
    """
    original = bench.RbdEpsPreconditioner

    def preconditioner(grid, cell_gamma, eps, inner, **kwargs):
        nan = cell_gamma == gamma
        return original(grid, cell_gamma, eps, NanInner() if nan else inner, **kwargs)

    monkeypatch.setattr(bench, "RbdEpsPreconditioner", preconditioner)


@pytest.mark.parametrize("jobs,example", [
    pytest.param(1, 1, id="1"),
    pytest.param(2, 1, id="2"),
    pytest.param(1, 2, id="1-example2"),
    pytest.param(2, 2, id="2-example2"),
])
def test_non_finite_inner_solve_fails_only_its_cell(monkeypatch, jobs, example):
    # the cells of one mesh share one backend and one workspace, and the
    # NaN cell leaks nothing into the next one: the others solve bit for
    # bit as in a sweep without it
    spec = ExperimentSpec(
        example=example, h_values=(2.0**-3,), gammas=(1e-6, 1e-4, 1e-2), jobs=jobs
    )
    want = unpatched_rows(spec)
    nan_inner_solve_for_gamma(monkeypatch, 1e-4)
    rows = run_experiment(spec)
    assert [r.gamma for r in rows] == [1e-6, 1e-4, 1e-2]
    assert [r.converged for r in rows] == [True, False, True]
    assert "not finite" in rows[1].failure and rows[1].error is None
    assert rows[0].failure is None and rows[2].failure is None
    assert [(r.iterations, r.error) for r in rows[::2]] == want[::2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_memory_error_fails_only_its_cell(monkeypatch, jobs):
    # a GMRES basis too large for the machine ends its own cell, not the sweep;
    # the patch reaches the ``jobs`` workers because the process pool forks
    original = bench.gmres_solve

    def gmres_solve(apply_op, b, **kwargs):
        op = apply_op.__self__
        if op.alpha == op.grid.tau / np.sqrt(1e-4):
            raise MemoryError("Unable to allocate 584. GiB for an array")
        return original(apply_op, b, **kwargs)

    spec = ExperimentSpec(example=1, h_values=(2.0**-3,), gammas=(1e-6, 1e-4, 1e-2), jobs=jobs)
    want = unpatched_rows(spec)
    monkeypatch.setattr(bench, "gmres_solve", gmres_solve)
    rows = run_experiment(spec)
    assert [r.converged for r in rows] == [True, False, True]
    assert "Unable to allocate" in rows[1].failure and rows[1].iterations == 0
    assert [(r.iterations, r.error) for r in rows[::2]] == want[::2]


def test_csv_shape_and_determinism():
    spec = ExperimentSpec(example=1, **FAST)
    text_a = csv_text(run_experiment(spec))
    text_b = csv_text(run_experiment(spec))
    rows_a = list(csv.DictReader(text_a.splitlines()))
    rows_b = list(csv.DictReader(text_b.splitlines()))
    assert text_a.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(rows_a) == 2
    for row_a, row_b in zip(rows_a, rows_b):
        for col in CSV_COLUMNS:
            if col != "cpu_s":  # timing is the one permitted difference
                assert row_a[col] == row_b[col]
    for row in rows_a:
        assert float(row["e_h_raw"]) == pytest.approx(float(row["e_h"]), rel=5e-3)
        assert math.isclose(float(row["h"]), 2.0**-3)


# -------------------------------------------------------------------- CLI


def run_cli(*argv):
    return main(list(argv))


def test_cli_solve_writes_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = run_cli(
        "solve", "--example", "1", "--h", "2^-3", "--gamma", "1e-4,1e-2",
        "--out", str(out),
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "gamma" in captured.out and "iter" in captured.out
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 2
    assert rows[0]["dof"] == str(2 * 49 * 8)


def test_cli_exit_nonzero_when_unconverged(capsys):
    code = run_cli(
        "solve", "--example", "1", "--h", "2^-3", "--gamma", "1e-4", "--maxit", "2"
    )
    assert code == 1
    assert "did not converge" in capsys.readouterr().err


def test_cli_huge_maxit_is_capped_at_the_system_size(tmp_path):
    # a (maxit + 1, N) GMRES basis for maxit = 1e8 would need 584 GiB; the
    # Krylov space cannot exceed N, so the run is the default one
    runs = {}
    for name, extra in (("default", ()), ("huge", ("--maxit", "100000000"))):
        out = tmp_path / f"{name}.csv"
        argv = ("solve", "--example", "1", "--h", "2^-3", "--out", str(out), *extra)
        assert run_cli(*argv) == 0
        runs[name] = [row["iter"] for row in csv.DictReader(out.read_text().splitlines())]
    assert runs["huge"] == runs["default"]


def test_cli_reports_guard_failure_and_exits_one(monkeypatch, capsys):
    fail_guard_for_gamma(monkeypatch, 1e-2)
    code = run_cli("solve", "--example", "1", "--h", "2^-3", "--gamma", "1e-4,1e-2")
    assert code == 1
    captured = capsys.readouterr()
    assert "cell gamma=0.01, h=0.125 failed: imaginary residue" in captured.err
    assert "1 cell(s) did not converge" in captured.err
    assert captured.out.count("yes") == 1 and captured.out.count("NO") == 1


def test_cli_configuration_error_exit_code(capsys):
    code = run_cli("solve", "--example", "2", "--h", "2^-3", "--inner", "dst")
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("solve", "--example", "1", "--eps-value", "0.1"),
    ("solve", "--example"),
    (),
    ("solve", "--help"),
])
def test_cli_argument_errors_are_one_configuration_error_line(argv, capsys):
    # argparse's usage errors exit 2 with one line, like every other
    # configuration error; --help still prints the help and exits 0
    if "--help" in argv:
        with pytest.raises(SystemExit) as stop:
            run_cli(*argv)
        assert stop.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: pintopt solve") and captured.err == ""
        return
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "example: 1\n"
        "h: 2^-3\n"
        "gamma: [1e-4]\n"
        "inner_solver: dst\n"
        "tol: 1e-8\n"
        "delta: 0.5\n"
        f"out: {tmp_path / 'cfg.csv'}\n"
    )
    code = run_cli("solve", "--example", "2", "--gamma", "1,1,1", "--config", str(cfg))
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "cfg.csv").read_text().splitlines()))
    assert len(rows) == 1  # config's single gamma overrode the flag list
    assert rows[0]["gamma"] == "0.0001"


@pytest.mark.parametrize("line,column,value", [
    ("h: 0.125", "h", "0.125"),
    ("gamma: 1.0", "gamma", "1"),
    ("gamma: 1", "gamma", "1"),
])
def test_cli_config_file_accepts_a_scalar_for_a_list_key(tmp_path, line, column, value):
    # a bare YAML number is a one-element list, not a traceback
    cfg = tmp_path / "scalar.yaml"
    cfg.write_text(f"example: 1\n{line}\nout: {tmp_path / 'scalar.csv'}\n")
    code = run_cli("solve", "--h", "2^-3", "--gamma", "1e-4,1e-2", "--config", str(cfg))
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "scalar.csv").read_text().splitlines()))
    assert rows[0][column] == value
    assert len(rows) == (2 if column == "h" else 1)


def test_cli_config_file_rejects_a_null_list_key(tmp_path, capsys):
    cfg = tmp_path / "null.yaml"
    cfg.write_text("example: 1\ngamma:\n")
    assert run_cli("solve", "--h", "2^-3", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and "gamma" in err


@pytest.mark.parametrize("flags", [
    ("--tol", "nan"),
    ("--gamma", "1e-4,inf"),
    ("--h", "nan"),
    ("--delta", "nan"),
    ("--delta", "1.5"),
    ("--maxit", "0"),
    ("--tol", "0"),
    ("--jobs", "0"),
    ("--h", "10^400"),
    ("--gamma", "abc"),
    ("--gamma", "1e-4,"),
    ("--h", "2^-3,x"),
    ("--tol", "abc"),
    ("--example", "1.9"),
    ("--example", "3"),
    ("--maxit", "1.5"),
    ("--jobs", "2.5"),
    ("--jobs", "true"),
    ("--inner", "cg"),
    ("--tol", "1"),
    ("--tol", "2"),
    ("--gamma", ""),
    ("--h", " "),
    ("--delta", "1e-15"),
])
def test_cli_rejects_non_finite_and_out_of_range_numbers(flags, capsys):
    code = run_cli("solve", "--example", "1", "--h", "2^-3", *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


@pytest.mark.parametrize("lines", [
    "maxit: 1.5",
    "example: 1.9",
    "example: true",
    "jobs: true",
    "jobs: 2.5",
    "maxit: false",
    "tol: true",
    "tol: abc",
    "delta: .nan",
    "gamma: []",
])
def test_cli_config_rejects_non_integral_and_boolean_values(tmp_path, lines, capsys):
    cfg = tmp_path / "strict.yaml"
    cfg.write_text(f"example: 1\nh: 2^-3\n{lines}\n")
    assert run_cli("solve", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


@pytest.mark.parametrize("text", [None, "h: [2^-3\n", "example: [1\n  - 2\n"])
def test_cli_config_file_errors_exit_two(tmp_path, text, capsys):
    # a missing file (None) and two YAML syntax errors
    cfg = tmp_path / "sweep.yaml"
    if text is not None:
        cfg.write_text(text)
    assert run_cli("solve", "--example", "1", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert str(cfg) in err


def never_solve(monkeypatch):
    def solve_cell(*args):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(bench, "solve_cell", solve_cell)


def test_cli_rejects_a_mesh_too_fine_for_memory_before_allocating(monkeypatch, capsys):
    # h = 2^-10 has 2.1e9 unknowns, a 16 GiB right-hand side: no maxit fits in 8 GiB
    never_solve(monkeypatch)
    monkeypatch.setattr(bench, "available_memory", lambda: 8 * GIB)
    tracemalloc.start()
    try:
        code = run_cli("solve", "--example", "1", "--h", "2^-10", "--gamma", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("no maxit fits\n")
    assert err.startswith("configuration error: h = 2^-10 needs 1724.63 GiB at maxit 100")
    assert peak < 2**20


@pytest.mark.parametrize("route", ["flag", "config", "directory"])
def test_cli_checks_out_path_before_solving(tmp_path, monkeypatch, route, capsys):
    never_solve(monkeypatch)
    out = tmp_path / "missing" / "results.csv"
    argv = ["solve", "--example", "1", "--h", "2^-3"]
    if route == "flag":
        argv += ["--out", str(out)]
    elif route == "config":
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(f"out: {out}\n")
        argv += ["--config", str(cfg)]
    else:
        out = tmp_path
        argv += ["--out", str(out)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("line", ["out:", "out: 3", "out: ''"])
def test_cli_config_rejects_an_out_that_is_no_path(tmp_path, monkeypatch, line, capsys):
    # a YAML null must not become the file name "None"
    never_solve(monkeypatch)
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(f"example: 1\nh: 2^-3\n{line}\n")
    assert run_cli("solve", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1 and "out" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.yaml"]


def test_cli_validate_checks_report_path_before_running(tmp_path, monkeypatch, capsys):
    def run_validation(delta):
        raise AssertionError("the checks ran")

    monkeypatch.setattr(pintopt.cli, "run_validation", run_validation)
    report = tmp_path / "missing" / "report.json"
    assert run_cli("validate", "--report", str(report)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert not report.parent.exists()


# a value for every setting, none of them its default, as a flag would spell it
PARITY_VALUES = {
    "example": "2", "h": "2^-3,2^-4", "gamma": "1e-3", "inner_solver": "mg",
    "tol": "1e-7", "maxit": "7", "delta": "0.3", "jobs": "2", "out": "parity.csv",
}


def test_every_setting_has_the_same_meaning_as_flag_and_config_key(tmp_path):
    fields = set(ExperimentSpec.__dataclass_fields__)
    assert {s.field for s in SETTINGS} == fields | {"out"}
    assert {s.key for s in SETTINGS} == set(PARITY_VALUES)
    argv = ["solve"]
    for s in SETTINGS:
        argv += [s.flag, PARITY_VALUES[s.key]]
    by_flag = build_parser().parse_args(argv)
    cfg = tmp_path / "parity.yaml"
    cfg.write_text("".join(f"{key}: {value}\n" for key, value in PARITY_VALUES.items()))
    by_key = build_parser().parse_args(["solve", "--config", str(cfg)])
    spec = spec_from_args(by_flag)
    assert spec == spec_from_args(by_key)
    assert by_flag.out == by_key.out == "parity.csv"
    default = ExperimentSpec(example=1)
    for s in SETTINGS:
        if s.field != "out":
            assert getattr(spec, s.field) != getattr(default, s.field), s.key


def test_solve_defaults_live_on_the_spec():
    args = build_parser().parse_args(["solve", "--example", "1"])
    assert spec_from_args(args) == ExperimentSpec(example=1)
    assert args.out is None


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("example: 1\nwibble: 3\n")
    code = run_cli("solve", "--config", str(cfg))
    assert code == 2
    assert "wibble" in capsys.readouterr().err


def test_cli_requires_example(capsys):
    code = run_cli("solve", "--h", "2^-3")
    assert code == 2
    assert "no example selected" in capsys.readouterr().err


def test_parse_h_token_variants():
    assert parse_h_token("2^-5") == 2.0**-5
    assert parse_h_token("2**-5") == 2.0**-5
    assert parse_h_token("0.125") == 0.125
    with pytest.raises(ConfigurationError):
        parse_h_token("five")
    with pytest.raises(ConfigurationError):
        parse_h_token("2^x")
    assert parse_list("", float) == ()
    assert parse_list([1, 2], float) == (1.0, 2.0)


def test_cli_validate_rejects_delta_outside_unit_interval(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert run_cli("validate", "--delta", "1.5", "--report", str(report)) == 2
    assert "delta" in capsys.readouterr().err
    assert not report.exists()


def test_cli_validate_delta_goes_through_the_shared_converter(tmp_path, capsys):
    assert build_parser().parse_args(["validate"]).delta == ExperimentSpec.delta
    report = tmp_path / "report.json"
    assert run_cli("validate", "--delta", "abc", "--report", str(report)) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1
    assert not report.exists()


def test_cli_validate_writes_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = run_cli("validate", "--report", str(report))
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "checks passed" in out
    payload = json.loads(report.read_text())
    assert payload["all_passed"] is True
    assert len(payload["checks"]) > 300
    sample = payload["checks"][0]
    assert set(sample) == {"name", "passed", "worst", "bound", "detail"}


# --------------------------------------------------------- package identity


def test_pyproject_matches_package_version():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "pintopt"
    assert project["version"] == pintopt.__version__


def test_package_does_not_import_scipy_fft():
    # the sine transform is a matrix product: importing the CLI, and so every
    # module it pulls in, must leave scipy.fft unloaded
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import pintopt.cli; "
        "print('scipy.fft' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_readme_layout_names_every_module():
    # the README's module map must list exactly the modules in src/pintopt
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    _, _, listing = block.partition("src/pintopt/\n")
    listing = listing.partition("\ntests/")[0]
    named = {line.split()[0] for line in listing.splitlines() if line.strip()}
    modules = {p.name for p in (root / "src" / "pintopt").glob("*.py")} - {"__init__.py"}
    assert named == modules


def test_readme_settings_table_names_every_setting():
    # the README's settings table must list exactly the solve flags and keys
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    table = readme.split("| flag | YAML key |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    flags = {flag.strip().strip("`") for flag, _ in rows}
    keys = {key.strip().strip("`") for _, key in rows} - {"—"}
    assert flags == {s.flag for s in SETTINGS} | {"--config"}
    assert keys == {s.key for s in SETTINGS}


def test_readme_python_example_runs():
    # the README's Python API block must run and print what its comment says
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    block = readme.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    printed = []
    exec(block, {"print": lambda *args: printed.append(args)})
    ((iterations, label, e_h),) = printed
    assert (iterations, label) == (8, "iterations, e_h =")
    assert three_significant(e_h) == "1.54e-2"
