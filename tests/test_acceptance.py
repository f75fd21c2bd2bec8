"""End-to-end acceptance: benchmark reproduction, equivalence, theory, robustness.

Each criterion is one test, so the verbose test report carries exactly one
pass/fail line per criterion. Reference iteration counts and error values
are the published benchmark targets for the two examples; tolerance bands
(iterations within +-1 / +-2, errors within 10% / 15%) account for
floating-point and inner-solver differences across environments.
"""

import time
from functools import partial

import numpy as np
import pytest
from dense_backend import PhysicalDstSolver, solve_sine_basis

from pintopt.bench import ExperimentSpec, cell_grid, run_experiment, solve_cell
from pintopt.discretize import (
    TimeSpaceGrid,
    assemble_rhs,
    build_stiffness,
    error_norm,
    stencil,
)
from pintopt.gmres import gmres_solve
from pintopt.problems import get_problem
from pintopt.rbd import RbdEpsPreconditioner
from pintopt.shifted import DstShiftedSolver, dst2d
from pintopt.validation import DenseBundle, run_validation

GAMMAS = (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0)

# reference benchmark targets: {h: ([iterations per gamma], [e_h per gamma])}
EXAMPLE1_TARGETS = {
    2.0**-5: ([4, 6, 8, 11, 12, 8], [1.54e-2, 1.54e-2, 1.54e-2, 1.42e-2, 3.10e-3, 7.19e-4]),
    2.0**-6: ([4, 6, 10, 11, 12, 8], [7.75e-3, 7.75e-3, 7.71e-3, 7.09e-3, 1.50e-3, 3.65e-4]),
}
EXAMPLE2_TARGETS = {
    2.0**-5: ([4, 6, 8, 14, 11, 6], [1.03e-3, 1.03e-3, 1.02e-3, 9.82e-4, 4.03e-3, 2.85e-2]),
    2.0**-6: ([4, 6, 10, 15, 9, 6], [5.17e-4, 5.17e-4, 5.15e-4, 4.92e-4, 2.17e-3, 1.43e-2]),
}


@pytest.fixture(scope="module")
def example1_table():
    spec = ExperimentSpec(example=1, h_values=(2.0**-5, 2.0**-6), gammas=GAMMAS, inner="dst")
    start = time.perf_counter()
    results = run_experiment(spec)
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def example2_table():
    spec = ExperimentSpec(example=2, h_values=(2.0**-5, 2.0**-6), gammas=GAMMAS, inner="mg")
    start = time.perf_counter()
    results = run_experiment(spec)
    return results, time.perf_counter() - start


def split_by_h(results):
    table = {}
    for res in results:
        table.setdefault(res.h, []).append(res)
    return table


def check_against_targets(results, targets, iter_band, err_rel):
    lines = []
    ok = True
    for h, rows in split_by_h(results).items():
        want_iters, want_errs = targets[h]
        for row, want_it, want_err in zip(rows, want_iters, want_errs):
            it_ok = abs(row.iterations - want_it) <= iter_band
            err_ok = abs(row.error - want_err) <= err_rel * want_err
            ok = ok and it_ok and err_ok and row.converged
            lines.append(
                f"  h={row.h:.6g} gamma={row.gamma:g}: iter {row.iterations} "
                f"(want {want_it}+-{iter_band}) e_h {row.error:.3e} "
                f"(want {want_err:.3e}+-{err_rel:.0%})"
                + ("" if it_ok and err_ok else "  <-- OUT OF BAND")
            )
    return ok, "\n".join(lines)


def test_criterion_1_example1_sine_transform_benchmark(example1_table):
    results, elapsed = example1_table
    ok, detail = check_against_targets(results, EXAMPLE1_TARGETS, iter_band=1, err_rel=0.10)
    in_time = elapsed < 30.0
    print(f"\n[criterion 1] {'PASS' if ok and in_time else 'FAIL'} "
          f"(elapsed {elapsed:.1f}s < 30s: {in_time})\n{detail}")
    assert ok, detail
    assert in_time, f"sweep took {elapsed:.1f}s, budget 30s"


@pytest.mark.parametrize("h", sorted(EXAMPLE1_TARGETS))
def test_exact_discrete_solution_gives_table_1_errors(h):
    # the exact solve of the discrete system, independent of GMRES, carries
    # the published 3-digit e_h: the algebraic error is below those digits
    grid = cell_grid(h)
    eigs = DstShiftedSolver(grid).laplacian_eigs
    got = []
    for gamma in GAMMAS:
        problem = get_problem(1, gamma)
        x = solve_sine_basis(grid, eigs, gamma, assemble_rhs(problem, grid, dst2d))
        got.append(error_norm(x, problem, grid, dst2d))
    assert [f"{e:.2e}" for e in got] == [f"{e:.2e}" for e in EXAMPLE1_TARGETS[h][1]]


def test_criterion_2_example2_multigrid_benchmark(example2_table):
    results, elapsed = example2_table
    ok, detail = check_against_targets(results, EXAMPLE2_TARGETS, iter_band=2, err_rel=0.15)
    in_time = elapsed < 120.0
    print(f"\n[criterion 2] {'PASS' if ok and in_time else 'FAIL'} "
          f"(elapsed {elapsed:.1f}s < 120s: {in_time})\n{detail}")
    assert ok, detail
    assert in_time, f"sweep took {elapsed:.1f}s, budget 120s"


def test_criterion_3_error_halves_with_mesh(example1_table):
    results, _ = example1_table
    coarse = solve_cell(ExperimentSpec(example=1), 1e-10, 2.0**-4)
    errors = [coarse.error] + [
        r.error for r in results if r.gamma == 1e-10
    ]  # h = 2^-4, 2^-5, 2^-6
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok = all(1.8 <= ratio <= 2.2 for ratio in ratios)
    print(f"\n[criterion 3] {'PASS' if ok else 'FAIL'} "
          f"error chain {[f'{e:.3e}' for e in errors]}, halving ratios "
          f"{[f'{r:.3f}' for r in ratios]} (band [1.8, 2.2])")
    assert ok, ratios


def test_criterion_4_dense_preconditioner_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for m1 in (1, 3):
        for n in (2, 4):
            grid = TimeSpaceGrid(m1=m1, n=n)
            unit = stencil(grid, lambda x1, x2: np.ones_like(np.asarray(x1, float)))
            K = build_stiffness(unit)
            for gamma in (1e-4, 1.0):
                for eps in (0.5, 0.01):
                    bundle = DenseBundle(
                        n, grid.tau, gamma, eps, np.eye(grid.m), K
                    )
                    fast = RbdEpsPreconditioner(grid, gamma, eps, PhysicalDstSolver(grid))
                    for _ in range(3):
                        r = rng.standard_normal(2 * grid.m * n)
                        got = fast.apply_inverse(r)
                        want = np.linalg.solve(bundle.preconditioner, r)
                        worst = max(
                            worst,
                            np.linalg.norm(got - want) / np.linalg.norm(want),
                        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    print(f"\n[criterion 4] {'PASS' if ok else 'FAIL'} "
          f"worst relative mismatch {worst:.3e} (<= 1e-10), {elapsed:.1f}s < 10s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_5_theorem_suite():
    start = time.perf_counter()
    results, all_passed = run_validation()
    elapsed = time.perf_counter() - start
    failed = [str(r) for r in results if not r.passed]
    ok = all_passed and elapsed < 60.0
    print(f"\n[criterion 5] {'PASS' if ok else 'FAIL'} "
          f"{len(results) - len(failed)}/{len(results)} checks passed, "
          f"{elapsed:.1f}s < 60s")
    assert all_passed, "\n".join(failed)
    assert elapsed < 60.0


def test_criterion_6_gmres_unit_properties():
    rng = np.random.default_rng(5)

    # orthogonality of the Krylov basis
    basis_mat = rng.standard_normal((40, 40))
    spd = basis_mat @ basis_mat.T + 40 * np.eye(40)
    b = rng.standard_normal(40)
    report = gmres_solve(partial(np.matmul, spd), b, tol=1e-12, maxit=40)
    Q = report.basis  # rows are the Krylov directions
    orth = np.max(np.abs(Q @ Q.T - np.eye(Q.shape[0])))

    # final reported residual vs an independent recomputation, full stack
    grid = TimeSpaceGrid(m1=7, n=8)
    K = build_stiffness(stencil(grid, lambda x1, x2: np.ones_like(np.asarray(x1, float))))
    from pintopt.discretize import assemble_rhs
    from pintopt.operators import AllAtOnceOperator
    from pintopt.problems import get_problem

    problem = get_problem(1, 1e-6)
    op = AllAtOnceOperator(grid, K, 1e-6)
    rhs = assemble_rhs(problem, grid)
    prec = RbdEpsPreconditioner(grid, 1e-6, grid.tau / 2, PhysicalDstSolver(grid))
    rep = gmres_solve(op.matvec, rhs, apply_prec=prec.apply_inverse, tol=1e-8)
    true_res = np.linalg.norm(prec.apply_inverse(rhs - op.matvec(rep.x)))
    res_dev = abs(rep.residuals[-1] - true_res) / rep.residuals[0]

    # identity system: one iteration
    ident = gmres_solve(partial(np.multiply, 1.0), rng.standard_normal(12), tol=1e-10)

    ok = orth <= 1e-10 and res_dev <= 1e-8 and ident.iterations == 1
    print(f"\n[criterion 6] {'PASS' if ok else 'FAIL'} "
          f"orthogonality {orth:.2e} <= 1e-10, residual recompute deviation "
          f"{res_dev:.2e} <= 1e-8, identity iterations {ident.iterations} == 1")
    assert orth <= 1e-10
    assert res_dev <= 1e-8
    assert ident.iterations == 1


def test_criterion_7_gamma_robustness(example1_table, example2_table):
    lines, ok = [], True
    for label, (results, _) in (("example 1", example1_table), ("example 2", example2_table)):
        counts = [r.iterations for r in results if r.h == 2.0**-5]
        spread = max(counts) - min(counts)
        good = spread <= 10 and max(counts) <= 25
        ok = ok and good
        lines.append(
            f"  {label}: iterations {counts}, spread {spread} <= 10, max {max(counts)} <= 25"
        )
    detail = "\n".join(lines)
    print(f"\n[criterion 7] {'PASS' if ok else 'FAIL'}\n{detail}")
    assert ok, detail


def test_soft_cpu_scaling_with_mesh(example1_table):
    # soft sanity check, not a reproduction: halving h doubles n and
    # multiplies m by ~4.1, so the matvec, the inner solves and GMRES grow
    # ~8.3x per iteration, and the two time-transform matrix products,
    # O(m n^2), ~16.5x. The wall-clock ratio lands between the two (about
    # 10 on a 2-core box), so only pathological scaling (> 15x) fails here.
    # The meshes alternate inside the repeat loop, so a slow phase of a
    # shared machine slows both sides alike instead of one of them.
    spec = ExperimentSpec(example=1, gammas=(1e-10,))
    timings = {2.0**-5: [], 2.0**-6: []}
    for _ in range(3):
        for h in timings:
            res = solve_cell(spec, 1e-10, h)
            timings[h].append(res.cpu_seconds / res.iterations)
    per_iter = {h: min(t) for h, t in timings.items()}
    ratio = per_iter[2.0**-6] / per_iter[2.0**-5]
    ok = ratio <= 15.0
    print(f"\n[soft cpu scaling] {'PASS' if ok else 'FAIL'} "
          f"per-iteration time ratio {ratio:.1f} (expect ~10, fail > 15)")
    assert ok, f"per-iteration scaling ratio {ratio:.1f} exceeds 15"
