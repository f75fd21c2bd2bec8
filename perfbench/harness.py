"""Runs one workload: a warm-up cell, then timed solves until the time is up.

One caller, one cell at a time, in this process (a closed loop with
``jobs = 1``). The cheapest cell is solved once, untimed, to warm up. Then the
cells are visited in an order drawn from the seed, round after round, until at
least ``MIN_ROUNDS`` full rounds are done and the requested seconds have
passed. Each figure of a cell is the median over its solves, and a workload's
figure is the sum of its cells' medians: the cost of one pass over the
workload.

Without tracing, each visit solves the cell once. With tracing, each visit
solves the cell untraced and traced, alternating which goes first from one
round to the next, so the pair measures the tracing overhead.

Every solve is checked after its timed region: convergence, the reference
iteration count, the reference ``e_h`` to three significant digits and the
true relative residual. An exception fails its cell and the run goes on.
"""

import ctypes
import gc
import json
import random
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import tracing

# every cell is solved at least this many times, so each median has three samples
MIN_ROUNDS = 3

END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("iterations", "count"),
    ("peak_rss_mb", "MiB"),
)


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def settle():
    """Free what the last solve left behind, so each solve starts from a similar heap.

    Without the trim, memory freed by one cell stays in the C heap and the
    peak resident size depends on which cells ran before.
    """
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


@dataclass
class Sample:
    """One solve of one cell. ``problems`` is empty when every check passed."""

    total_s: float
    setup_s: float = None
    solve_s: float = None
    cpu_s: float = None
    iterations: int = None
    e_h: float = None
    residual: float = None
    problems: list = field(default_factory=list)
    layers: dict = None


def make_spec(bench, cell):
    return bench.ExperimentSpec(
        example=cell.example, inner=cell.inner, tol=cell.tol,
        h_values=(cell.h,), gammas=(cell.gamma,),
    )


def check(cell, result, residual):
    problems = []
    if not result.converged:
        problems.append("did not converge")
    if result.iterations != cell.ref_iterations:
        problems.append(f"iterations {result.iterations} != {cell.ref_iterations}")
    if result.error is None or f"{result.error:.2e}" != f"{cell.ref_e_h:.2e}":
        problems.append(f"e_h {result.error!r} != {cell.ref_e_h:.2e}")
    if residual is None or not residual <= cell.residual_bound:
        problems.append(f"true residual {residual!r} > {cell.residual_bound:g}")
    return problems


def true_residual(probe):
    if probe.apply_op is None or probe.b is None or probe.x is None:
        return None
    b = np.asarray(probe.b)
    return float(np.linalg.norm(b - probe.apply_op(probe.x)) / np.linalg.norm(b))


def solve_once(pintopt, cell, tracer=None, cell_id=None):
    """Solve one cell through ``solve_cell``; timings, checks and (traced) layers."""
    bench, shifted = pintopt
    spec = make_spec(bench, cell)
    probe = tracing.GmresProbe(bench.gmres_solve, tracer)
    settle()
    with tracing.seams(bench, shifted, probe, tracer):
        solve = bench.solve_cell
        if tracer is not None:
            tracer.cell = cell_id
            first_span, first_shift = len(tracer.spans), len(tracer.shifts)
            solve = tracer.wrap("bench.solve_cell", solve)
        start = time.perf_counter()
        try:
            result = solve(spec, cell.gamma, cell.h)
            error = None
        except Exception as exc:  # one failing cell must not end the run
            error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        total = time.perf_counter() - start
    sample = Sample(total_s=total)
    if probe.enter is not None:
        sample.setup_s = probe.enter - start
        sample.solve_s = probe.wall
        sample.cpu_s = probe.cpu
    if error is not None:
        sample.problems.append(error)
        return sample
    sample.iterations = result.iterations
    sample.e_h = result.error
    sample.residual = true_residual(probe)
    sample.problems = check(cell, result, sample.residual)
    if tracer is not None:
        size = 0 if probe.b is None else np.asarray(probe.b).size
        sample.layers = tracing.cell_layers(
            tracer.spans, first_span, tracer.shifts[first_shift:],
            result.iterations, size,
        )
    return sample


@dataclass
class CellRuns:
    """Everything measured on one cell during a run."""

    cell: object
    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)

    def values(self, key, traced=False):
        samples = self.traced if traced else self.untraced
        return [getattr(s, key) for s in samples if getattr(s, key) is not None]

    def summary(self):
        samples = self.untraced + self.traced
        return {
            "cell": self.cell.label,
            "solves": len(samples),
            "total_s": median(self.values("total_s")),
            "total_s_samples": self.values("total_s"),
            "setup_s": median(self.values("setup_s")),
            "solve_s": median(self.values("solve_s")),
            "iterations": median([s.iterations for s in samples if s.iterations is not None]),
            "e_h": next((s.e_h for s in samples if s.e_h is not None), None),
            "residual": max((s.residual for s in samples if s.residual is not None),
                            default=None),
            "problems": sorted({p for s in samples for p in s.problems}),
        }


def median(values):
    return statistics.median(values) if values else None


def summed(runs, values_of):
    """Sum over cells of the median of each cell's values: one pass's cost."""
    return sum(m for m in (median(values_of(r)) for r in runs) if m is not None)


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(runs, tracer):
    """Every per-layer metric (0 where absent) and the names of the absent ones."""
    names = {name for r in runs for s in r.traced if s.layers for name in s.layers}
    sums = {
        name: summed(runs, lambda r, n=name: [s.layers[n] for s in r.traced if s.layers])
        for name in names
    }
    cpu = sum(sum(r.values("cpu_s")) for r in runs)
    wall = sum(sum(r.values("solve_s")) for r in runs)
    derived = {
        "gmres.s_per_iter": ratio(
            sums.get("gmres.solve_s", 0.0),
            summed(runs, lambda r: r.values("iterations", traced=True)),
        ),
        "multigrid.distinct_shift_ratio": ratio(
            sums.get("multigrid.distinct_shifts", 0.0), sums.get("multigrid.make_calls", 0.0)
        ),
        "process.cpu_per_wall": ratio(cpu, wall),
        "trace.overhead_frac": ratio(
            summed(runs, lambda r: r.values("total_s", traced=True)),
            summed(runs, lambda r: r.values("total_s")),
        ) - 1.0,
    }
    metrics, absent = {}, []
    for name, unit, needs, _ in tracing.LAYER_METRICS:
        missing = any(seam in tracer.absent for seam in needs)
        if missing:
            absent.append(name)
        value = 0.0 if missing else derived.get(name, sums.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent


def cell_order(workload, seed):
    """The workload's cells in the order the seed draws."""
    order = list(workload.cells)
    random.Random(seed).shuffle(order)
    return order


def run_workload(pintopt, workload, seed, seconds, trace, spans_path=None):
    """Measure one workload; returns (result line, details), both JSON-ready dicts."""
    order = cell_order(workload, seed)
    tracer = tracing.Tracer() if trace else None
    warm_cell = min(workload.cells, key=lambda c: c.ref_iterations)
    warm = solve_once(pintopt, warm_cell)

    runs = [CellRuns(cell) for cell in order]
    visits = 0
    start = time.perf_counter()
    while visits < MIN_ROUNDS * len(order) or time.perf_counter() - start < seconds:
        record = runs[visits % len(order)]
        if trace:
            traced_first = (visits // len(order)) % 2 == 1
            for traced_now in (traced_first, not traced_first):
                if traced_now:
                    record.traced.append(solve_once(pintopt, record.cell, tracer, visits))
                else:
                    record.untraced.append(solve_once(pintopt, record.cell))
        else:
            record.untraced.append(solve_once(pintopt, record.cell))
        visits += 1
    measured = time.perf_counter() - start

    samples = [s for r in runs for s in r.untraced + r.traced]
    failed = sum(1 for s in samples if s.problems)
    end_to_end = {
        "total_s": summed(runs, lambda r: r.values("total_s")),
        "setup_s": summed(runs, lambda r: r.values("setup_s")),
        "solve_s": summed(runs, lambda r: r.values("solve_s")),
        "iterations": summed(runs, lambda r: r.values("iterations")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    absent = []
    if trace:
        metrics, absent = layer_metrics(runs, tracer)
        if spans_path is not None:
            write_spans(tracer, order, spans_path)
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}

    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "warmup": {"cell": warm_cell.label, "total_s": warm.total_s,
                   "problems": warm.problems},
        "visits": visits,
        "measured_s": measured,
        "fail_frac": failed / len(samples),
        "end_to_end": end_to_end,
        "absent": absent,
        "cells": [r.summary() for r in runs],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def write_spans(tracer, order, path):
    """A header line, then one JSON list per span: name, start, end, parent, visit.

    Visit v solved cell ``cells_in_order[v % len(cells_in_order)]``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        out.write(json.dumps({"cells_in_order": [c.label for c in order]}) + "\n")
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
