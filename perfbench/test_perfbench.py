"""Tests of the benchmark harness itself (run with ``python -m pytest perfbench``).

They solve small cells (h = 2^-4 and 2^-5) through the real pipeline, so they
take a few seconds.
"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace

import pytest

import harness
import run
import tracing
import workloads

PINTOPT = run.load_pintopt()


def small_cells():
    """One cell per inner solver at h = 2^-4; the references are placeholders."""
    return [
        workloads.Cell(1, "dst", 2.0**-4, 1e-2, 1e-6, 0, 0.0),
        workloads.Cell(2, "mg", 2.0**-4, 1e-4, 1e-6, 0, 0.0),
    ]


@pytest.mark.parametrize("cell", small_cells(), ids=lambda c: c.label)
def test_tracing_does_not_perturb_the_solve(cell):
    plain = harness.solve_once(PINTOPT, cell)
    traced = harness.solve_once(PINTOPT, cell, tracing.Tracer(), cell_id=0)
    assert plain.iterations == traced.iterations > 0
    assert plain.e_h == traced.e_h  # bit-identical
    assert traced.layers["operators.matvec_calls"] == traced.iterations


def traced_cell(cell):
    tracer = tracing.Tracer()
    sample = harness.solve_once(PINTOPT, cell, tracer, cell_id=0)
    return tracer, sample


@pytest.mark.parametrize("cell", small_cells(), ids=lambda c: c.label)
def test_span_self_times_are_non_negative(cell):
    tracer, _ = traced_cell(cell)
    assert tracer.spans and all(end is not None for _, _, end, _, _ in tracer.spans)
    assert min(tracing.self_times(tracer.spans)) >= -1e-9


def test_blocking_spans_account_for_the_traced_total():
    cell = workloads.published_cells(1, 5)[4]
    tracer, sample = traced_cell(cell)
    layers = sample.layers
    blocking = (
        layers["discretize.assemble_s"] + layers["bench.inner_build_s"]
        + layers["operators.matvec_s"] + layers["rbd.apply_s"]
        + layers["gmres.self_s"] + layers["discretize.error_norm_s"]
    )
    (root,) = [s for s in tracer.spans if s[0] == "bench.solve_cell"]
    total = root[2] - root[1]
    assert 0.95 * total <= blocking <= total
    assert sample.total_s >= total


def test_published_cells_pass_their_checks():
    cell = workloads.published_cells(1, 5)[0]
    sample = harness.solve_once(PINTOPT, cell)
    assert sample.problems == []
    assert sample.residual <= cell.residual_bound


def test_wrong_reference_fails_the_cell():
    cell = replace(workloads.published_cells(1, 5)[0], ref_iterations=99, ref_e_h=1.0)
    sample = harness.solve_once(PINTOPT, cell)
    assert len(sample.problems) == 2


def test_exception_fails_the_cell_without_ending_the_run(monkeypatch):
    bench, _ = PINTOPT

    def broken(*args, **kwargs):
        raise FloatingPointError("imaginary residue")

    monkeypatch.setattr(bench, "assemble_rhs", broken)
    sample = harness.solve_once(PINTOPT, small_cells()[0])
    assert sample.problems == ["FloatingPointError: imaginary residue"]
    assert sample.setup_s is None


def test_missing_seams_are_reported_absent():
    bench, _ = PINTOPT
    tracer = tracing.Tracer()
    probe = tracing.GmresProbe(bench.gmres_solve, tracer)
    without_dst = types.SimpleNamespace()
    with tracing.seams(bench, without_dst, probe, tracer):
        pass
    assert tracer.absent == {tracing.DST2D}
    assert bench.gmres_solve is probe.gmres_solve  # restored

    tracer.wrap_inner(object())
    metrics, absent = harness.layer_metrics([], tracer)
    assert set(metrics) == {name for name, *_ in tracing.LAYER_METRICS}
    assert {"transforms.dst2d_s", "shifted.make_calls", "rbd.self_s"} <= set(absent)
    assert "operators.matvec_s" not in absent


def test_seed_permutes_cells_reproducibly():
    workload = workloads.WORKLOADS["ex2-mg-h6"]
    first = harness.cell_order(workload, 7)
    assert first == harness.cell_order(workload, 7)
    assert sorted(first, key=lambda c: c.label) == sorted(workload.cells, key=lambda c: c.label)
    assert first != harness.cell_order(workload, 8)


def test_benchmark_file_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, *_ in tracing.LAYER_METRICS
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ex1-dst-h6-tight", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / "out").exists()
