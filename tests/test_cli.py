"""Benchmark driver and command-line behavior on desk-size grids."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import pintopt

from pintopt import bench
from pintopt.bench import (
    CSV_COLUMNS,
    ConfigurationError,
    ExperimentSpec,
    constant_diffusion_value,
    mesh_level,
    run_experiment,
    solve_cell,
    three_significant,
    write_csv,
)
from pintopt.cli import (
    build_parser,
    main,
    parse_bool,
    parse_h_token,
    parse_list,
    spec_from_args,
)
from pintopt.discretize import TimeSpaceGrid
from pintopt.problems import get_problem
from pintopt.rbd import RbdEpsPreconditioner

FAST = dict(h_values=(2.0**-3,), gammas=(1e-4, 1e-2))


def csv_text(results):
    buf = io.StringIO()
    write_csv(results, buf)
    return buf.getvalue()


# ------------------------------------------------------------ spec checks


def test_spec_rejects_bad_values():
    with pytest.raises(ConfigurationError, match="example"):
        ExperimentSpec(example=7)
    with pytest.raises(ConfigurationError, match="inner"):
        ExperimentSpec(example=1, inner="cg")
    with pytest.raises(ConfigurationError, match="power of two"):
        ExperimentSpec(example=1, h_values=(0.3,))
    with pytest.raises(ConfigurationError, match="gamma"):
        ExperimentSpec(example=1, gammas=(0.0,))
    with pytest.raises(ConfigurationError, match="damping policy"):
        ExperimentSpec(example=1, eps_policy="bogus")
    with pytest.raises(ConfigurationError, match="fixed damping"):
        ExperimentSpec(example=1, eps_policy="fixed", eps_value=2.0)
    with pytest.raises(ConfigurationError, match="jobs"):
        ExperimentSpec(example=1, jobs=0)


def test_spec_rejects_delta_outside_unit_interval():
    # the contraction factor reaches 1 at delta = 1, so no rate is certified there
    for delta in (0.0, 1.0, 1.5):
        with pytest.raises(ConfigurationError, match="delta"):
            ExperimentSpec(example=1, eps_policy="rate", delta=delta)
    assert ExperimentSpec(example=1, eps_policy="rate", delta=0.99).delta == 0.99


def test_fine_meshes_are_opt_in():
    with pytest.raises(ConfigurationError, match="allow_fine"):
        ExperimentSpec(example=1, h_values=(2.0**-7,))
    spec = ExperimentSpec(example=1, h_values=(2.0**-7,), allow_fine=True)
    assert spec.h_values == (2.0**-7,)


def test_mesh_level_parses_powers_of_two():
    assert mesh_level(0.5) == 1
    assert mesh_level(2.0**-6) == 6
    for bad in (0.3, 1.0, -0.5, 0.75):
        with pytest.raises(ConfigurationError):
            mesh_level(bad)


def test_constant_diffusion_detection():
    grid = TimeSpaceGrid(m1=7, n=4)
    assert constant_diffusion_value(get_problem("example1", 1e-4), grid) == 1.0
    assert constant_diffusion_value(get_problem("example2", 1e-4), grid) is None


# ------------------------------------------------------------- formatting


def test_three_significant_digits():
    assert three_significant(0.0154) == "1.54e-2"
    assert three_significant(0.75) == "7.50e-1"
    assert three_significant(7.19e-4) == "7.19e-4"
    assert three_significant(9.996e-3) == "1.00e-2"  # rounding spillover
    assert three_significant(0.0) == "0"
    assert three_significant(None) == ""
    assert three_significant(-0.0154) == "-1.54e-2"


# ----------------------------------------------------------------- driver


def test_solve_cell_converges_and_reports():
    res = solve_cell(ExperimentSpec(example=1), 1e-4, 2.0**-3)
    assert res.converged
    assert res.dof == 2 * 49 * 8
    assert res.n == 8 and res.m1 == 7
    assert 0 < res.error < 1
    assert res.cpu_seconds > 0


def test_dst_rejects_variable_coefficient_before_solving():
    with pytest.raises(ConfigurationError, match="constant diffusion"):
        solve_cell(ExperimentSpec(example=2, inner="dst"), 1e-4, 2.0**-3)


def test_mg_inner_solves_variable_coefficient():
    res = solve_cell(ExperimentSpec(example=2, inner="mg"), 1e-4, 2.0**-3)
    assert res.converged
    assert res.error < 0.1


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


def fail_guard_for_gamma(monkeypatch, gamma):
    """Make the preconditioner's round-off guard trip in the cells of one gamma.

    The preconditioner keeps no gamma, so its cells are told apart by
    alpha = tau / sqrt(gamma). The patch reaches the ``jobs`` workers because
    the process pool forks.
    """
    original = RbdEpsPreconditioner.apply_inverse

    def apply_inverse(self, r):
        if self.alpha == self.grid.tau / np.sqrt(gamma):
            raise FloatingPointError("imaginary residue 1.000e-03 exceeds the round-off bound")
        return original(self, r)

    monkeypatch.setattr(RbdEpsPreconditioner, "apply_inverse", apply_inverse)


@pytest.mark.parametrize("jobs", [1, 2])
def test_guard_failure_fails_only_its_cell(monkeypatch, jobs):
    fail_guard_for_gamma(monkeypatch, 1e-4)
    spec = ExperimentSpec(example=1, h_values=(2.0**-3,), gammas=(1e-6, 1e-4, 1e-2), jobs=jobs)
    rows = run_experiment(spec)
    assert [r.gamma for r in rows] == [1e-6, 1e-4, 1e-2]
    assert [r.converged for r in rows] == [True, False, True]
    assert "imaginary residue" in rows[1].failure and rows[1].error is None
    assert rows[0].failure is None and rows[2].failure is None
    assert rows[0].error is not None and rows[2].error is not None


def nan_inner_solve_for_gamma(monkeypatch, gamma):
    """Make the inner solves of one gamma's cells return NaN.

    The patch reaches the ``jobs`` workers because the process pool forks.
    """
    original = bench.make_inner_solver

    def make_inner_solver(problem, grid, spec):
        inner = original(problem, grid, spec)
        if problem.gamma == gamma:
            inner.factor = lambda sigmas: lambda rhs: np.full_like(rhs, np.nan)
        return inner

    monkeypatch.setattr(bench, "make_inner_solver", make_inner_solver)


@pytest.mark.parametrize("jobs", [1, 2])
def test_non_finite_inner_solve_fails_only_its_cell(monkeypatch, jobs):
    nan_inner_solve_for_gamma(monkeypatch, 1e-4)
    spec = ExperimentSpec(example=1, h_values=(2.0**-3,), gammas=(1e-6, 1e-4, 1e-2), jobs=jobs)
    rows = run_experiment(spec)
    assert [r.gamma for r in rows] == [1e-6, 1e-4, 1e-2]
    assert [r.converged for r in rows] == [True, False, True]
    assert "not finite" in rows[1].failure and rows[1].error is None
    assert rows[0].failure is None and rows[2].failure is None
    assert rows[0].error is not None and rows[2].error is not None


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


def test_empty_gamma_list_yields_header_only():
    spec = ExperimentSpec(example=1, gammas=())
    text = csv_text(run_experiment(spec))
    assert text == ",".join(CSV_COLUMNS) + "\n"


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


def test_cli_empty_gamma_success(tmp_path):
    out = tmp_path / "empty.csv"
    code = run_cli("solve", "--example", "1", "--h", "2^-3", "--gamma", "", "--out", str(out))
    assert code == 0
    assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_cli_exit_nonzero_when_unconverged(capsys):
    code = run_cli(
        "solve", "--example", "1", "--h", "2^-3", "--gamma", "1e-4", "--maxit", "2"
    )
    assert code == 1
    assert "did not converge" in capsys.readouterr().err


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


def test_cli_rejects_fine_mesh_without_flag(capsys):
    code = run_cli("solve", "--example", "1", "--h", "2^-7")
    assert code == 2
    assert "allow_fine" in capsys.readouterr().err


def test_cli_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text(
        "example: 1\n"
        "h: 2^-3\n"
        "gamma: [1e-4]\n"
        "inner_solver: dst\n"
        "tol: 1e-8\n"
        "epsilon_policy: rate\n"
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
    ("--eps-policy", "fixed", "--eps-value", "nan"),
    ("--eps-policy", "rate", "--delta", "1.5"),
    ("--mg-pre", "0"),
    ("--mg-post", "-1"),
    ("--mg-cycles", "0"),
    ("--h", "10^400"),
    ("--gamma", "abc"),
    ("--gamma", "1e-4,"),
    ("--h", "2^-3,x"),
])
def test_cli_rejects_non_finite_and_out_of_range_numbers(flags, capsys):
    code = run_cli("solve", "--example", "1", "--h", "2^-3", *flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1


def test_parse_bool_is_strict():
    assert parse_bool(True) is True and parse_bool(False) is False
    assert parse_bool("false") is False and parse_bool("True") is True
    for bad in ("no", "0", 1, None):
        with pytest.raises(ValueError):
            parse_bool(bad)


def test_cli_config_booleans(tmp_path, capsys):
    cfg = tmp_path / "sweep.yaml"
    cfg.write_text('example: 1\nallow_fine: "false"\n')
    spec = spec_from_args(build_parser().parse_args(["solve", "--config", str(cfg)]))
    assert spec.allow_fine is False
    cfg.write_text("example: 1\nallow_fine: maybe\n")
    assert run_cli("solve", "--config", str(cfg)) == 2
    assert "allow_fine" in capsys.readouterr().err


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
