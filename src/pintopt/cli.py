"""Command-line front end: benchmark sweeps and the dense validation suite.

``solve`` runs a (gamma, h) sweep of one registered example and emits an
aligned table (stdout) plus optionally CSV; ``validate`` runs the dense
theorem checks and writes a machine-readable JSON report. Each solve
setting is one row of :data:`SETTINGS`: its flag, its YAML config key, the
``ExperimentSpec`` field it sets and the converter that a flag string and a
YAML value both go through. Config keys override flags. Exit codes: 0
success, 1 unconverged solve or failed check, 2 invalid configuration.
"""

import argparse
import json
import os
import sys
from collections import namedtuple
from dataclasses import asdict

import yaml

from .bench import ConfigurationError, ExperimentSpec, aligned_text, run_experiment, write_csv
from .problems import EXAMPLES
from .validation import run_validation


def parse_h_token(token):
    """Accept '2^-5', '2**-5' or a plain float literal like '0.03125'."""
    base, power, exponent = token.strip().replace("**", "^").partition("^")
    try:
        return float(base) ** float(exponent) if power else float(base)
    except (ValueError, OverflowError):
        raise ConfigurationError(f"cannot parse mesh size {token!r}") from None


def parse_list(value, convert):
    """Comma-separated string, a list, or one bare number to a tuple of numbers."""
    if isinstance(value, (int, float)):
        value = [value]
    elif isinstance(value, str):
        value = value.split(",") if value.strip() else []
    elif not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, a comma string or a number, got {value!r}")
    return tuple(convert(str(v)) for v in value)


def integer(value):
    """An int, an integral float or an integer string; never a boolean."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def number(value):
    """A float from a number or a numeric string; never a boolean."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def file_path(value):
    """A non-empty string; a YAML null or number is no path."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a file path, got {value!r}")
    return value


# one row per solve setting: a flag string and a YAML value go through the
# same converter into the field; defaults live on ExperimentSpec alone. "out",
# the CSV path, is the one field that is not ExperimentSpec's
Setting = namedtuple("Setting", "flag key field convert help")

SETTINGS = (
    Setting("--example", "example", "example", integer,
            f"problem to solve, {' or '.join(map(str, EXAMPLES))} (required)"),
    Setting("--h", "h", "h_values", lambda v: parse_list(v, parse_h_token),
            "comma list of mesh sizes, e.g. 2^-5,2^-6"),
    Setting("--gamma", "gamma", "gammas", lambda v: parse_list(v, float),
            "comma list of regularization weights"),
    Setting("--inner", "inner_solver", "inner", str,
            "shifted-solve backend, dst or mg (default: dst when the diffusion is constant)"),
    Setting("--tol", "tol", "tol", number, "GMRES relative-residual tolerance"),
    Setting("--maxit", "maxit", "maxit", integer, "GMRES iteration cap"),
    Setting("--delta", "delta", "delta", number,
            "certified damping level in (0, 1); sets eps and the contraction bound"),
    Setting("--jobs", "jobs", "jobs", integer, "parallel (gamma, h) cells"),
    Setting("--out", "out", "out", file_path, "write results as CSV here"),
)


class ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors, a subcommand's too, are ConfigurationErrors."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser():
    parser = ArgumentParser(
        prog="pintopt",
        description="Parallel-in-time saddle-point solver benchmarks and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a (gamma, h) benchmark sweep")
    for s in SETTINGS:
        solve.add_argument(s.flag, dest=s.field, default=argparse.SUPPRESS,
                           metavar=s.key.upper(), help=s.help)
    solve.add_argument("--config", default=None, help="YAML file overriding these flags")

    validate = sub.add_parser("validate", help="run the dense theorem checks")
    validate.add_argument(
        "--delta", default=ExperimentSpec.delta,
        help="certified damping level in (0, 1) of the checks",
    )
    validate.add_argument(
        "--report", default="validation_report.json",
        help="machine-readable JSON report path",
    )
    return parser


def load_config(path):
    """The mapping a YAML config file holds; any failure is a ConfigurationError."""
    try:
        with open(path) as fh:
            loaded = yaml.safe_load(fh) or {}
    except (OSError, UnicodeError, yaml.YAMLError) as exc:
        detail = getattr(exc, "strerror", None) or " ".join(str(exc).split())
        raise ConfigurationError(f"cannot read config file {path}: {detail}") from None
    if not isinstance(loaded, dict):
        raise ConfigurationError(f"config file {path} must hold a mapping")
    return loaded


def spec_from_args(args):
    """The ExperimentSpec of the flags given, with the config file's keys over them.

    Sets ``args.out`` to the CSV path of either route, or None.
    """
    config = {} if args.config is None else load_config(args.config)
    keys = {s.key for s in SETTINGS}
    for key in config:
        if key not in keys:
            raise ConfigurationError(f"unknown config key {key!r}")
    fields = {}
    for s in SETTINGS:
        if s.key in config:
            source, value = f"config key {s.key!r}", config[s.key]
        elif hasattr(args, s.field):
            source, value = s.flag, getattr(args, s.field)
        else:
            continue
        try:
            fields[s.field] = s.convert(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{source}: {exc}") from None
    args.out = fields.pop("out", None)
    if "example" not in fields:
        raise ConfigurationError("no example selected (flag --example or config key)")
    return ExperimentSpec(**fields)


def check_writable(path):
    """Fail before any solve when ``path`` cannot be written as a file."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ConfigurationError(f"cannot write {path}: not a file in a writable directory")


def run_solve(args):
    spec = spec_from_args(args)
    if args.out is not None:
        check_writable(args.out)
    results = run_experiment(spec)
    print(aligned_text(results))
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            write_csv(results, fh)
        print(f"wrote {args.out}")
    for res in results:
        if res.failure is not None:
            print(f"cell gamma={res.gamma:g}, h={res.h:g} failed: {res.failure}",
                  file=sys.stderr)
    unconverged = [r for r in results if not r.converged]
    if unconverged:
        print(f"{len(unconverged)} cell(s) did not converge", file=sys.stderr)
        return 1
    return 0


def run_validate(args):
    try:
        delta = number(args.delta)
    except ValueError as exc:
        raise ConfigurationError(f"--delta: {exc}") from None
    if not 0 < delta < 1:
        raise ConfigurationError(f"delta must lie in (0, 1), got {delta}")
    check_writable(args.report)
    results, all_passed = run_validation(delta=delta)
    for res in results:
        print(res)
    passed = sum(res.passed for res in results)
    print(f"\n{passed}/{len(results)} checks passed")
    report = {
        "all_passed": all_passed,
        "delta": delta,
        "checks": [asdict(res) for res in results],
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.report}")
    return 0 if all_passed else 1


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        if args.command == "solve":
            return run_solve(args)
        return run_validate(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
