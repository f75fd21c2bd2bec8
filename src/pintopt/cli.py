"""Command-line front end: benchmark sweeps and the dense validation suite.

``solve`` runs a (gamma, h) sweep of one registered example and emits an
aligned table (stdout) plus optionally CSV; ``validate`` runs the dense
theorem checks and writes a machine-readable JSON report. A YAML config
file can override any solve flag. Exit codes: 0 success, 1 unconverged
solve or failed check, 2 invalid configuration.
"""

import argparse
import json
import sys

import yaml

from .bench import (
    ConfigurationError,
    ExperimentSpec,
    aligned_text,
    run_experiment,
    write_csv,
)
from .validation import run_validation


def parse_h_token(token):
    """Accept '2^-5', '2**-5' or a plain float literal like '0.03125'."""
    text = token.strip().replace("**", "^")
    if "^" in text:
        base, _, exponent = text.partition("^")
        try:
            return float(base) ** float(exponent)
        except ValueError:
            raise ConfigurationError(f"cannot parse mesh size {token!r}") from None
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"cannot parse mesh size {token!r}") from None


def parse_list(value, convert):
    """Comma-separated string (or an actual list) to a tuple of numbers."""
    if isinstance(value, (list, tuple)):
        return tuple(convert(str(v)) for v in value)
    text = value.strip()
    if not text:
        return ()
    return tuple(convert(tok) for tok in text.split(","))


def parse_bool(value):
    """A YAML boolean, or the string "true"/"false" in any case; nothing else."""
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.strip().lower() in ("true", "false"):
        return value.strip().lower() == "true"
    raise ValueError(f"expected true or false, got {value!r}")


# maps config-file keys to ExperimentSpec fields; "h"/"gamma" hold lists
CONFIG_KEYS = {
    "example": ("example", int),
    "h": ("h_values", lambda v: parse_list(v, parse_h_token)),
    "gamma": ("gammas", lambda v: parse_list(v, float)),
    "inner_solver": ("inner", str),
    "tol": ("tol", float),
    "maxit": ("maxit", int),
    "epsilon_policy": ("eps_policy", str),
    "epsilon_value": ("eps_value", float),
    "delta": ("delta", float),
    "mg_pre_smooth": ("mg_pre", int),
    "mg_post_smooth": ("mg_post", int),
    "mg_cycles": ("mg_cycles", int),
    "allow_fine": ("allow_fine", parse_bool),
    "jobs": ("jobs", int),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pintopt",
        description="Parallel-in-time saddle-point solver benchmarks and validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a (gamma, h) benchmark sweep")
    solve.add_argument("--example", type=int, choices=(1, 2), required=False)
    solve.add_argument("--h", default="2^-5", help="comma list of mesh sizes, e.g. 2^-5,2^-6")
    solve.add_argument(
        "--gamma", default="1e-10,1e-8,1e-6,1e-4,1e-2,1",
        help="comma list of regularization weights",
    )
    solve.add_argument("--inner", choices=("dst", "mg"), default="dst")
    solve.add_argument("--tol", type=float, default=1e-6)
    solve.add_argument("--maxit", type=int, default=100)
    solve.add_argument(
        "--eps-policy", choices=("step", "rate", "fixed"), default="step",
        help="damping size: step = min(1/2, tau/2), rate = certified-rate "
        "constant, fixed = --eps-value",
    )
    solve.add_argument("--eps-value", type=float, default=None)
    solve.add_argument("--delta", type=float, default=0.5)
    solve.add_argument("--mg-pre", type=int, default=2)
    solve.add_argument("--mg-post", type=int, default=1)
    solve.add_argument("--mg-cycles", type=int, default=1)
    solve.add_argument(
        "--allow-fine", action="store_true",
        help="permit meshes finer than 2^-6 (large runs)",
    )
    solve.add_argument("--jobs", type=int, default=1, help="parallel (gamma, h) cells")
    solve.add_argument("--out", default=None, help="write results as CSV here")
    solve.add_argument("--config", default=None, help="YAML file overriding these flags")

    validate = sub.add_parser("validate", help="run the dense theorem checks")
    validate.add_argument("--delta", type=float, default=0.5)
    validate.add_argument(
        "--report", default="validation_report.json",
        help="machine-readable JSON report path",
    )
    return parser


def spec_from_args(args):
    kwargs = dict(
        example=args.example,
        h_values=parse_list(args.h, parse_h_token),
        gammas=parse_list(args.gamma, float),
        inner=args.inner,
        tol=args.tol,
        maxit=args.maxit,
        eps_policy=args.eps_policy,
        eps_value=args.eps_value,
        delta=args.delta,
        mg_pre=args.mg_pre,
        mg_post=args.mg_post,
        mg_cycles=args.mg_cycles,
        allow_fine=args.allow_fine,
        jobs=args.jobs,
    )
    if args.config is not None:
        with open(args.config) as fh:
            loaded = yaml.safe_load(fh) or {}
        if not isinstance(loaded, dict):
            raise ConfigurationError(f"config file {args.config} must hold a mapping")
        for key, value in loaded.items():
            if key == "out":
                args.out = str(value)
                continue
            if key not in CONFIG_KEYS:
                raise ConfigurationError(f"unknown config key {key!r}")
            field, convert = CONFIG_KEYS[key]
            try:
                kwargs[field] = convert(value)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"config key {key!r}: {exc}") from None
    if kwargs["example"] is None:
        raise ConfigurationError("no example selected (flag --example or config key)")
    return ExperimentSpec(**kwargs)


def run_solve(args):
    spec = spec_from_args(args)
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
    if not 0 < args.delta < 1:
        raise ConfigurationError(f"delta must lie in (0, 1), got {args.delta}")
    results, all_passed = run_validation(delta=args.delta)
    for res in results:
        print(res)
    passed = sum(res.passed for res in results)
    print(f"\n{passed}/{len(results)} checks passed")
    report = {
        "all_passed": all_passed,
        "delta": args.delta,
        "checks": [
            {
                "name": res.name,
                "passed": res.passed,
                "worst": res.worst,
                "bound": res.bound,
                "detail": res.detail,
            }
            for res in results
        ],
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2)
    print(f"wrote {args.report}")
    return 0 if all_passed else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return run_solve(args)
        return run_validate(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
