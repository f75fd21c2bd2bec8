"""Solver benchmark: time to a checked solution on fixed table cells.

Run from the repository root:

    python3 perfbench/run.py --workload ex1-dst-h6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

The package is imported from ``src/`` next to this directory. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``. The lines before it give every metric by
name with its unit, the failure fraction, the warm-up cell's time, and one JSON
line of details: the machine, per-cell figures and the seams found absent.
``--workload all`` runs every workload in a fresh process and prints one table.
"""

import argparse
import importlib
import json
import subprocess
import sys
from pathlib import Path

import envinfo
import harness
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_pintopt():
    """Import pintopt from this checkout's ``src/``; exit 2 when it is not there."""
    src = ROOT / "src"
    if not (src / "pintopt" / "bench.py").is_file():
        print(f"error: no pintopt sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    bench = importlib.import_module("pintopt.bench")
    shifted = importlib.import_module("pintopt.shifted")
    if Path(bench.__file__).resolve().parent != (src / "pintopt").resolve():
        print(f"error: imported pintopt from {bench.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return bench, shifted


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def print_report(result, details):
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {details['fail_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} solves failed)")
    warm = details["warmup"]
    print(f"warmup_s = {warm['total_s']:.6g} s (cell {warm['cell']}, not in any metric)")
    if details["absent"]:
        print("absent: " + ", ".join(details["absent"]))
    print(json.dumps(details))
    print(json.dumps(result))


def run_all(args, names):
    """Every workload in its own process, one row each; nonzero if any fails."""
    failed = False
    rows = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            failed = True
            continue
        *_, details_line, result_line = proc.stdout.strip().splitlines()
        result = json.loads(result_line)
        details = json.loads(details_line)
        failed = failed or not result["correct"]
        metrics = {k: f"{m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items()}
        metrics["fail_frac"] = f"{details['fail_frac']:.4g} ratio"
        metrics["warmup_s"] = f"{details['warmup']['total_s']:.4g} s"
        rows.append((name, metrics))
    for name, metrics in rows:
        print(name)
        for key, value in metrics.items():
            print(f"  {key} = {value}")
    return 1 if failed else 0


def main(argv=None):
    names = tuple(workloads.WORKLOADS)
    args = parse_args(argv, names)
    if args.workload == "all":
        return run_all(args, names)
    pintopt = load_pintopt()
    spans_path = None
    if args.trace:
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result, details = harness.run_workload(
        pintopt, workloads.WORKLOADS[args.workload], args.seed, args.seconds,
        bool(args.trace), spans_path,
    )
    details["env"] = envinfo.environment()
    details["spans_file"] = None if spans_path is None else str(spans_path.relative_to(ROOT))
    print_report(result, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
