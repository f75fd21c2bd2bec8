"""Mutation check of tier 1: does each listed small fault fail a test?

Run it with:

    python3 mutation/run.py

It prints the table, then one line per mutant and a summary.

Each mutant is one row of ``MUTANTS``: a file, an exact anchor text, its
replacement and one line on what the change breaks. Most change one line;
the set-up cache's key cannot lose an argument in one line, so that mutant
replaces the cache with a small one keyed without it. For each mutant, the
checkout is copied to a temporary directory, the anchor is replaced there
and ``python -m pytest -x -q tests`` runs in it. A mutant is killed when
that run fails; the checkout itself is never written. An anchor that does
not occur exactly once in its file fails the whole run before any test
runs, so the list is kept up with the code, and so does an unmutated copy
whose tests do not pass, because then a failure would kill every mutant.

``EQUIVALENT`` lists mutants that no input can tell from the original, each
with the reason. Their anchors are checked too, but their tests are not run.

Exit code 0 when every mutant is killed, 1 when one survives, 2 when an
anchor is stale or the unmutated copy fails.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# not copied: version control, caches and benchmark output
SKIPPED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out")

# the mesh set-up cache, and one whose key leaves out the inner solver
MESH_SETUP = "@functools.lru_cache(maxsize=1)\ndef mesh_setup(example, inner, h):\n"
MESH_SETUP_WITHOUT_INNER = """_kept = {}


def mesh_setup(example, inner, h):
    if (example, h) not in _kept:
        _kept.clear()
        _kept[example, h] = _mesh_setup(example, inner, h)
    return _kept[example, h]


mesh_setup.cache_clear = _kept.clear


def _mesh_setup(example, inner, h):
"""

# (file, anchor, replacement, what it breaks)
MUTANTS = [
    ("src/pintopt/gmres.py", "for _ in range(2):", "for _ in range(1):",
     "CGS1 instead of CGS2: the basis loses orthogonality near convergence"),
    ("src/pintopt/gmres.py", "hess[j + 1, j] <= 1e-14 *", "hess[j + 1, j] <= 1e-8 *",
     "breakdown threshold 1e-8: a small but true direction stops GMRES early"),
    ("src/pintopt/rbd.py", "IMAG_RESIDUE_BOUND = 1e-11", "IMAG_RESIDUE_BOUND = 1e-6",
     "round-off guard bound 1e-6: an imaginary residue of 1e-8 goes unseen"),
    ("src/pintopt/rbd.py", "[0, n // 2] if n % 2 == 0 else [0]", "[0]",
     "guard without the Nyquist block: its lost imaginary part goes unseen"),
    ("src/pintopt/rbd.py", "(root + 2.0 * np.sqrt(horizon))", "(root + 1.0 * np.sqrt(horizon))",
     "eps off the certified level: the contraction bound no longer holds"),
    ("src/pintopt/bench.py", "> 1e-12 * unit", "> 1e-3 * unit",
     "a nearly constant coefficient gets the sine transform and a wrong K"),
    ("src/pintopt/bench.py", "except (FloatingPointError, MemoryError) as exc:",
     "except FloatingPointError as exc:",
     "a MemoryError kills the whole sweep instead of one cell"),
    ("src/pintopt/bench.py", "if available is not None and need > available:", "if False:",
     "no memory check: a sweep that cannot fit starts anyway"),
    ("src/pintopt/bench.py", "arrays = WORKING_ARRAYS[", "arrays = 0 * WORKING_ARRAYS[",
     "memory check without the working arrays: it under-counts"),
    ("src/pintopt/bench.py", "[: self.jobs]", "[:1]",
     "memory check ignores the worker count: parallel cells under-count"),
    ("src/pintopt/bench.py", "EPS_FLOOR = math.sqrt(np.finfo(float).eps)",
     "EPS_FLOOR = np.finfo(float).eps",
     "eps floor at u instead of sqrt(u): a delta whose round-off moves e_h runs"),
    ("src/pintopt/bench.py", "fine = cell_grid(finest)", "fine = cell_grid(max(self.h_values))",
     "eps floor checked at the coarsest h: the finer cells of a sweep pass under it"),
    ("src/pintopt/bench.py", MESH_SETUP, MESH_SETUP_WITHOUT_INNER,
     "set-up kept per (example, h) without inner: an mg cell reuses a sine transform"),
    ("src/pintopt/bench.py", 'f"{x:.2e}"', 'f"{x:.3e}"',
     "four significant digits in the tables instead of three"),
    ("src/pintopt/discretize.py", "    fields[0] /= np.sqrt(problem.gamma)\n", "",
     "error_norm compares sqrt(gamma) y, not y, with the exact state"),
    ("src/pintopt/operators.py", "elif np.shares_memory(out, x):", "elif False:",
     "the operator writes into its own input when out aliases it"),
    ("src/pintopt/multigrid.py", "self.prolong.T / 4 @", "self.prolong.T / 2 @",
     "R = P'/2 instead of the full-weighting P'/4"),
    ("src/pintopt/multigrid.py",
     "if any((level.diag[:, None] + sigmas == 0).any() for level in self.levels):",
     "if False:",
     "a shift that zeroes a coarse diagonal divides by zero in the cycle"),
    ("src/pintopt/multigrid.py", "np.stack([north.ravel(), west.ravel()], axis=1)",
     "np.stack([west.ravel(), north.ravel()], axis=1)",
     "swapped weights of a pair: (i-1, j) gets the coupling of (i, j-1)"),
    ("src/pintopt/multigrid.py", "            acc -= tmp\n", "            pass\n",
     "post-sweep without the product of the pair after a front: not Gauss-Seidel"),
]

# (file, anchor, replacement, why no input tells it apart)
EQUIVALENT = [
    ("src/pintopt/gmres.py", "np.isfinite(hess[: j + 2, j]).all()",
     "np.isfinite(hess[j + 1, j]).all()",
     "a non-finite projection coefficient reaches every entry of w through "
     "w -= c @ V, so the subdiagonal is non-finite at the same iteration"),
]


def stale_anchors():
    """Rows whose anchor does not occur exactly once in their file."""
    stale = []
    for path, anchor, _, _ in MUTANTS + EQUIVALENT:
        found = (ROOT / path).read_text().count(anchor)
        if found != 1:
            stale.append(f"{path}: anchor {anchor!r} occurs {found} times")
    return stale


def run_mutant(path, anchor, replacement):
    """Run tier 1 on a mutated copy: the first failure's summary line, or None if all pass."""
    with tempfile.TemporaryDirectory(prefix="pintopt-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=SKIPPED)
        target = copy / path
        target.write_text(target.read_text().replace(anchor, replacement))
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
            cwd=copy, capture_output=True, text=True,
        )
    if result.returncode == 0:
        return None
    lines = result.stdout.strip().splitlines()
    failures = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return (failures or lines[-1:] or [f"exit code {result.returncode}"])[0]


def main():
    stale = stale_anchors()
    if stale:
        print("\n".join(stale), file=sys.stderr)
        return 2
    for number, (path, anchor, replacement, breaks) in enumerate(MUTANTS, 1):
        print(f"{number:2d} {path}: {anchor.strip()!r} -> {replacement.strip()!r}  ({breaks})")
    for path, anchor, replacement, reason in EQUIVALENT:
        print(f"eq {path}: {anchor!r} -> {replacement!r}  (equivalent: {reason})")

    start = time.perf_counter()
    path, anchor = MUTANTS[0][:2]
    failure = run_mutant(path, anchor, anchor)  # the anchor for itself: no change
    if failure:
        print(f"the unmutated copy fails: {failure}", file=sys.stderr)
        return 2
    print(f"unmutated copy passes ({time.perf_counter() - start:.1f} s)", flush=True)
    survivors = []
    for number, (path, anchor, replacement, _) in enumerate(MUTANTS, 1):
        begun = time.perf_counter()
        failure = run_mutant(path, anchor, replacement)
        verdict = f"killed by {failure}" if failure else "SURVIVED"
        print(f"{number:2d} {verdict} ({time.perf_counter() - begun:.1f} s)", flush=True)
        if failure is None:
            survivors.append(number)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed, "
          f"{len(EQUIVALENT)} equivalent not run, {time.perf_counter() - start:.0f} s")
    if survivors:
        print(f"survived: {', '.join(map(str, survivors))}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
