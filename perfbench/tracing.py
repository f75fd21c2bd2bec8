"""Seams into the solver pipeline, the in-memory span recorder and the layer metrics.

The benchmark never edits the package. It replaces, for the length of one
cell, names that ``pintopt.bench.solve_cell`` resolves at call time
(``make_inner_solver``, ``build_stiffness``, ``assemble_rhs``, ``gmres_solve``,
``error_norm``) and the ``dst2d`` name the sine-transform solver calls, and it
wraps the callables that flow through them: the ``apply_op`` and
``apply_prec`` arguments of ``gmres_solve``, the inner solver's ``make`` method
and the solve closures ``make`` returns. Every name is restored when the cell
ends. A seam that no longer exists is recorded as absent and the metrics that
need it are reported as absent; the solve itself still runs.

Untraced solves install only :class:`GmresProbe` on ``gmres_solve``: one
wrapper call per cell, which splits the cell into set-up (entry of
``solve_cell`` to the first ``gmres_solve`` call) and solve (time inside
``gmres_solve``).
"""

import contextlib
import inspect
import time
from collections import defaultdict

# seam labels, as listed under "absent" when a seam cannot be installed
BENCH_SEAMS = {
    "make_inner_solver": "bench.make_inner_solver",
    "build_stiffness": "discretize.build_stiffness",
    "assemble_rhs": "discretize.assemble_rhs",
    "error_norm": "discretize.error_norm",
}
MATVEC = "operators.matvec"
APPLY = "rbd.apply"
GMRES = "gmres.solve"
INNER_MAKE = "inner.make"
DST2D = "transforms.dst2d"
INNER_MODULES = ("shifted", "multigrid")

# name, unit, the seams it needs, and the end-to-end metric it should move
LAYER_METRICS = (
    ("discretize.assemble_s", "s", ("discretize.build_stiffness", "discretize.assemble_rhs"),
     "setup_s; with bench.inner_build_s, about 3% of total_s on every workload"),
    ("bench.inner_build_s", "s", ("bench.make_inner_solver",),
     "setup_s (includes the multigrid hierarchy)"),
    ("discretize.error_norm_s", "s", ("discretize.error_norm",),
     "total_s; small share everywhere"),
    ("operators.matvec_calls", "count", (MATVEC,), "solve_s on ex1-*; negligible on ex2-mg-h6"),
    ("operators.matvec_s", "s", (MATVEC,), "solve_s on ex1-*; negligible on ex2-mg-h6"),
    ("rbd.apply_calls", "count", (APPLY,), "recorded"),
    ("rbd.apply_s", "s", (APPLY,), "recorded"),
    ("rbd.first_apply_s", "s", (APPLY,), "recorded; includes lazy set-up"),
    ("rbd.self_s", "s", (APPLY, INNER_MAKE),
     "solve_s on ex1-* (time FFT, scalings, rotation, conjugate fill, residue guard)"),
    ("shifted.make_calls", "count", (INNER_MAKE,), "solve_s on ex1-*; no change on ex2-mg-h6"),
    ("shifted.solve_calls", "count", (INNER_MAKE,), "solve_s on ex1-*; no change on ex2-mg-h6"),
    ("shifted.solve_s", "s", (INNER_MAKE,), "solve_s on ex1-*; no change on ex2-mg-h6"),
    ("transforms.dst2d_calls", "count", (DST2D,), "solve_s on ex1-*; no change on ex2-mg-h6"),
    ("transforms.dst2d_s", "s", (DST2D,), "solve_s on ex1-*; no change on ex2-mg-h6"),
    ("multigrid.make_calls", "count", (INNER_MAKE,),
     "total_s, peak_rss_mb on ex2-mg-h6; no change on ex1-*"),
    ("multigrid.make_s", "s", (INNER_MAKE,),
     "total_s, peak_rss_mb on ex2-mg-h6; no change on ex1-*"),
    ("multigrid.solve_calls", "count", (INNER_MAKE,),
     "total_s on ex2-mg-h6; no change on ex1-*"),
    ("multigrid.solve_s", "s", (INNER_MAKE,),
     "total_s on ex2-mg-h6; no change on ex1-*"),
    ("multigrid.distinct_shift_ratio", "ratio", (INNER_MAKE,),
     "total_s, peak_rss_mb on ex2-mg-h6; 0 where multigrid does not run"),
    ("gmres.self_s", "s", (GMRES, MATVEC, APPLY),
     "solve_s, peak_rss_mb on ex1-dst-h6-tight; little effect on ex2-mg-h6"),
    ("gmres.s_per_iter", "s", (GMRES,), "solve_s on ex1-dst-h6-tight"),
    ("gmres.orth_bytes", "bytes", (GMRES,),
     "computed, not measured: 16 N k (k + 1) for two-pass Gram-Schmidt over k "
     "iterations on vectors of N doubles; solve_s, peak_rss_mb on ex1-dst-h6-tight"),
    ("process.cpu_per_wall", "ratio", (GMRES,),
     "total_s on every workload once frequency solves run in parallel"),
    ("trace.overhead_frac", "ratio", (), "traced total_s / untraced total_s - 1"),
)


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, cell id]."""

    def __init__(self):
        self.spans = []
        self.shifts = []  # (cell id, inner module, sigma) per make call
        self.absent = set()
        self.cell = None
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.cell])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()

        return traced

    def wrap_inner(self, inner):
        """Trace ``inner.make`` and the solve closures it hands out."""
        make = getattr(inner, "make", None)
        if not callable(make):
            self.absent.add(INNER_MAKE)
            return inner
        module = type(inner).__module__.rsplit(".", 1)[-1]

        def make_traced(sigma, *args, **kwargs):
            self.shifts.append((self.cell, module, complex(sigma)))
            solve = make(sigma, *args, **kwargs)
            return self.wrap(f"{module}.solve", solve) if callable(solve) else solve

        inner.make = self.wrap(f"{module}.make", make_traced)
        return inner


class GmresProbe:
    """Stands in for ``gmres_solve`` during one cell and records what it saw.

    Keeps the operator, right-hand side and solution of the last call so the
    true residual can be recomputed after the timed region.
    """

    def __init__(self, gmres_solve, tracer=None):
        self.gmres_solve = gmres_solve
        self.tracer = tracer
        self.signature = inspect.signature(gmres_solve)
        self.enter = None
        self.wall = 0.0
        self.cpu = 0.0
        self.apply_op = self.b = self.x = None

    def __call__(self, *args, **kwargs):
        start, cpu = time.perf_counter(), time.process_time()
        if self.enter is None:
            self.enter = start
        bound = self.signature.bind(*args, **kwargs)
        # the operator and right-hand side come first, whatever their names
        self.apply_op, self.b = list(bound.arguments.values())[:2]
        solve = self.gmres_solve
        if self.tracer is not None:
            self._trace_arguments(bound)
            solve = self.tracer.wrap(GMRES, solve)
        try:
            report = solve(*bound.args, **bound.kwargs)
        finally:
            self.wall += time.perf_counter() - start
            self.cpu += time.process_time() - cpu
        self.x = getattr(report, "x", None)
        return report

    def _trace_arguments(self, bound):
        for parameter, name in (("apply_op", MATVEC), ("apply_prec", APPLY)):
            fn = bound.arguments.get(parameter)
            if callable(fn):
                bound.arguments[parameter] = self.tracer.wrap(name, fn)
            else:
                self.tracer.absent.add(name)


@contextlib.contextmanager
def seams(bench, shifted, probe, tracer=None):
    """Install the probe (and, with a tracer, every span seam) for one cell."""
    saved = []

    def patch(module, name, wrapper):
        saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    try:
        patch(bench, "gmres_solve", probe)
        if tracer is not None:
            for name, label in BENCH_SEAMS.items():
                if callable(getattr(bench, name, None)):
                    patch(bench, name, tracer.wrap(label, getattr(bench, name)))
                else:
                    tracer.absent.add(label)
            # wraps the span-recording builder, so make is traced after it returns
            if callable(getattr(bench, "make_inner_solver", None)):
                builder = bench.make_inner_solver
                patch(bench, "make_inner_solver",
                      lambda *a, **k: tracer.wrap_inner(builder(*a, **k)))
            else:
                tracer.absent.add(INNER_MAKE)
            if callable(getattr(shifted, "dst2d", None)):
                patch(shifted, "dst2d", tracer.wrap(DST2D, shifted.dst2d))
            else:
                tracer.absent.add(DST2D)
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def self_times(spans, first=0):
    """Each span's duration minus the durations of its direct children.

    ``spans`` is a slice of the recorder's list that starts at index ``first``
    and holds whole subtrees, so every parent index points into it or before it.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= first:
            own[parent - first] -= end - start
    return own


def cell_layers(spans, first, shifts, iterations, size):
    """Per-layer figures of one traced cell from its spans ``spans[first:]``."""
    spans = spans[first:]
    own = self_times(spans, first)
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_busy = defaultdict(float)
    first_apply = None
    for (name, start, end, _, _), own_time in zip(spans, own):
        calls[name] += 1
        busy[name] += end - start
        self_busy[name] += own_time
        if name == APPLY and first_apply is None:
            first_apply = end - start
    mg_shifts = [s for _, module, s in shifts if module == "multigrid"]
    distinct = {(round(s.real, 12), round(abs(s.imag), 12)) for s in mg_shifts}
    out = {
        "discretize.assemble_s": busy["discretize.build_stiffness"]
        + busy["discretize.assemble_rhs"],
        "bench.inner_build_s": busy["bench.make_inner_solver"],
        "discretize.error_norm_s": busy["discretize.error_norm"],
        "operators.matvec_calls": calls[MATVEC],
        "operators.matvec_s": busy[MATVEC],
        "rbd.apply_calls": calls[APPLY],
        "rbd.apply_s": busy[APPLY],
        "rbd.first_apply_s": first_apply or 0.0,
        "rbd.self_s": self_busy[APPLY],
        "transforms.dst2d_calls": calls[DST2D],
        "transforms.dst2d_s": busy[DST2D],
        "gmres.self_s": self_busy[GMRES],
        "gmres.solve_s": busy[GMRES],
        "gmres.orth_bytes": 16 * size * iterations * (iterations + 1),
        "multigrid.distinct_shifts": len(distinct),
    }
    for module in INNER_MODULES:
        out[f"{module}.make_calls"] = calls[f"{module}.make"]
        out[f"{module}.make_s"] = busy[f"{module}.make"]
        out[f"{module}.solve_calls"] = calls[f"{module}.solve"]
        out[f"{module}.solve_s"] = busy[f"{module}.solve"]
    return out
