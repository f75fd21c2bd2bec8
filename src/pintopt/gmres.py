"""Left-preconditioned GMRES with CGS2 orthogonalisation and Givens rotations.

Full GMRES (no restarts), zero initial guess. The iteration runs on the
left-preconditioned operator v -> P^-1 (A v); the residual history tracks
|| P^-1 (b - A x_k) ||_2 through the Givens-rotated least-squares problem,
and the stopping test is relative to || P^-1 b ||_2.

Both maps are callables with one convention, ``f(v, out=w)``: write f(v)
into the given length-N array ``w``. ``w`` may be ``v`` itself, for the
preconditioner, which is applied in place on the new basis row. For a
dense matrix A, ``functools.partial(np.matmul, A)`` keeps the convention.

The Krylov basis lives in one preallocated array whose row j is v_j: the
operator writes A v_j straight into row j + 1 and the preconditioner works
on it there, so an Arnoldi step allocates no array of the system's size.
Each new direction is orthogonalised by classical Gram-Schmidt applied
twice (CGS2): two passes of two matrix-vector products against the rows
filled so far, which keeps the basis orthonormal to working precision like
a two-pass modified Gram-Schmidt (Giraud, Langou & Rozloznik, 2005). The
update ``c @ V`` of each pass goes into one kept vector.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import scipy.linalg

DEFAULT_MAXIT = 100


@dataclass
class SolveReport:
    """Outcome of one GMRES run.

    ``residuals[k]`` is the preconditioned residual norm after k iterations
    (``residuals[0]`` is the preconditioned rhs norm), so the achieved
    relative residual is ``residuals[-1] / residuals[0]``. ``basis`` holds
    the orthonormal Krylov directions as rows, a view of the solver's own
    array: k + 1 of them after k iterations, k after a breakdown.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: List[float] = field(default_factory=list)
    basis: Optional[np.ndarray] = None


def _identity(v, out):
    np.copyto(out, v)


def gmres_solve(apply_op, b, apply_prec=None, tol=1e-6, maxit=None):
    """Solve A x = b with left preconditioning, from a zero initial guess.

    apply_op and apply_prec write A v and P^-1 v into ``out``, as
    ``apply_op(v, out=w)`` and ``apply_prec(v, out=w)`` (the module
    docstring's convention; no preconditioner is the identity). The
    preconditioner is called with ``out`` equal to its input, on the basis
    row the operator has just written. Iterations stop when the
    preconditioned relative residual drops to ``tol`` or after ``maxit``
    steps. A breakdown, a new direction that lies numerically in the span
    of the basis, also stops them; it counts as converged only when the
    residual test holds. ``maxit`` defaults to ``DEFAULT_MAXIT`` = 100, the
    command line's ``--maxit`` default, and is capped at the system size, the
    largest Krylov space there is: the Hessenberg matrix and the basis
    grow with ``maxit``, so a size-long default would ask for memory
    quadratic in the system size.

    The basis is one ``(maxit + 1, size)`` array from ``np.empty``. Its pages
    become resident as rows are written, but the kernel checks the whole
    reservation at once, so ``ExperimentSpec`` checks it before any solve.
    Besides it, the loop keeps one size-long vector for the Gram-Schmidt
    update; the solution is the only other array of that size it makes.

    Raises FloatingPointError, naming the iteration, as soon as the
    preconditioned right-hand side norm or a new Hessenberg column is not
    finite (a NaN or Inf from the operator or the preconditioner).
    """
    b = np.asarray(b)
    if np.iscomplexobj(b):
        raise TypeError("only real systems are supported")
    b = b.astype(float, copy=False)
    size = b.size
    maxit = min(size, DEFAULT_MAXIT if maxit is None else maxit)
    prec = apply_prec if apply_prec is not None else _identity

    basis = np.empty((maxit + 1, size))
    prec(b, out=basis[0])
    beta = float(np.linalg.norm(basis[0]))
    if not np.isfinite(beta):
        raise FloatingPointError(
            "GMRES iteration 0: preconditioned right-hand side is not finite"
        )
    if beta == 0.0:
        return SolveReport(
            x=np.zeros(size), converged=True, iterations=0, residuals=[0.0],
            basis=np.empty((0, size)),
        )

    basis[0] /= beta
    update = np.empty(size)
    hess = np.zeros((maxit + 1, maxit))
    cs = np.zeros(maxit)
    sn = np.zeros(maxit)
    g = np.zeros(maxit + 1)
    g[0] = beta
    residuals = [beta]
    converged = breakdown = False
    k = 0

    for j in range(maxit):
        w = basis[j + 1]
        apply_op(basis[j], out=w)
        prec(w, out=w)
        # CGS2: a second pass restores orthogonality when the new direction
        # is almost dependent near convergence
        V = basis[: j + 1]
        for _ in range(2):
            c = V @ w
            w -= np.matmul(c, V, out=update)
            hess[: j + 1, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(hess[: j + 2, j]).all():
            raise FloatingPointError(
                f"GMRES iteration {j + 1}: new Hessenberg column is not finite"
            )
        # happy breakdown: orthogonalisation left almost nothing of w. The
        # basis is orthonormal, so the column's norm is w's norm before it
        breakdown = hess[j + 1, j] <= 1e-14 * np.linalg.norm(hess[: j + 2, j])
        if not breakdown:
            w /= hess[j + 1, j]

        for i in range(j):
            t = cs[i] * hess[i, j] + sn[i] * hess[i + 1, j]
            hess[i + 1, j] = -sn[i] * hess[i, j] + cs[i] * hess[i + 1, j]
            hess[i, j] = t
        denom = np.hypot(hess[j, j], hess[j + 1, j])
        if denom == 0.0:
            cs[j], sn[j] = 1.0, 0.0
        else:
            cs[j], sn[j] = hess[j, j] / denom, hess[j + 1, j] / denom
        hess[j, j] = denom
        hess[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        residuals.append(abs(g[j + 1]))
        k = j + 1
        converged = residuals[-1] <= tol * beta
        if converged or breakdown:
            break

    y = scipy.linalg.solve_triangular(hess[:k, :k], g[:k])
    x = y @ basis[:k]
    # on breakdown the last row is the unnormalised remainder, not a direction
    directions = k if breakdown else k + 1
    return SolveReport(
        x=x,
        converged=converged,
        iterations=k,
        residuals=residuals,
        basis=basis[:directions],
    )
