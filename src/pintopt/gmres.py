"""Left-preconditioned GMRES with CGS2 orthogonalisation and Givens rotations.

Full GMRES (no restarts), zero initial guess. The iteration runs on the
left-preconditioned operator v -> P^-1 (A v); the residual history tracks
|| P^-1 (b - A x_k) ||_2 through the Givens-rotated least-squares problem,
and the stopping test is relative to || P^-1 b ||_2. Both maps are passed
as plain callables so sparse, matrix-free and dense operators all fit.

The Krylov basis lives in one preallocated array whose row j is v_j. Each
new direction is orthogonalised by classical Gram-Schmidt applied twice
(CGS2): two passes of two matrix-vector products against the rows filled
so far, which keeps the basis orthonormal to working precision like a
two-pass modified Gram-Schmidt (Giraud, Langou & Rozloznik, 2005).
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
    relative residual is ``residuals[-1] / residuals[0]``.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residuals: List[float] = field(default_factory=list)
    basis: Optional[np.ndarray] = None

    @property
    def relative_residual(self):
        if self.residuals and self.residuals[0] > 0:
            return self.residuals[-1] / self.residuals[0]
        return 0.0


def gmres_solve(apply_op, b, apply_prec=None, tol=1e-6, maxit=None, keep_basis=False):
    """Solve A x = b with left preconditioning, from a zero initial guess.

    apply_op and apply_prec are callables mapping a vector to A v and
    P^-1 v (identity when apply_prec is None). Iterations stop when the
    preconditioned relative residual drops to ``tol`` or after ``maxit``
    steps. The default is the smaller of the system size and
    ``DEFAULT_MAXIT`` = 100, the command line's ``--maxit`` default: the
    Hessenberg matrix and the basis grow with ``maxit``, so a size-long
    default would ask for memory quadratic in the system size.

    The basis is one ``(maxit + 1, size)`` array allocated with
    ``np.empty``, whose pages become resident only as rows are written, so
    resident memory follows the iterations actually taken.

    Raises FloatingPointError, naming the iteration, as soon as the
    preconditioned right-hand side norm or a new Hessenberg column is not
    finite (a NaN or Inf from the operator or the preconditioner).
    """
    b = np.asarray(b)
    if np.iscomplexobj(b):
        raise TypeError("only real systems are supported")
    b = b.astype(float, copy=False)
    size = b.size
    if maxit is None:
        maxit = min(size, DEFAULT_MAXIT)
    prec = apply_prec if apply_prec is not None else lambda v: v

    r0 = prec(b)
    beta = float(np.linalg.norm(r0))
    if not np.isfinite(beta):
        raise FloatingPointError(
            "GMRES iteration 0: preconditioned right-hand side is not finite"
        )
    if beta == 0.0:
        return SolveReport(
            x=np.zeros(size), converged=True, iterations=0, residuals=[0.0]
        )

    basis = np.empty((maxit + 1, size))
    np.divide(r0, beta, out=basis[0])
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
        # the assignment copies: operators may hand back their input unchanged
        w[...] = prec(apply_op(basis[j]))
        # CGS2: a second pass restores orthogonality when the new direction
        # is almost dependent near convergence
        V = basis[: j + 1]
        for _ in range(2):
            c = V @ w
            w -= c @ V
            hess[: j + 1, j] += c
        hess[j + 1, j] = np.linalg.norm(w)
        if not np.isfinite(hess[: j + 2, j]).all():
            raise FloatingPointError(
                f"GMRES iteration {j + 1}: new Hessenberg column is not finite"
            )
        breakdown = hess[j + 1, j] <= 1e-14 * beta
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
        if residuals[-1] <= tol * beta or breakdown:
            converged = True
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
        basis=basis[:directions].T if keep_basis else None,
    )
