"""Left-preconditioned GMRES with modified Gram-Schmidt and Givens rotations.

Full GMRES (no restarts), zero initial guess. The iteration runs on the
left-preconditioned operator v -> P^-1 (A v); the residual history tracks
|| P^-1 (b - A x_k) ||_2 through the Givens-rotated least-squares problem,
and the stopping test is relative to || P^-1 b ||_2. Both maps are passed
as plain callables so sparse, matrix-free and dense operators all fit.
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
    if beta == 0.0:
        return SolveReport(
            x=np.zeros(size), converged=True, iterations=0, residuals=[0.0]
        )

    basis = [r0 / beta]
    hess = np.zeros((maxit + 1, maxit))
    cs = np.zeros(maxit)
    sn = np.zeros(maxit)
    g = np.zeros(maxit + 1)
    g[0] = beta
    residuals = [beta]
    converged = False
    k = 0

    for j in range(maxit):
        # copy: operators are allowed to hand back their input unchanged
        w = np.array(prec(apply_op(basis[j])), dtype=float)
        # two-pass modified Gram-Schmidt keeps the basis orthonormal even
        # when the new direction is almost dependent near convergence
        for _ in range(2):
            for i in range(j + 1):
                c = basis[i] @ w
                hess[i, j] += c
                w -= c * basis[i]
        hess[j + 1, j] = np.linalg.norm(w)
        breakdown = hess[j + 1, j] <= 1e-14 * beta
        if not breakdown:
            basis.append(w / hess[j + 1, j])

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
    x = np.column_stack(basis[:k]) @ y
    return SolveReport(
        x=x,
        converged=converged,
        iterations=k,
        residuals=residuals,
        basis=np.column_stack(basis) if keep_basis else None,
    )
