"""Rotated-block-diagonal preconditioner with corner-damped time coupling.

The preconditioner replaces the saddle-point matrix

    A = [ alpha W   T'      ]           W = I x M,  T = B x M + tau I x K
        [ -T        alpha W ]

by

    P = blockdiag(Ceps' + alpha W, Ceps + alpha W) @ (1/2) [[ I, I], [-I, I]]

where Ceps = C x M + tau I x K and C is the backward-difference matrix with
its wrap-around corner entry damped by a factor eps. C is similar to a true
circulant through the geometric scaling D = diag(d), d_j = eps^(j/n), so each
half of the block-diagonal factor is solved by a scaled Fourier transform in
time around n independent complex-shifted spatial solves; the rotation factor
inverts in closed form. Every inner backend is a fixed linear map, so P^-1 is
one too. The spectrum of C and the scalings d come in closed form from
:func:`eps_spectrum`; the dense copy of C is
:func:`pintopt.validation.eps_circulant_matrix`.

The transform follows the convention that spectrum assumes: the unitary
Fourier matrix is ``F[i, j] = theta**(i*j) / sqrt(n)`` with
``theta = exp(2j*pi/n)``; a half's spectrum is F* applied in time, and F
returns it. Both halves share one set of floor(n/2) + 1 shifted solves. The
input is real, so block n - k of each half's spectrum is the conjugate of
block k, and only the rows k = 0..floor(n/2) of F*, called E here, are ever
applied. The transpose half has the shifts conj(lambda_k) + alpha; because M
and K are real, its solve equals conj(solve_k(conj b)) with the plain half's
shift lambda_k + alpha. Complex vectors are rejected, as GMRES solves real
systems only.

For the step counts the solver runs, an explicit transform applied as a real
matrix product costs less than an FFT plus the passes over the time stack
around it (C. Van Loan, Computational Frameworks for the Fast Fourier
Transform, SIAM 1992, ch. 1). One application is therefore two real matrix
products around the batched solve, O(m n^2) work plus the inner solves. The
two matrices are those of numpy's FFT, made once from unit vectors: the
forward one is the rfft with the scalings and the transpose half's
conjugation folded in, the inverse one the irfft of the half spectrum with
the scalings, the conjugation and the rotation folded in.

The blocks whose shifts are real, k = 0 and, for even n, k = n/2, have real
transform rows, and the inverse product reads only their real parts: the
columns for their imaginary parts are zero. A round-off guard therefore
checks, after the solves, that the half spectrum is finite (a NaN or Inf
raises FloatingPointError saying "not finite") and that the imaginary parts
of those blocks stay below IMAG_RESIDUE_BOUND times the larger of 1 and
their largest real part; an inner solver that broke the conjugate-pair
structure would otherwise go unseen.
"""

from dataclasses import dataclass

import numpy as np

IMAG_RESIDUE_BOUND = 1e-11


@dataclass(frozen=True)
class EpsSpectrum:
    """Closed-form eigendata of the corner-damped time-difference matrix.

    lambdas[k] = 1 - eps**(1/n) * theta**(-k) for k = 0..n-1, and scalings
    holds the diagonal ``eps**((k-1)/n)`` (1-indexed k) of the similarity
    that carries the matrix to circulant form.
    """

    lambdas: np.ndarray
    scalings: np.ndarray


def eps_spectrum(n, eps):
    """Eigenvalues and similarity scalings of the corner-damped matrix, 0 < eps <= 1."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"damping factor must lie in (0, 1], got {eps}")
    k = np.arange(n)
    theta = np.exp(2j * np.pi / n)
    lambdas = 1.0 - eps ** (1.0 / n) * theta ** (-k)
    scalings = eps ** (k / n)
    return EpsSpectrum(lambdas=lambdas, scalings=scalings)


def rate_constant(delta, tau, horizon):
    """Damping level delta sqrt(tau) / (delta sqrt(tau) + 2 sqrt(T)).

    Choosing eps equal to this value makes 2 eps sqrt(n) / (1 - eps) = delta,
    the quantity that controls both the field-of-values bound and the
    certified residual contraction factor of the preconditioned iteration.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"damping level must lie in (0, 1), got {delta}")
    root = delta * np.sqrt(tau)
    return root / (root + 2.0 * np.sqrt(horizon))


def choose_epsilon(grid, delta=0.5):
    """Corner damping factor of the solver: the certified level of the theorem.

    Returns :func:`rate_constant` at ``delta``, so that
    2 eps sqrt(n) / (1 - eps) = delta and every solve contracts its residual
    by at least :func:`contraction_factor` of ``delta`` per iteration, a bound
    independent of the matrix size and of gamma. eps is O(sqrt(tau)).
    """
    return rate_constant(delta, grid.tau, grid.horizon)


def contraction_factor(delta):
    """Certified residual reduction per iteration at damping level delta.

    sqrt(-delta^2 + 8 delta + 2) / (2 + delta), derived from a
    field-of-values argument: the symmetric part of the preconditioned
    operator stays above 1 - delta while its norm stays below
    sqrt(2) (1 + delta / 2).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"damping level must lie in (0, 1), got {delta}")
    return np.sqrt(-(delta**2) + 8.0 * delta + 2.0) / (2.0 + delta)


class RbdEpsPreconditioner:
    """Applies P^-1 through the Fourier diagonalization of the damped time coupling.

    ``inner`` supplies the complex-shifted spatial solves through the batched
    ``inner.factor(sigmas) -> solve`` of :mod:`pintopt.shifted`. One solve
    object, for the shifts lambda_k + alpha with k = 0..floor(n/2), serves
    both halves; it is factored on the first application, not here. The
    two transform matrices of the module docstring are built here, once:
    ``_forward`` is the ``(2, n, 2 (n//2 + 1))`` stack, transpose half
    first, each block's real and imaginary parts in adjacent columns, and
    ``_inverse`` the ``(2n, 4 (n//2 + 1))`` matrix that reads the solved
    stack in the same order. So is the one work buffer ``_stack``, the
    forward product's real ``(m, 2, 2 (n//2 + 1))`` view of the complex
    stack that the inner solve overwrites with its solution.
    """

    def __init__(self, grid, gamma, eps, inner):
        if not gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {gamma}")
        self.grid = grid
        self.inner = inner
        self.alpha = grid.tau / np.sqrt(gamma)
        self.spectrum = eps_spectrum(grid.n, eps)
        n = grid.n
        half = n // 2 + 1
        self.size = 2 * grid.m * n
        # the blocks whose shifts are real: k = 0, and k = n/2 for even n
        self._real_blocks = [0, n // 2] if n % 2 == 0 else [0]
        d = self.spectrum.scalings[:, None]
        # E', the rfft of each unit time vector, and the inverse rfft of each
        # unit block e_k and i e_k of the half spectrum, as (n, 2 half) columns
        rows = np.fft.rfft(np.eye(n), norm="ortho")
        units = np.eye(2 * half).view(complex)
        back, back_conj = (np.fft.irfft(u, n, norm="ortho").T for u in (units, units.conj()))
        self._forward = np.stack([rows.conj() / d, rows * d]).view(float)
        self._inverse = np.block([[back_conj * d, -back / d], [back_conj * d, back / d]])
        self._stack = np.empty((grid.m, 2, 2 * half))
        # factored on the first apply
        self._solve = None

    def apply_inverse(self, r, out=None):
        """P^-1 r for a real vector r of length 2 m n, both halves one after the other.

        The result is written into ``out``, a float64 vector of length 2 m n,
        and returned; without ``out`` it is a fresh array. ``out`` may be
        ``r`` itself: the forward product reads all of ``r`` before anything
        is written. Otherwise ``r`` is left unchanged. The forward product,
        the inner solves and the guard run in the kept ``_stack``, so an
        apply into ``out`` makes no array of the system's size, and the
        preconditioner is not reentrant.
        """
        r = np.asarray(r)
        if r.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {r.shape}")
        if np.iscomplexobj(r):
            raise TypeError("only real vectors are supported")
        if out is None:
            out = np.empty(self.size)
        elif out.shape != (self.size,) or out.dtype != float:
            raise ValueError(f"out must be a float64 vector of length {self.size}")
        n, m = self.grid.n, self.grid.m
        half = n // 2 + 1
        if self._solve is None:
            self._solve = self.inner.factor(self.spectrum.lambdas[:half] + self.alpha)
        # [transpose half (Ceps' + alpha W), plain half (Ceps + alpha W)]; the
        # transpose half has shifts conj(lambda_k) + alpha, and since M and K
        # are real its spectrum enters conjugated and leaves conjugated
        stack = self._stack
        signal = r.reshape(2, n, m).transpose(0, 2, 1)
        np.matmul(signal, self._forward, out=stack.transpose(1, 0, 2))
        z = stack.view(complex)
        self._solve(z, out=z)
        # the inverse product drops the imaginary part of the real-shift blocks,
        # so check it here
        if not np.isfinite(z).all():
            raise FloatingPointError("inner solves returned values that are not finite")
        edge = z[..., self._real_blocks]
        residue = np.max(np.abs(edge.imag))
        if residue > IMAG_RESIDUE_BOUND * max(1.0, np.max(np.abs(edge.real))):
            raise FloatingPointError(
                f"imaginary residue {residue:.3e} exceeds the round-off bound; "
                "inner solves lost the conjugate-pair structure"
            )
        np.matmul(self._inverse, stack.reshape(m, 4 * half).T, out=out.reshape(2 * n, m))
        return out
