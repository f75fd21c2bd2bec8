"""Rotated-block-diagonal preconditioner with corner-damped time coupling.

The preconditioner replaces the saddle-point matrix

    A = [ alpha W   T'      ]           W = I x M,  T = B x M + tau I x K
        [ -T        alpha W ]

by

    P = blockdiag(Ceps' + alpha W, Ceps + alpha W) @ (1/2) [[ I, I], [-I, I]]

where Ceps = C x M + tau I x K and C is the backward-difference matrix with
its wrap-around corner entry damped by a factor eps. C is similar to a true
circulant through the geometric scaling diag(eps^(k/n)), so each half of the
block-diagonal factor is solved by a scale / FFT-in-time sandwich around n
independent complex-shifted spatial solves; the rotation factor inverts in
closed form. One application costs O(m n log n) plus the inner solves, and
every inner backend is a fixed linear map, so P^-1 is one too. The spectrum
of C and its similarity scalings come in closed form from
:func:`eps_spectrum`; the dense copy of C is
:func:`pintopt.validation.eps_circulant_matrix`.

The FFT in time follows the convention that spectrum assumes: the unitary
Fourier matrix is ``F[i, j] = theta**(i*j) / sqrt(n)`` with
``theta = exp(2j*pi/n)``, so ``numpy``'s forward FFT with ``norm='ortho'``
applies ``F*`` and the ortho IFFT applies ``F``. For real input,
``numpy.fft.rfft`` with ``norm='ortho'`` gives the first ``n // 2 + 1`` rows
of ``F*`` applied to it, and ``irfft(..., n=n, norm='ortho')`` applies ``F``
to the conjugate-symmetric extension of such a half spectrum, keeping the
real part.

Both halves share one set of floor(n/2) + 1 shifted solves. The input is
real, so block n - k of each half's spectrum is the conjugate of block k:
the real-input FFT (numpy's rfft) computes only the blocks k = 0..floor(n/2),
those are solved, and the real inverse FFT (irfft) returns the real result
without the other half ever being formed. The transpose half has the shifts
conj(lambda_k) + alpha; because M and K are real, its solve equals
conj(solve_k(conj b)) with the plain half's shift lambda_k + alpha. Complex
vectors are rejected, as GMRES solves real systems only.

irfft keeps only the real part of the blocks whose shifts are real, k = 0 and,
for even n, k = n/2. A round-off guard therefore checks, after the solves,
that the half spectrum is finite (a NaN or Inf raises FloatingPointError
saying "not finite") and that the imaginary parts of those blocks stay below
IMAG_RESIDUE_BOUND times the larger of 1 and their largest real part; an
inner solver that broke the conjugate-pair structure would otherwise go
unseen.
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

    n: int
    eps: float
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
    return EpsSpectrum(n=n, eps=eps, lambdas=lambdas, scalings=scalings)


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


def choose_epsilon(grid, policy="step", delta=0.5):
    """Corner damping factor for a grid, by policy.

    "step": half the time step, capped at 1/2 — the practical default.
    "rate": the value of :func:`rate_constant` at the given delta, which
    certifies a residual contraction factor of :func:`contraction_factor`.
    """
    if policy == "step":
        return min(0.5, grid.tau / 2.0)
    if policy == "rate":
        return rate_constant(delta, grid.tau, grid.horizon)
    raise ValueError(f"unknown policy {policy!r}")


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
    """Applies P^-1 through FFT diagonalization of the damped time coupling.

    ``inner`` supplies the complex-shifted spatial solves through the batched
    ``inner.factor(sigmas) -> solve`` of :mod:`pintopt.shifted`. One solve
    object, for the shifts lambda_k + alpha with k = 0..floor(n/2), serves
    both halves; it is factored on the first application, not here.
    """

    def __init__(self, grid, gamma, eps, inner):
        if not gamma > 0:
            raise ValueError(f"regularization weight must be positive, got {gamma}")
        self.grid = grid
        self.inner = inner
        self.alpha = grid.tau / np.sqrt(gamma)
        self.spectrum = eps_spectrum(grid.n, eps)
        self.size = 2 * grid.m * grid.n
        d = self.spectrum.scalings[:, None]
        # time scalings before the FFT, per half; after the inverse FFT they swap
        self._scale = np.stack([1.0 / d, d])
        # the blocks whose shifts are real: k = 0, and k = n/2 for even n
        self._real_blocks = [0, grid.n // 2] if grid.n % 2 == 0 else [0]
        # factored solve and the two work buffers, made on the first apply
        self._solve = None
        self._signal = None
        self._spectrum = None

    def apply_inverse(self, r):
        """P^-1 r for a real vector r of length 2 m n, both halves one after the other.

        Returns a fresh array; ``r`` is left unchanged.
        """
        r = np.asarray(r)
        if r.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {r.shape}")
        if np.iscomplexobj(r):
            raise TypeError("only real vectors are supported")
        n, m = self.grid.n, self.grid.m
        half = n // 2 + 1
        if self._solve is None:
            self._solve = self.inner.factor(self.spectrum.lambdas[:half] + self.alpha)
            self._signal = np.empty((2, n, m))
            self._spectrum = np.empty((2, half, m), dtype=complex)
        # [transpose half (Ceps' + alpha W), plain half (Ceps + alpha W)]
        signal = np.multiply(r.reshape(2, n, m), self._scale, out=self._signal)
        z = np.fft.rfft(signal, axis=1, norm="ortho", out=self._spectrum)
        # the transpose half has shifts conj(lambda_k) + alpha; M and K are real,
        # so its solve is conj(solve_k(conj b)) with the plain half's solver
        np.conjugate(z[0], out=z[0])
        z = self._solve(z)
        np.conjugate(z[0], out=z[0])
        # irfft drops the imaginary part of the real-shift blocks, so check it here
        if not np.isfinite(z).all():
            raise FloatingPointError("inner solves returned values that are not finite")
        edge = z[:, self._real_blocks]
        residue = np.max(np.abs(edge.imag))
        if residue > IMAG_RESIDUE_BOUND * max(1.0, np.max(np.abs(edge.real))):
            raise FloatingPointError(
                f"imaginary residue {residue:.3e} exceeds the round-off bound; "
                "inner solves lost the conjugate-pair structure"
            )
        signal = np.fft.irfft(z, n=n, axis=1, norm="ortho", out=self._signal)
        signal *= self._scale[::-1]
        # closed-form inverse of the rotation factor (1/2) [[I, I], [-I, I]]
        out = np.empty((2, n, m))
        np.subtract(signal[0], signal[1], out=out[0])
        np.add(signal[0], signal[1], out=out[1])
        return out.reshape(-1)

