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
every inner backend is a fixed linear map, so P^-1 is one too.

Both halves share one set of floor(n/2) + 1 shifted solves. For a real
vector, block n - k of each half is the conjugate of block k, so only the
blocks k = 0..floor(n/2) are solved and the rest are filled by conjugation.
The transpose half has the shifts conj(lambda_k) + alpha; because M and K are
real, its solve equals conj(solve_k(conj b)) with the plain half's shift
lambda_k + alpha. A complex vector is applied as its real and imaginary parts.
"""

import numpy as np

from .transforms import eps_spectrum

IMAG_RESIDUE_BOUND = 1e-11


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
        self.gamma = float(gamma)
        self.eps = float(eps)
        self.inner = inner
        self.alpha = grid.tau / np.sqrt(gamma)
        self.spectrum = eps_spectrum(grid.n, eps)
        self.size = 2 * grid.m * grid.n
        d = self.spectrum.scalings[:, None]
        # time scalings before the FFT, per half; after the inverse FFT they swap
        self._scale = np.stack([1.0 / d, d])
        self._solve = None

    def apply_inverse(self, r):
        """P^-1 r for a vector r of length 2 m n, both halves one after the other."""
        r = np.asarray(r)
        if r.shape != (self.size,):
            raise ValueError(f"expected a vector of length {self.size}, got {r.shape}")
        if np.iscomplexobj(r):
            return self.apply_inverse(r.real) + 1j * self.apply_inverse(r.imag)
        n, m = self.grid.n, self.grid.m
        half = n // 2 + 1
        if self._solve is None:
            self._solve = self.inner.factor(self.spectrum.lambdas[:half] + self.alpha)
        # [transpose half (Ceps' + alpha W), plain half (Ceps + alpha W)]
        z = np.fft.fft(r.reshape(2, n, m) * self._scale, axis=1, norm="ortho")
        # the transpose half has shifts conj(lambda_k) + alpha; M and K are real,
        # so its solve is conj(solve_k(conj b)) with the plain half's solver
        np.conjugate(z[0, :half], out=z[0, :half])
        z[:, :half] = self._solve(z[:, :half])
        np.conjugate(z[0, :half], out=z[0, :half])
        z[:, half:] = np.conj(z[:, n - half:0:-1])
        z = np.fft.ifft(z, axis=1, norm="ortho")
        z *= self._scale[::-1]
        # closed-form inverse of the rotation factor (1/2) [[I, I], [-I, I]],
        # in place to keep the (2, n, m) temporaries few
        top = z[0] - z[1]
        z[1] += z[0]
        z[0] = top
        out = z.reshape(-1)
        residue = np.max(np.abs(out.imag))
        if residue > IMAG_RESIDUE_BOUND * max(1.0, np.max(np.abs(out.real))):
            raise FloatingPointError(
                f"imaginary residue {residue:.3e} exceeds the round-off bound; "
                "inner solves lost the conjugate-pair structure"
            )
        return np.ascontiguousarray(out.real)
