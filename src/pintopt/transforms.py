"""Fast transforms used by the time-parallel preconditioner.

Two ingredients live here:

* the spectrum and scaling diagonal of the "corner-modified" lower-bidiagonal
  time-difference matrix (a circulant whose wrap-around entry is damped by a
  factor ``eps``; its dense copy is
  :func:`pintopt.validation.eps_circulant_matrix`);
* the orthonormal 2D sine transform that diagonalizes the constant-coefficient
  five-point stiffness matrix on the unit square.

The FFT in time is applied by :mod:`pintopt.rbd`, with the convention the
spectrum here assumes: the unitary Fourier matrix is
``F[i, j] = theta**(i*j) / sqrt(n)`` with ``theta = exp(2j*pi/n)``, so
``numpy``'s forward FFT with ``norm='ortho'`` applies ``F*`` and the ortho
IFFT applies ``F``. For real input, ``numpy.fft.rfft`` with ``norm='ortho'``
gives the first ``n // 2 + 1`` rows of ``F*`` applied to it, and
``irfft(..., n=n, norm='ortho')`` applies ``F`` to the conjugate-symmetric
extension of such a half spectrum, keeping the real part.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft


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


def dst2d(v, overwrite_x=False):
    """Orthonormal 2D sine transform over the last two axes of ``v``.

    Applies S along each of the two axes, where S is the DST-I matrix with
    entries sqrt(2/(m1+1)) * sin(j*k*pi/(m1+1)); leading axes are a batch.
    S is involutory, so the transform is its own inverse. Complex input has
    its real and imaginary parts transformed separately. With
    ``overwrite_x`` the transform may run in the memory of ``v``, which is
    then destroyed.
    """
    return scipy.fft.dstn(v, type=1, norm="ortho", axes=(-2, -1), overwrite_x=overwrite_x)
