"""Tests for the two fast transforms: the closed-form spectrum of the
corner-damped difference matrix (:func:`pintopt.rbd.eps_spectrum`) and the
2D orthonormal sine transform (:func:`pintopt.shifted.dst2d`).

Every nontrivial expected value here is computed by an independent dense
oracle built inside the test (explicit DFT/DST matrices, dense eigensolves,
and ``scipy.fft.dstn``, which the package itself no longer uses), never by
the code under test.
"""

import numpy as np
import pytest
import scipy.fft

from pintopt import shifted
from pintopt.discretize import TimeSpaceGrid, build_stiffness, stencil
from pintopt.rbd import eps_spectrum
from pintopt.shifted import dst2d
from pintopt.validation import eps_circulant_matrix


def dense_fourier(n):
    """Oracle: the unitary DFT matrix F with entries theta^((i-1)(j-1))/sqrt(n)."""
    k = np.arange(n)
    theta = np.exp(2j * np.pi / n)
    return theta ** np.outer(k, k) / np.sqrt(n)


def dense_dst(m1):
    """Oracle: orthonormal DST-I matrix, S[j,k] = sqrt(2/(m1+1)) sin(jk pi/(m1+1))."""
    j = np.arange(1, m1 + 1)
    return np.sqrt(2.0 / (m1 + 1)) * np.sin(np.outer(j, j) * np.pi / (m1 + 1))


# ---------------------------------------------------------------------------
# eps_circulant_matrix (eps = 0 is the plain backward difference B)


@pytest.mark.parametrize(
    "n,want",
    [(1, [[1.0]]), (3, [[1, 0, 0], [-1, 1, 0], [0, -1, 1]])],
    ids=["n1", "n3"],
)
def test_time_difference(n, want):
    assert np.array_equal(eps_circulant_matrix(n, 0.0), want)


def test_corner_matrix_n2_full_eps():
    assert np.array_equal(eps_circulant_matrix(2, 1.0), [[1, -1], [-1, 1]])


def test_corner_matrix_n3():
    expected = [[1, 0, -0.5], [-1, 1, 0], [0, -1, 1]]
    assert np.array_equal(eps_circulant_matrix(3, 0.5), expected)


def test_corner_matrix_telescopes():
    # the row sums are 1 - eps in the first row and 0 below it
    for eps in (0.0, 0.5, 1.0):
        want = np.zeros(6)
        want[0] = 1.0 - eps
        assert np.array_equal(eps_circulant_matrix(6, eps) @ np.ones(6), want)


def test_corner_matrix_eigenvalues_n2():
    # eigenvalues of [[1,-1],[-1,1]] are {0, 2}; the closed form gives the same
    eigs = np.sort(np.linalg.eigvals(eps_circulant_matrix(2, 1.0)).real)
    assert np.allclose(eigs, [0.0, 2.0], atol=1e-14)


def test_corner_matrix_rejects_bad_eps():
    for eps in (-0.5, 1.5):
        with pytest.raises(ValueError):
            eps_circulant_matrix(3, eps)
    with pytest.raises(ValueError):
        eps_circulant_matrix(-1, 0.5)
    with pytest.raises(ValueError):
        eps_spectrum(3, 0.0)


# ---------------------------------------------------------------------------
# eps_spectrum


def test_spectrum_n1():
    spec = eps_spectrum(1, 0.5)
    assert np.allclose(spec.lambdas, [0.5])
    assert np.allclose(spec.scalings, [1.0])
    # the 1x1 matrix is its own eigenvalue
    assert np.array_equal(eps_circulant_matrix(1, 0.5), [[0.5]])


def test_spectrum_scalings_quarter():
    spec = eps_spectrum(2, 0.25)
    assert np.allclose(spec.scalings, [1.0, 0.5])


def test_spectrum_matches_dense_eigenvalues():
    # oracle: dense eigendecomposition of the corner matrix, matched by
    # nearest neighbor (sorting complex values is ulp-fragile)
    spec = eps_spectrum(4, 0.5)
    dense = list(np.linalg.eigvals(eps_circulant_matrix(4, 0.5)))
    for lam in spec.lambdas:
        j = int(np.argmin([abs(lam - d) for d in dense]))
        assert abs(lam - dense.pop(j)) < 1e-13
    assert not dense


def test_spectrum_conjugate_pairing():
    for n in (2, 3, 4, 8):
        lam = eps_spectrum(n, 0.37).lambdas
        for k in range(1, n):
            assert abs(lam[n - k] - np.conj(lam[k])) < 1e-14


def test_spectrum_real_part_floor():
    for n in (1, 2, 4, 8):
        for eps in (1.0, 0.5, 0.01):
            lam = eps_spectrum(n, eps).lambdas
            assert np.min(lam.real) >= 1.0 - eps ** (1.0 / n) - 1e-15


def test_spectrum_reconstructs_corner_matrix():
    # D^-1 F Lam F* D must rebuild the corner matrix exactly
    for n in (1, 2, 3, 4, 8):
        for eps in (1.0, 0.5, 0.01):
            spec = eps_spectrum(n, eps)
            F = dense_fourier(n)
            D = np.diag(spec.scalings)
            rebuilt = np.linalg.inv(D) @ F @ np.diag(spec.lambdas) @ F.conj().T @ D
            assert np.max(np.abs(rebuilt - eps_circulant_matrix(n, eps))) < 1e-13


# ---------------------------------------------------------------------------
# dst2d


def test_dst2d_involution():
    rng = np.random.default_rng(5)
    v = rng.standard_normal((7, 7))
    assert np.max(np.abs(dst2d(dst2d(v)) - v)) < 1e-13


def test_dst2d_matches_dense_kron():
    rng = np.random.default_rng(13)
    m1 = 5
    v = rng.standard_normal((m1, m1))
    S = dense_dst(m1)
    want = np.kron(S, S) @ v.ravel()
    assert np.max(np.abs(dst2d(v).ravel() - want)) < 1e-13


def test_dst2d_m1_equals_1():
    assert np.allclose(dst2d(np.array([[3.0]])), [[3.0]])


def test_dst2d_complex_input():
    rng = np.random.default_rng(17)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    S = dense_dst(3)
    want = np.kron(S, S) @ v.ravel()
    assert np.max(np.abs(dst2d(v).ravel() - want)) < 1e-13


def test_dst2d_transforms_each_grid_of_a_batch(monkeypatch):
    # blocks of 8 complex 5x5 grids: the 18 grids run as 8, 8 and a partial 2
    monkeypatch.setattr(shifted, "BLOCK_BYTES", 8 * 5 * 5 * 16)
    rng = np.random.default_rng(19)
    v = rng.standard_normal((2, 9, 5, 5)) + 1j * rng.standard_normal((2, 9, 5, 5))
    got = dst2d(v)
    for index in np.ndindex(2, 9):
        assert np.array_equal(got[index], dst2d(v[index]))


@pytest.mark.parametrize("dtype", [float, complex])
def test_dst2d_in_place_matches_a_fresh_output(dtype):
    # 15 real 63x63 grids run in blocks of 8 and 7 (complex: 4, 4, 4, 3)
    rng = np.random.default_rng(23)
    v = rng.standard_normal((3, 5, 63, 63)).astype(dtype)
    if dtype is complex:
        v += 1j * rng.standard_normal(v.shape)
    want = dst2d(v)
    assert dst2d(v, out=v) is v
    assert np.array_equal(v, want)


@pytest.mark.parametrize("m1", [63, 127])
def test_dst2d_matches_scipy_dstn(m1):
    # oracle: pocketfft's orthonormal DST-I over the two grid axes
    rng = np.random.default_rng(29)
    v = rng.standard_normal((5, m1, m1))
    want = scipy.fft.dstn(v, type=1, norm="ortho", axes=(-2, -1))
    assert np.max(np.abs(dst2d(v) - want)) < 1e-14 * np.max(np.abs(v))


def test_dst2d_rejects_non_square():
    # a flat vector is not a grid: the transform needs two trailing axes
    with pytest.raises(ValueError):
        dst2d(np.zeros(8))
    with pytest.raises(ValueError):
        dst2d(np.zeros((3, 4)))
    # out must be C-contiguous, of v's shape and of the result's dtype
    v = np.zeros((2, 4, 4))
    for out in (np.zeros((2, 4, 5)), np.zeros((4, 4, 2)).T, np.zeros((2, 4, 4), complex)):
        with pytest.raises(ValueError):
            dst2d(v, out=out)


def test_dst_diagonalizes_constant_coefficient_stiffness():
    # oracle: congruence S^T K S computed densely must be the diagonal of
    # (4 - 2cos(i pi h) - 2cos(j pi h)) / h^2 entries
    h = 0.25
    m1 = 3
    grid = TimeSpaceGrid.from_h(h, n=4, horizon=1.0)
    K = build_stiffness(stencil(grid, lambda x1, x2: np.ones_like(x1))).toarray()
    S2 = np.kron(dense_dst(m1), dense_dst(m1))
    congr = S2.T @ K @ S2
    i = np.arange(1, m1 + 1)
    lam1d = 2.0 - 2.0 * np.cos(i * np.pi * h)
    want = np.add.outer(lam1d, lam1d).ravel() / h**2
    assert np.max(np.abs(congr - np.diag(want))) < 1e-10


def test_dst_eigenvalue_formula_matches_dense_stiffness():
    for m1 in (1, 3, 7):
        h = 1.0 / (m1 + 1)
        grid = TimeSpaceGrid.from_h(h, n=2, horizon=1.0)
        K = build_stiffness(stencil(grid, lambda x1, x2: np.ones_like(x1))).toarray()
        dense_eigs = np.sort(np.linalg.eigvalsh(K))
        i = np.arange(1, m1 + 1)
        lam1d = 2.0 - 2.0 * np.cos(i * np.pi * h)
        formula = np.sort(np.add.outer(lam1d, lam1d).ravel() / h**2)
        assert np.max(np.abs(dense_eigs - formula)) < 1e-9 * formula[-1]
