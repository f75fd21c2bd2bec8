"""Dense spectral validation of the preconditioner's supporting claims.

Everything the fast solver relies on is restated here as an executable check
on explicitly assembled matrices: block factorizations, the spectrum of the
ideally preconditioned system, the low-rank structure and eigenvalue
clustering induced by the corner damping, the Sherman-Morrison-Woodbury
form of the damped-coupling inverse, operator-norm and field-of-values
bounds, and the certified GMRES contraction including the residual relation
between the preconditioned system and its symmetrized auxiliary form.

All checks run on small dense configurations (a few dozen unknowns); each
returns a :class:`CheckResult` carrying the measured quantity, the bound it
must respect and a pass flag, so the same functions back both the test
suite and the ``validate`` CLI command.
"""

from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.linalg

from .discretize import TimeSpaceGrid, build_stiffness, stencil
from .gmres import gmres_solve
from .rbd import contraction_factor, rate_constant

RANK_REL_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float
    detail: str = ""

    def __str__(self):
        flag = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{flag}] {self.name}: {self.worst:.3e} vs {self.bound:.3e}{extra}"


def eps_circulant_matrix(n, eps):
    """Dense corner-damped backward-difference matrix, 0 <= eps <= 1.

    Ones on the diagonal, -1 on the first subdiagonal, and an extra ``-eps``
    added at position (1, n). eps = 0 gives the plain backward difference B;
    for n = 1 the corner lands on the diagonal, giving [1 - eps].
    """
    if n < 1:
        raise ValueError(f"matrix size must be at least 1, got {n}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"damping factor must lie in [0, 1], got {eps}")
    C = np.eye(n)
    idx = np.arange(1, n)
    C[idx, idx - 1] = -1.0
    C[0, n - 1] -= eps
    return C


def symmetric_root(mat):
    """Symmetric positive square root (and its inverse) of an SPD matrix."""
    w, q = np.linalg.eigh(np.asarray(mat, dtype=float))
    if np.min(w) <= 0:
        raise ValueError("matrix is not positive definite")
    return (q * np.sqrt(w)) @ q.T, (q / np.sqrt(w)) @ q.T


class DenseBundle:
    """Explicit matrices of one small configuration, in both metrics.

    The *whitened* variants absorb the mass matrix symmetrically
    (X -> M^-1/2 X M^-1/2 blockwise), which turns the alpha-shift into a
    plain multiple of the identity; the plain variants are the ones the
    fast solver touches. ``step_matrix`` is the whitened single-step
    backward-Euler matrix whose powers drive the corner-damping
    perturbation, and ``capacitance`` is the small SMW pivot block.
    ``damped_inverse_ideal`` and ``damped_inverse_saddle`` are the whitened
    damped blocks solved against the ideal blocks and against the unrotated
    saddle, the two products most checks inspect. ``coupling_ratio`` solves the
    shifted damped coupling against ``evolution_shifted`` (``_t``: transposed).
    """

    def __init__(self, n, tau, gamma, eps, mass, stiffness):
        mass, stiffness = (
            np.asarray(a.toarray() if hasattr(a, "toarray") else a, float)
            for a in (mass, stiffness)
        )
        m = mass.shape[0]
        alpha = tau / np.sqrt(gamma)
        self.n, self.m, self.tau, self.alpha, self.eps = n, m, tau, alpha, eps
        self.mass = mass
        eye_n, eye_m, eye_mn = np.eye(n), np.eye(m), np.eye(m * n)

        self.mass_root, self.mass_root_inv = symmetric_root(mass)
        stiff_whitened = self.mass_root_inv @ stiffness @ self.mass_root_inv
        self.time_difference = eps_circulant_matrix(n, 0.0)
        self.corner_damped = eps_circulant_matrix(n, eps)

        def couple(time_part, space_mass, space_stiff):
            return np.kron(time_part, space_mass) + tau * np.kron(eye_n, space_stiff)

        self.evolution = couple(self.time_difference, mass, stiffness)
        self.evolution_whitened = couple(self.time_difference, eye_m, stiff_whitened)
        self.coupling_damped = couple(self.corner_damped, mass, stiffness)
        self.coupling_damped_whitened = couple(self.corner_damped, eye_m, stiff_whitened)

        def unrotated(evo, shift):
            return np.block([[evo.T + shift, evo.T - shift], [-evo + shift, evo + shift]])

        def blocks(evo, shift):
            return scipy.linalg.block_diag(evo.T + shift, evo + shift)

        shift = alpha * np.kron(eye_n, mass)
        shift_whitened = alpha * eye_mn
        self.saddle = np.block([[shift, self.evolution.T], [-self.evolution, shift]])
        self.saddle_unrotated = unrotated(self.evolution, shift)
        self.saddle_unrotated_whitened = unrotated(self.evolution_whitened, shift_whitened)
        self.rotation = 0.5 * np.block([[eye_mn, eye_mn], [-eye_mn, eye_mn]])
        self.block_diag_damped = blocks(self.coupling_damped, shift)
        self.block_diag_damped_whitened = blocks(
            self.coupling_damped_whitened, shift_whitened
        )
        self.block_diag_ideal_whitened = blocks(self.evolution_whitened, shift_whitened)
        self.preconditioner = self.block_diag_damped @ self.rotation

        self.step_matrix = (1.0 + alpha) * eye_m + tau * stiff_whitened
        self.step_inv = np.linalg.inv(self.step_matrix)
        step_inv_n = np.linalg.matrix_power(self.step_inv, n)
        self.capacitance = (eye_m - eps * step_inv_n) / eps

        self.damped_inverse_ideal = np.linalg.solve(
            self.block_diag_damped_whitened, self.block_diag_ideal_whitened
        )
        self.damped_inverse_saddle = np.linalg.solve(
            self.block_diag_damped_whitened, self.saddle_unrotated_whitened
        )
        self.damped_inverse_ideal_eigs = np.linalg.eigvals(self.damped_inverse_ideal)
        saddle = self.damped_inverse_saddle
        self.damped_inverse_saddle_norm = np.linalg.norm(saddle, 2)
        self.damped_inverse_saddle_sym_min = np.linalg.eigvalsh(0.5 * (saddle + saddle.T))[0]
        self.evolution_shifted = self.evolution_whitened + alpha * eye_mn
        damped = self.coupling_damped_whitened + alpha * eye_mn
        self.coupling_ratio = np.linalg.solve(damped, self.evolution_shifted)
        self.coupling_ratio_t = np.linalg.solve(damped.T, self.evolution_shifted.T)


def _rel(diff, ref):
    return np.max(np.abs(diff)) / max(1.0, np.max(np.abs(ref)))


def _result(name, worst, bound, detail=""):
    return CheckResult(
        name=name, passed=bool(worst <= bound), worst=float(worst),
        bound=float(bound), detail=detail,
    )


def _eta_cap(bundle, eta):
    """The cap eta (default: eps itself), checked against 0 < eps <= eta < 1."""
    eta = bundle.eps if eta is None else eta
    if not 0 < eta < 1 or bundle.eps > eta:
        raise ValueError(f"need eps <= eta < 1, got eps={bundle.eps}, eta={eta}")
    return eta


def _require_rate_premise(bundle, delta):
    """Reject eps above rate_constant(delta, tau, n tau), the certified level."""
    cap = rate_constant(delta, bundle.tau, bundle.n * bundle.tau)
    if bundle.eps > cap * (1 + 1e-12):
        raise ValueError(
            f"premise violated: eps={bundle.eps} exceeds rate constant {cap}"
        )


def check_factorizations(bundle, tol=1e-12):
    """The assembled pieces multiply together as the identities require.

    saddle = unrotated @ rotation (the preconditioner is built as such a product),
    and each plain matrix is the symmetrically mass-weighted whitened one.
    """
    b = bundle
    half_root = np.kron(np.eye(b.n), b.mass_root)
    full_root = scipy.linalg.block_diag(half_root, half_root)
    worst = max(
        _rel(b.saddle - b.saddle_unrotated @ b.rotation, b.saddle),
        _rel(b.evolution - half_root @ b.evolution_whitened @ half_root, b.evolution),
        _rel(
            b.coupling_damped - half_root @ b.coupling_damped_whitened @ half_root,
            b.coupling_damped,
        ),
        _rel(
            b.saddle_unrotated - full_root @ b.saddle_unrotated_whitened @ full_root,
            b.saddle_unrotated,
        ),
        _rel(
            b.block_diag_damped - full_root @ b.block_diag_damped_whitened @ full_root,
            b.block_diag_damped,
        ),
    )
    return _result("factorization identities", worst, tol)


def check_rbd_spectrum(bundle, tol=1e-10):
    """Ideal (undamped) preconditioning: normal matrix, spectrum on 1 + i[-1, 1].

    Also verifies that the time-stepping Cayley transform
    (evolution + alpha I)^-1 (-evolution + alpha I) is a strict contraction,
    which is what pins the imaginary extent to [-1, 1].
    """
    b = bundle
    ideal = np.linalg.solve(b.block_diag_ideal_whitened, b.saddle_unrotated_whitened)
    commutator = ideal @ ideal.T - ideal.T @ ideal
    scale = np.linalg.norm(ideal, 2) ** 2
    normality = np.linalg.norm(commutator, 2) / scale
    eigs = np.linalg.eigvals(ideal)
    real_dev = np.max(np.abs(eigs.real - 1.0))
    imag_excess = max(0.0, np.max(np.abs(eigs.imag)) - 1.0)
    eye = np.eye(b.m * b.n)
    cayley = np.linalg.solve(b.evolution_shifted, b.alpha * eye - b.evolution_whitened)
    cayley_excess = max(0.0, np.linalg.norm(cayley, 2) - 1.0)
    worst = max(normality, real_dev, imag_excess, cayley_excess)
    return _result(
        "ideal preconditioned spectrum on 1 + i[-1, 1]",
        worst,
        tol,
        f"max |Im| = {np.max(np.abs(eigs.imag)):.3f}",
    )


def check_eps_perturbation(bundle, match_tol=1e-8):
    """Eigenstructure of (damped blocks)^-1 (ideal blocks).

    The exact spectrum is {1} with multiplicity 2(n-1)m together with the m
    eigenvalues of I + step^-n capacitance^-1, each seen twice, and the
    perturbation away from the identity has rank exactly 2m. The eigenvalue
    multiset is matched against that closed-form prediction (the match
    subsumes both multiplicity claims); the exact unit count is asserted
    separately whenever every predicted deviation clears the match
    tolerance. The tolerance carries a conditioning allowance for the
    non-normal ratio: worst observed mismatch over the sweep is 1.4e-9.
    """
    b = bundle
    n, m, eps = b.n, b.m, b.eps

    step_eigs = np.linalg.eigvalsh(b.step_matrix)
    decay = eps * step_eigs ** (-float(n))
    drift = decay / (1.0 - decay)
    predicted = np.concatenate(
        [np.ones(2 * (n - 1) * m), np.repeat(1.0 + drift, 2)]
    )
    eigs = b.damped_inverse_ideal_eigs
    imag_leak = np.max(np.abs(eigs.imag))
    mismatch = np.max(np.abs(np.sort(eigs.real) - np.sort(predicted)))

    svals = np.linalg.svd(b.damped_inverse_ideal - np.eye(2 * m * n), compute_uv=False)
    rank = int(np.sum(svals > RANK_REL_TOL * max(svals[0], 1.0)))
    unit_count = int(np.sum(np.abs(eigs - 1.0) <= match_tol))
    want_units = 2 * (n - 1) * m
    if np.min(np.abs(drift)) > 10 * match_tol:
        count_ok = unit_count == want_units
        detail = f"rank {rank}, unit eigenvalues {unit_count} (want exactly {want_units})"
    else:
        count_ok = unit_count >= want_units
        detail = f"rank {rank}, unit eigenvalues {unit_count} >= {want_units}"
    worst = max(mismatch, imag_leak) if (rank == 2 * m and count_ok) else np.inf
    return _result("corner-damping eigenvalue structure", worst, match_tol, detail)


def check_eps_clustering(bundle, eta=None, tol=1e-13):
    """max |lambda - 1| of (damped blocks)^-1 (ideal blocks) <= eps/(1 - eta).

    Valid for any cap eta in (0, 1) with eps <= eta; by default the tight
    choice eta = eps is used. ``tol`` absorbs eigensolver roundoff in the
    pass decision; the reported bound stays exact.
    """
    b = bundle
    eta = _eta_cap(b, eta)
    worst = float(np.max(np.abs(b.damped_inverse_ideal_eigs - 1.0)))
    bound = b.eps / (1.0 - eta)
    return CheckResult(
        name="eigenvalue clustering around 1",
        passed=bool(worst <= bound + tol),
        worst=worst,
        bound=bound,
        detail=f"eta = {eta:.3g}",
    )


def check_smw_identity(bundle, tol=1e-11):
    """SMW form of the damped-coupling inverse and its one-block-column shape.

    (damped + alpha I)^-1 (evolution + alpha I) = I + R with R concentrated
    in the last block column, stacking step^-k capacitance^-1 for k = 1..n;
    the transposed variant concentrates in the first block column with the
    reversed stack. As eps -> 0 the correction scales away like eps.
    """
    b = bundle
    n, m = b.n, b.m
    eye = np.eye(m * n)
    ideal = b.evolution_shifted
    cap_inv = np.linalg.inv(b.capacitance)
    step_inv_powers = [np.eye(m)]  # step^-k at index k
    for _ in range(n):
        step_inv_powers.append(step_inv_powers[-1] @ b.step_inv)

    first_block, last_block = eye[:, :m], eye[:, -m:]
    got_plain = b.coupling_ratio
    want_plain = eye + np.linalg.solve(ideal, first_block) @ cap_inv @ last_block.T
    resmat_last_col = np.vstack([step_inv_powers[k] @ cap_inv for k in range(1, n + 1)])
    struct_plain = eye.copy()
    struct_plain[:, (n - 1) * m :] += resmat_last_col

    got_t = b.coupling_ratio_t
    want_t = eye + np.linalg.solve(ideal.T, last_block) @ cap_inv @ first_block.T
    resmat_first_col = np.vstack([step_inv_powers[n - k] @ cap_inv for k in range(n)])
    struct_t = eye.copy()
    struct_t[:, :m] += resmat_first_col

    worst = max(
        _rel(got_plain - want_plain, got_plain),
        _rel(got_plain - struct_plain, got_plain),
        _rel(got_t - want_t, got_t),
        _rel(got_t - struct_t, got_t),
    )
    return _result("low-rank update identity", worst, tol)


def check_vanishing_damping(n, tau, gamma, mass, stiffness, eps=1e-12, tol=1e-9):
    """As eps -> 0 the damped coupling solve converges to the ideal one."""
    b = DenseBundle(n, tau, gamma, eps, mass, stiffness)
    eye = np.eye(b.m * n)
    return _result("damping -> 0 recovers ideal blocks", _rel(b.coupling_ratio - eye, eye), tol)


def check_norm_bounds(bundle, eta=None, tol=1e-12):
    """Operator-norm chain controlling the damped preconditioner.

    With kappa := eps sqrt(n) / (1 - eta): the one-sided coupling ratios and
    the block ratio deviate from the identity by at most kappa; the
    preconditioned operator norm stays below sqrt(2)(1 + kappa); and the
    symmetric part of (preconditioned - identity) stays below 2 kappa.
    """
    b = bundle
    eta = _eta_cap(b, eta)
    kappa = b.eps * np.sqrt(b.n) / (1.0 - eta)
    eye_half = np.eye(b.m * b.n)
    eye_full = np.eye(2 * b.m * b.n)
    precond = b.damped_inverse_saddle
    sym_dev = 0.5 * ((precond - eye_full) + (precond - eye_full).T)

    checks = [
        (np.linalg.norm(b.coupling_ratio - eye_half, 2), kappa),
        (np.linalg.norm(b.coupling_ratio_t - eye_half, 2), kappa),
        (np.linalg.norm(b.damped_inverse_ideal - eye_full, 2), kappa),
        (b.damped_inverse_saddle_norm, np.sqrt(2.0) * (1.0 + kappa)),
        (np.linalg.norm(sym_dev, 2), 2.0 * kappa),
    ]
    margin = max(got - bound for got, bound in checks)
    return _result(
        "operator norm bounds", margin, tol,
        f"eta = {eta:.3g}, eps sqrt(n)/(1-eta) = {kappa:.3g}",
    )


def check_definiteness(bundle, delta, tol=1e-12):
    """Field-of-values premises at damping level delta.

    Requires eps <= rate_constant(delta, tau, n tau). Then the symmetric
    part of the preconditioned operator stays above (1 - delta) I and its
    norm below sqrt(2)(1 + delta/2) — the premises of the certified rate.
    """
    _require_rate_premise(bundle, delta)
    lam_min = bundle.damped_inverse_saddle_sym_min
    norm_excess = bundle.damped_inverse_saddle_norm - np.sqrt(2.0) * (1.0 + delta / 2.0)
    margin = max((1.0 - delta) - lam_min, norm_excess)
    return _result(
        "field-of-values premises", margin, tol,
        f"lambda_min(sym) = {lam_min:.4f} >= {1 - delta:.4f}",
    )


def check_gmres_rate(bundle, delta, tol=1e-10):
    """Certified contraction of GMRES on the auxiliary and original systems.

    Runs dense GMRES on the auxiliary system (damped blocks)^-1 (unrotated
    whitened saddle) and on the preconditioned original system, and checks,
    for every iteration k:

    * auxiliary residuals <= rho(delta)^k (certified factor), and also the
      sharper computed field-of-values factor;
    * original preconditioned residuals <= sqrt(kappa2(mass)) rho(delta)^k;
    * the cross-system relation ||r_k|| <= sqrt(2) ||W^-1/2|| ||r~_k||.
    """
    b = bundle
    _require_rate_premise(b, delta)
    size = 2 * b.m * b.n
    rng = np.random.default_rng(size)
    rhs = rng.standard_normal(size)

    half_root_inv = np.kron(np.eye(b.n), b.mass_root_inv)
    w_root_inv = scipy.linalg.block_diag(half_root_inv, half_root_inv)
    aux_matrix = b.damped_inverse_saddle
    aux_rhs = np.linalg.solve(b.block_diag_damped_whitened, w_root_inv @ rhs)
    aux = gmres_solve(partial(np.matmul, aux_matrix), aux_rhs, tol=1e-13, maxit=size)

    lu, piv = scipy.linalg.lu_factor(b.preconditioner)
    orig = gmres_solve(
        partial(np.matmul, b.saddle),
        rhs,
        apply_prec=lambda v, out: np.copyto(out, scipy.linalg.lu_solve((lu, piv), v)),
        tol=1e-13,
        maxit=size,
    )

    rho = contraction_factor(delta)
    ratio = b.damped_inverse_saddle_sym_min / b.damped_inverse_saddle_norm
    sharp = np.sqrt(max(0.0, 1.0 - ratio**2))

    # additive margins: once residuals stall at the machine floor, a
    # multiplicative comparison against rho^k would fail vacuously
    aux_rel = np.asarray(aux.residuals) / aux.residuals[0]
    orig_rel = np.asarray(orig.residuals) / orig.residuals[0]
    ks_aux = np.arange(aux_rel.size)
    kappa_mass = np.linalg.cond(b.mass, 2)

    margin = max(
        np.max(aux_rel - rho**ks_aux),
        np.max(aux_rel - np.maximum(sharp, 1e-300) ** ks_aux),
        np.max(orig_rel - np.sqrt(kappa_mass) * rho ** np.arange(orig_rel.size)),
    )
    shared = min(aux_rel.size, orig_rel.size)
    cross = np.sqrt(2.0) * np.linalg.norm(w_root_inv, 2)
    relation = (
        np.max(
            np.asarray(orig.residuals[1:shared])
            - cross * np.asarray(aux.residuals[1:shared])
        )
        / orig.residuals[0]
        if shared > 1
        else 0.0
    )
    worst = max(margin, relation)
    return _result(
        "certified GMRES contraction", worst, tol,
        f"rho = {rho:.4f}, sharp factor = {sharp:.4f}, "
        f"aux iters = {aux.iterations}, orig iters = {orig.iterations}",
    )


# ------------------------------------------------------------ full sweep


def synthetic_masses(m):
    """Identity plus two tridiagonal SPD mass fixtures with kappa_2 <= 10."""
    fixtures = [("identity", np.eye(m))]
    if m >= 2:
        off = np.full(m - 1, 0.3)
        fixtures.append(
            ("tridiagonal", np.diag(np.ones(m)) + np.diag(off, 1) + np.diag(off, -1))
        )
        graded = np.diag(np.linspace(0.5, 2.0, m)) + np.diag(
            np.full(m - 1, 0.1), 1
        ) + np.diag(np.full(m - 1, 0.1), -1)
        fixtures.append(("graded", graded))
    for name, M in fixtures[1:]:
        if np.linalg.cond(M, 2) > 10:
            raise AssertionError(f"fixture {name} too ill-conditioned")
    return fixtures


def laplacian_1d(m):
    return (
        np.diag(np.full(m, 2.0))
        + np.diag(np.full(m - 1, -1.0), 1)
        + np.diag(np.full(m - 1, -1.0), -1)
    ) * (m + 1) ** 2


def run_validation(delta=0.5):
    """Full theorem sweep over small grids, weights and damping levels.

    Returns (results, all_passed). Configurations cover square grids with
    1 and 9 interior points, 2/4/8 time steps, regularization weights from
    1e-8 to 1, and non-identity mass fixtures. Each grid runs at two damping
    levels: the solver's certified eps of :func:`rate_constant` at
    ``delta`` (tag "rate", with the certified-rate checks) and the smaller
    min(1/2, tau/2) (tag "step").
    """
    # (tag, DenseBundle arguments, clustering caps, certified-rate checks?)
    configs = []
    for m1 in (1, 3):
        for n in (2, 4, 8):
            grid = TimeSpaceGrid(m1=m1, n=n)
            unit = stencil(grid, lambda x1, x2: np.ones_like(np.asarray(x1, float)))
            stiff_fd = build_stiffness(unit).toarray()
            certified = rate_constant(delta, grid.tau, grid.horizon)
            levels = (("step", min(0.5, grid.tau / 2.0)), ("rate", certified))
            for gamma in (1e-8, 1e-4, 1.0):
                for level, eps in levels:
                    configs.append((
                        f"m1={m1} n={n} gamma={gamma:g} eps[{level}]={eps:.3g}",
                        (n, grid.tau, gamma, eps, np.eye(grid.m), stiff_fd),
                        (None, 0.5),
                        level == "rate",
                    ))

    # non-identity mass fixtures on the largest small grid
    m, n, tau = 9, 4, 0.25
    eps = rate_constant(delta, tau, n * tau)
    for mass_name, mass in synthetic_masses(m)[1:]:
        for gamma in (1e-4, 1.0):
            configs.append((
                f"mass={mass_name} n={n} gamma={gamma:g}",
                (n, tau, gamma, eps, mass, laplacian_1d(m)),
                (None,),
                True,
            ))

    results = []
    for tag, args, etas, certified in configs:
        bundle = DenseBundle(*args)
        batch = [
            check_factorizations(bundle),
            check_rbd_spectrum(bundle),
            check_eps_perturbation(bundle),
            *(check_eps_clustering(bundle, eta) for eta in etas),
            check_smw_identity(bundle),
            check_norm_bounds(bundle),
        ]
        if certified:
            batch += [check_definiteness(bundle, delta), check_gmres_rate(bundle, delta)]
        results += [replace(res, name=f"{res.name} [{tag}]") for res in batch]

    results.append(
        check_vanishing_damping(4, 0.25, 1e-2, np.eye(9), laplacian_1d(9))
    )
    return results, all(res.passed for res in results)
