"""Structured canonical forms and constructive two-torsion witnesses.

Three witness theorems drive the extraction machinery:

* quaternion class: every Hermitian anti-self-dual S with ||S^2 - I|| < 1
  is conjugated by a symplectic unitary to within ||S^2 - I|| of
  diag(I, -I) (the class group is trivial);
* real class: a Hermitian antisymmetric S of size 4n admits a real
  special-orthogonal witness against the fixed representative S0 exactly
  when Pf(S) > 0 (two-torsion);
* twisted class: same dichotomy for Hermitian S with S## = -S, decided by
  Pf after the fixed unitary conjugation and pulled back through it.

Each hypothesis is checked once: Hermitian by the one gate
:func:`acbott.matkernel.hermitian_part`, which passes an exactly Hermitian
S (any ``bott_matrix`` output) with no norm or copy, then the class's own
(anti-)symmetry; the twisted witness checks S## = -S and not Phi(S).

The real and twisted witnesses come from the real orthogonal canonical
form of a real skew matrix, computed from one Householder reduction to
skew tridiagonal form followed by one SVD of a half-size bidiagonal
(Ward & Gray, ACM TOMS 4(3), 1978) rather than a general real Schur form.

Each witness measures its achieved bound ||A - W T W*|| in its own
picture.  The real and twisted witnesses take it in the real picture that
Phi already gives them (Hastings & Loring, arXiv:1012.1019): for a
Hermitian antisymmetric A = iX and the real special-orthogonal U against
S0 = iJ, it is ||X - U J U^T||, one real product and the norm of a real
skew matrix; Phi is unitary, so for the twisted witness this is
||A - W diag(I, -I) W*|| itself.  The quaternion witness W = [F, T F]
takes W diag(I, -I) W* = G - T G T* from the half-width G = F F*.

The quaternion witness takes its eigendecomposition from LAPACK's MRRR
driver (:func:`acbott.matkernel._mrrr_eigh`): the spectrum of the doubled
matrix of an extraction pairs lambda with -lambda and is generically
simple, where MRRR costs about 40% less than divide and conquer at order
512.  Every other eigendecomposition here, :func:`diag_anti_selfdual`'s
included, keeps divide and conquer.

The commuting-pair extraction follows the constructive core: conjugate the
doubled matrix to diag(I, -I), read off the witness blocks A and B, and
form U = polar(A)* polar(B), which commutes with H3 and reconstructs
H1 + i H2 against sqrt(1 - H3^2) up to the input residual.  The blocks are
rows of a unitary, so A A* + B B* = I and U = polar(A* B): one SVD, whose
smallest singular value also gates the retries (:func:`polar_product_check`
measures the identity).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (
    BadDimension,
    HypothesisFailed,
    NormConditionFailed,
    NoConvergence,
    NontrivialClass,
    NotRealSkew,
    PairingFailure,
    RankDeficient,
    WrongSymmetry,
)
from .invariants import bott_matrix
from .matkernel import (
    _check_integer, _check_real_skew, _hermitian_solve, _mrrr_eigh, _polar_svd, _skew_part,
    _skew_schur, as_square, as_squares, hermitian_part, max_norm, norm_exceeds, operator_norm,
    polar, real_if_exact,
)
from .relations import _sphere_terms
from .symmetry import (
    SymmetryClass,
    _im_phi,
    _paired,
    _paired_defect,
    dual,
    phi_inverse,
    require_tau_fixed,
    sharp_sharp,
    symmetrize,
    tau_residual,
)
from .wannier import _range_finder

SYMMETRY_TOL = 1e-8
KERNEL_TOL = 1e-10
RANK_TOL = 1e-10
BLOCK_SIGMA_MIN_TOL = 1e-8
MAX_RETRIES = 5


@dataclass(frozen=True)
class WitnessReport:
    """A structured unitary witness and its achieved conjugation bound.

    ``certified`` records whether the bound met the theorem's inequality
    bound <= ||S^2 - I|| + slack.
    """

    witness: np.ndarray
    bound: float
    certified: bool
    norm_condition: float
    details: dict = field(default_factory=dict)


def diag_anti_selfdual(X):
    """Symplectic diagonalization of a Hermitian anti-self-dual matrix:

        X = W diag(D, -D) W*,   D >= 0,   W symplectic unitary.

    The antiunitary partner map v -> -Z conj(v) carries the eigenspace of
    +lambda onto that of -lambda, so W = [V, TV] with V the eigenvectors of
    the upper half of the spectrum has the quaternion block form exactly;
    the kernel is paired by the range finder (:func:`_symplectic_basis`).
    An empty X is BadDimension.
    """
    A = _witness_input(X, "X")
    return _symplectic_basis(A, *np.linalg.eigh(A))


def _symplectic_basis(A, w, V, name: str = "X"):
    """:func:`diag_anti_selfdual` of a checked Hermitian A from its
    eigendecomposition (w ascending, V); ``name`` is the caller's name for
    A in the anti-self-duality error.

    D is the upper half of the spectrum by index, descending, down to
    KERNEL_TOL; the rest of it and its mirror (indices n - 1 - i) form the
    kernel block K.  Its Kramers basis F is the range finder's
    (:func:`acbott.wannier._range_finder`, seed 0) for K K*, certified
    closed under time reversal by the range finder's certificate:
    PairingFailure unless ||K K* - F F* - T F F* T*|| <= 1e-8 max(1, ||X||)."""
    n = A.shape[0]
    if norm_exceeds(dual(A) + A, SYMMETRY_TOL, scale_of=A):
        raise WrongSymmetry(f"{name} is not anti-self-dual")
    p = int(np.count_nonzero(w[n // 2:] > KERNEL_TOL))
    first_half, D = V[:, n - p:][:, ::-1], w[n - p:][::-1]
    if p < n // 2:
        K, m = V[:, p:n - p], n // 2 - p
        F, defect = _range_finder(K @ K.conj().T, m, np.random.default_rng(0), True)
        if norm_exceeds(defect, 1e-8 * max(1.0, np.abs(w).max())):
            raise PairingFailure("the kernel of X is not closed under time reversal")
        first_half = np.column_stack([first_half, F])
        D = np.concatenate([D, np.zeros(m)])
    return _paired(first_half), D


def _witness_report(W, bound: float, delta: float, **details) -> WitnessReport:
    """W with its achieved bound ||A - W T W*||, certified against the
    theorem's inequality bound <= ||S^2 - I|| = delta (plus 1e-8 slack).

    Each witness measures the bound in its own picture, with one product
    and one eigenvalue solve: :func:`_mirror_bound` (a half-width complex
    product) for the quaternion witness, :func:`_real_witness` (real
    throughout) for the real and twisted ones.
    """
    return WitnessReport(
        witness=W.astype(complex, copy=False),
        bound=float(bound),
        certified=bound <= delta + 1e-8,
        norm_condition=float(delta),
        details=details,
    )


def _witness_input(S, name: str = "S") -> np.ndarray:
    """The Hermitian part of a witness's S (or of the X of
    :func:`diag_anti_selfdual`), Hermitian to SYMMETRY_TOL (WrongSymmetry);
    an empty one is BadDimension."""
    A = as_square(S, name)
    if not A.size:
        raise BadDimension(f"{name} must be nonempty")
    return hermitian_part(A, SYMMETRY_TOL, WrongSymmetry, name)


def _condition_from_spectrum(lam) -> float:
    """||S^2 - I|| = max |lambda^2 - 1| over the eigenvalues lambda of a
    Hermitian S (or their moduli), checked against the witness theorems'
    hypothesis ||S^2 - I|| < 1."""
    lam = np.asarray(lam)
    delta = float(np.abs(lam * lam - 1.0).max(initial=0.0))
    if delta >= 1.0:
        raise NormConditionFailed(f"||S^2 - I|| = {delta:.4f} >= 1")
    return delta


def _mirror_bound(A, F) -> float:
    """||A - W diag(I, -I) W*|| for W = [F, T F] and Hermitian A, from
    W diag(I, -I) W* = G - T G T* with G = F F*, a product of half the
    width of W's (:func:`acbott.symmetry._paired_defect`).  The norm is
    that of the Hermitian part, taken in place: one eigenvalue solve."""
    E = _paired_defect(A, F, -1)
    E += E.conj().T
    E *= 0.5
    return operator_norm(E)


def k2_quaternion_witness(S) -> WitnessReport:
    """Symplectic witness conjugating S near diag(I, -I).

    Hypotheses: ||S^2 - I|| < 1, S Hermitian, anti-self-dual.  The achieved
    bound never exceeds ||S^2 - I||: all eigenvalues of |S| lie within the
    norm condition of 1.  The norm condition is read from the eigenvalues
    of the one eigendecomposition, an MRRR solve, before the
    anti-self-duality check.
    """
    A = _witness_input(S)
    w, V = _mrrr_eigh(A)
    delta = _condition_from_spectrum(w)
    W, D = _symplectic_basis(A, w, V, "S")
    del V  # free before the bound's n x n products
    return _witness_report(
        W, _mirror_bound(A, W[:, :A.shape[0] // 2]), delta,
        D_range=(float(D.min(initial=0.0)), float(D.max(initial=0.0))),
    )


def _canonical_form(Q, vals, sign):
    """Normalize :func:`_skew_schur` output (block values >= 0, sign det Q)
    as :func:`real_skew_canonical` describes; Q becomes U in place."""
    small = np.flatnonzero(vals < RANK_TOL)
    if small.size:
        i = int(small[0])
        raise RankDeficient(f"block {i} has |a| = {vals[i]:.3e} < {RANK_TOL:.1e}")
    if not sign:
        raise RankDeficient("the skew reduction has an exactly zero pivot")
    a = vals.copy()
    if sign < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
        a[0] = -a[0]
    return Q, a


def real_skew_canonical(R):
    """Real orthogonal canonical form of a real skew-symmetric matrix of
    size 4n: R = U D U^T with D built from 2x2 blocks [[0, a_i], [-a_i, 0]].

    Normalization: det(U) = +1 (columns flipped as needed), a_2..a_{2n} > 0,
    and a_1 carries the sign of the Pfaffian, so Pf(R) = prod a_i holds to
    rounding.  Raises RankDeficient when any |a_i| falls below RANK_TOL, or
    a pivot of the reduction is exactly zero (the canonical sign split is
    undefined there); an empty R is BadDimension, another size off the
    multiples of 4 NotRealSkew.

    One Householder reduction R = Q0 T Q0^T to skew tridiagonal T (dgehrd,
    Q0 formed by dorghr) and one SVD of the half-size bidiagonal that T
    becomes with even indices ordered first give U and the |a_i|; the
    orientation sign det Q is the Pfaffian sign of the same reduction, so
    no determinant is computed.
    """
    A = as_square(R, "R")
    n = A.shape[0]
    if not n:
        raise BadDimension("R must be nonempty")
    if n % 4:
        raise NotRealSkew(f"size {n} is not a multiple of 4")
    return _canonical_form(*_skew_schur(_check_real_skew(A)))


def _skew_map(size: int):  # S0 of skew_representative, column j from column j ^ 1
    phases = np.tile([-1j, 1j], size // 2)
    phases[:2] *= (-1) ** (size // 4)
    return np.arange(size) ^ 1, phases


def skew_representative(size: int) -> np.ndarray:
    """The fixed Hermitian antisymmetric unitary S0 of size 4n: 2x2 blocks
    [[0, i], [-i, 0]], with the first block carrying the sign (-1)^n so
    that Pf(S0) = 1.  The witnesses apply it as its column index map."""
    if _check_integer(size, "size") < 1:
        raise BadDimension(f"size {size} is not a positive multiple of 4")
    if size % 4:
        raise NotRealSkew(f"size {size} is not a multiple of 4")
    cols, phases = _skew_map(size)
    S0 = np.zeros((size, size), dtype=complex)
    S0[cols, np.arange(size)] = phases  # so that W S0 = W[:, cols] * phases
    return S0


def _real_witness(X):
    """(U, bound, ||A^2 - I||, Pf(A)) for a Hermitian antisymmetric A of
    size 4n given by X = Im A: U the special-orthogonal witness of the real
    canonical form, and its bound ||A - U S0 U^T|| in the real picture.
    Raises NormConditionFailed when ||A^2 - I|| >= 1, then NontrivialClass
    when Pf(A) < 0.

    One Householder reduction of the skew part of X and one SVD of a
    half-size bidiagonal (:func:`acbott.matkernel._skew_schur`) give U and
    the block values a_i.  X is real skew with eigenvalues +-i a_i, so those
    of A = iX are -+a_i, and ||A^2 - I|| is read from them.  The skew part of
    Im A is the imaginary part of the Hermitian part of A, bit for bit, so A
    need not be exactly Hermitian or antisymmetric: the twisted witness
    passes Im Phi(S), whose hypotheses it checks on S.  With S0 = iJ, J the
    real signed permutation -i S0 applied as the column map of S0, the
    bound is ||X - U J U^T||: one real product and the norm of the real
    skew part."""
    n = X.shape[0]
    schur = _skew_schur(_skew_part(X))
    delta = _condition_from_spectrum(schur[1])
    U, a = _canonical_form(*schur)
    # Pf(S) = (-1)^n Pf(X) on size 4n, and Pf(X) = prod a by det(U) = 1
    pf = (-1) ** (n // 4) * float(np.prod(a))
    if pf < 0:
        raise NontrivialClass(f"Pf(S) = {pf:.4g} < 0")
    cols, phases = _skew_map(n)
    E = (U[:, cols] * (-1j * phases).real) @ U.T
    np.subtract(X, E, out=E)
    E -= E.T  # the skew part: exactly antisymmetric
    E *= 0.5
    return U, operator_norm(E), delta, pf


def k2_real_witness(S) -> WitnessReport:
    """Real special-orthogonal witness conjugating S near the fixed
    representative S0, which exists exactly when Pf(S) > 0.

    Hypotheses: ||S^2 - I|| < 1, S Hermitian, antisymmetric, size 4n.
    Raises NontrivialClass when the Pfaffian is negative; that is the
    obstruction, not a failure.  The norm condition is read from the
    |a_i| of the canonical form.
    """
    A = _witness_input(S)
    if norm_exceeds(A + A.T, SYMMETRY_TOL, scale_of=A):
        raise WrongSymmetry("S is not antisymmetric")
    if A.shape[0] % 4:
        raise WrongSymmetry(f"size {A.shape[0]} is not a multiple of 4")
    U, bound, delta, pf = _real_witness(A.imag)
    return _witness_report(U, bound, delta, pfaffian=pf)


def _reference_map(n: int):
    """W1^T as a column index map, W1 the real signed permutation of size 4N
    with W1 S0 W1^T = Phi(diag(I, -I)) = i [[0, Z_N], [Z_N, 0]]: it sends
    columns 2j, 2j + 1 to the j-th +i pair, (r, 3N + r) then (2N + r, N + r)."""
    N = n // 4
    phases = np.ones(n)
    phases[0] = (-1) ** N  # the sign of S0's first block
    return (np.array([[0], [2 * N + 1], [2 * N], [1]]) + 2 * np.arange(N)).ravel(), phases


def k2_twisted_witness(S) -> WitnessReport:
    """Witness with W## = W* conjugating S near diag(I, -I), through the
    fixed *-isomorphism onto the transpose picture.

    The class of S is trivial exactly when Pf(Phi(S)) > 0; the witness is
    the pullback W = Phi^{-1}(W2 W1^T) where W2 is the real witness for
    Phi(S) and W1 S0 W1^T = Phi(diag(I, -I)), a signed column permutation.
    Then W diag(I, -I) W* = Phi^{-1}(W2 S0 W2^T), and Phi is unitary, so
    the bound is that of the real witness for Phi(S), in the real picture.
    No hypothesis of the real witness is checked again on Phi(S): it is
    Hermitian as S is, of size 4N as Phi needs, and antisymmetric to the
    anti-fixed check, since Phi(S##) = Phi(S)^T gives
    ||Phi(S) + Phi(S)^T|| = ||S## + S||.
    """
    S = _witness_input(S)
    n = S.shape[0]
    if norm_exceeds(sharp_sharp(S) + S, SYMMETRY_TOL, scale_of=S):
        raise WrongSymmetry("S is not anti-fixed by the coupled dual")
    # ||S^2 - I|| = ||Phi(S)^2 - I||, read from the canonical form of Phi(S),
    # of which only the real Im Phi(S) is formed
    X = _im_phi(S)
    del S  # an S the caller handed over is freed here (CPython 3.11 and later)
    W2, bound, delta, pf = _real_witness(X)  # NontrivialClass propagates
    del X  # free before the witness's n x n products
    cols, phases = _reference_map(n)
    W = phi_inverse(W2[:, cols] * phases)  # real: no complex copy
    return _witness_report(W, bound, delta, pfaffian=pf)


def sqrt_psd(M) -> np.ndarray:
    """Hermitian square root with eigenvalues clipped at zero.  M must be
    Hermitian to 1e-6 * max(1, ||M||) (NonHermitian), checked once, by
    :func:`acbott.matkernel.hermitian_part`.  Exactly real M
    (:func:`acbott.matkernel.real_if_exact`) has a real square root."""
    w, V = _hermitian_solve(np.linalg.eigh, M, "M", 1e-6)
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T


def _structured_rotation(n: int, anti_tau, rng: np.random.Generator, eps: float):
    """exp(eps G) with G anti-Hermitian, of norm 1 and anti-fixed by the
    involution, a small step inside the structured unitary group."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = (raw - raw.conj().T) / 2
    G = (G - anti_tau(G)) / 2
    norm = operator_norm(G)
    if norm > 0:
        G = G / norm
    return scipy.linalg.expm(eps * G)


@dataclass(frozen=True)
class ExtractionResult:
    """Output of the commuting-pair extraction: a tau-fixed unitary U
    commuting with K = H3 up to the input residual, plus the measured
    residuals (commutator, tau-fixedness, and the reconstruction identity
    ||U sqrt(1 - K^2) - (H1 + i H2)||)."""

    U: np.ndarray
    K: np.ndarray
    residuals: dict


def commuting_pair_from_sphere(
    H1,
    H2,
    H3,
    symmetry: SymmetryClass = SymmetryClass.SYMMETRIC,
    seed: int = 0,
) -> ExtractionResult:
    """Extract a commuting (unitary, Hermitian) pair from a near-sphere
    triple carrying transpose or dual symmetry.

    SYMMETRIC triples always admit a witness (their doubled matrix is
    anti-self-dual); SELF_DUAL triples go through the twisted witness and
    raise NontrivialClass when the Pfaffian-Bott obstruction is -1.
    U = polar(A* B) for the witness blocks A = W[:n, :n]* and
    B = W[n:, :n]* (the rows of W*), from one SVD.  If A* B has a singular value below
    BLOCK_SIGMA_MIN_TOL (sigma_min(A* B) is within a factor sqrt(2) of the
    smaller of sigma_min(A) and sigma_min(B)), the witness is moved inside
    the structured unitary group by a small random rotation (the invertible
    pairs are dense there), at most MAX_RETRIES times; the step size is ten
    times the singular-value deficit; NoConvergence (a ValidationError) if
    the blocks stay singular.  After a retry U is replaced by the polar
    part of (U + U^tau)/2, which restores tau to rounding.  A ``seed`` that
    is not an integer >= 0 raises ValidationError, a ``symmetry`` other than
    SYMMETRIC or SELF_DUAL WrongSymmetry, and an empty triple
    ShapeMismatch, in that order and before any work.

    The three returned residuals shrink with the input residual; no rate
    is asserted.
    """
    seed = _check_integer(seed, "seed")
    if symmetry not in (SymmetryClass.SYMMETRIC, SymmetryClass.SELF_DUAL):
        raise WrongSymmetry("extraction needs SYMMETRIC or SELF_DUAL class")
    Hs = as_squares((H1, H2, H3), "H")
    delta, _ = max_norm(_sphere_terms(Hs))
    require_tau_fixed(Hs, symmetry, "H", WrongSymmetry)  # to SYMMETRY_TOL, relative

    if symmetry is SymmetryClass.SYMMETRIC:
        report = k2_quaternion_witness(bott_matrix(*Hs))
        anti_tau = dual
    else:
        report = k2_twisted_witness(bott_matrix(*Hs))  # NontrivialClass propagates
        anti_tau = sharp_sharp
    n = Hs[0].shape[0]
    rng = np.random.default_rng(seed)

    W = report.witness
    for attempt in range(MAX_RETRIES + 1):
        # A A* + B B* = I, so polar(A* B) = polar(A)* polar(B), and the
        # singular values of A* B are sigma_i(A) (1 - sigma_i(A)^2)^(1/2)
        U, s = _polar_svd(W[:n, :n] @ W[n:, :n].conj().T)
        if s[-1] >= BLOCK_SIGMA_MIN_TOL:
            break
        if attempt == MAX_RETRIES:
            raise NoConvergence(
                f"witness blocks stayed singular after {MAX_RETRIES} retries"
            )
        eps = 10.0 * max(BLOCK_SIGMA_MIN_TOL - s[-1], BLOCK_SIGMA_MIN_TOL)
        W = W @ _structured_rotation(2 * n, anti_tau, rng, eps).conj().T  # W* <- E W*

    if attempt:
        # the polar parts of barely invertible blocks keep tau only to
        # their conditioning; the polar part of a tau-fixed matrix is
        # tau-fixed, so this restores tau to rounding
        U = polar(symmetrize(U, symmetry))
    K = Hs[2]
    comm = operator_norm(U @ K - K @ U)
    sym = tau_residual(U, symmetry)
    (Kr,) = real_if_exact([K])  # K^2 and its square root in real arithmetic if K is real
    recon = operator_norm(U @ sqrt_psd(np.eye(n) - Kr @ Kr) - (Hs[0] + 1j * Hs[1]))
    return ExtractionResult(
        U=U,
        K=K,
        residuals={
            "commutator": float(comm),
            "tau": float(sym),
            "reconstruction": float(recon),
            "input": float(delta),
            "witness_bound": float(report.bound),
        },
    )


def polar_product_check(a, b) -> float:
    """Diagnostic for the polar product identity.

    For invertible a, b with a a* + b b* = I the identity
    polar(a* b) = polar(a)* polar(b) holds; returns the left/right
    difference in operator norm (tiny when the hypotheses hold).
    """
    A, B = as_square(a, "a"), as_square(b, "b")
    if not A.size:
        raise HypothesisFailed("a and b must be nonempty")
    if A.shape != B.shape:
        raise HypothesisFailed(f"a and b differ in size: {A.shape} vs {B.shape}")
    n = A.shape[0]
    if norm_exceeds(A @ A.conj().T + B @ B.conj().T - np.eye(n), SYMMETRY_TOL):
        raise HypothesisFailed("a a* + b b* is not the identity")
    PA, sA = _polar_svd(A)
    PB, sB = _polar_svd(B)
    for name, s in (("a", sA), ("b", sB)):
        if s[-1] < 1e-12:
            raise HypothesisFailed(f"{name} is singular")
    lhs = polar(A.conj().T @ B)
    rhs = PA.conj().T @ PB
    return float(operator_norm(lhs - rhs))
