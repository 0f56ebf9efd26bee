"""Wannier spread functionals and projection compression.

The spread of a unit vector b against Hermitian position matrices X_r is
the summed variance sum_r <X_r^2 b, b> - <X_r b, b>^2.  The quantitative
lemmas implemented as checkable bounds here: moving every X_r by at most
``dist`` moves the maximum spread by at most 4 d dist, and compressing by
a projection that delta-almost commutes with the positions costs at most
8 d delta.

Also hosts band compression: the structured-isometry builder (a
randomized range finder gives an isometry W with W W* = P, certified by
||P - W W*||, whose columns are plain, real, or, for the self-dual class,
Kramers pairs [F, T F] built in paired form by one Householder QR; a
second pass, a Householder or Cholesky QR, runs only when the first
misses ONE_PASS_TOL) and :func:`compress_positions`, the one compression,
which takes the band as P or as an isometry W, forms the compressed tuple
from one product per position pair, or, for self-dual lattice positions,
from the top block row of each C_r at three quarters of that cost, and
reads each ||[P, X_r]|| = ||(I - P) X_r W|| from the products X_r W.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, solve_triangular

from .errors import (
    NotCommuting,
    NotExactRepresentation,
    NotOrthonormal,
    NotProjection,
    NormTooLarge,
    PairingFailure,
    ShapeMismatch,
    ValidationError,
)
from .matkernel import (
    _check_integer, _frobenius, _hermitian_mean, as_matrix, as_positions, as_square, as_squares,
    check_tolerance, max_norm, norm_exceeds, operator_norm, real_if_exact, refine_clusters,
)
from .relations import _torus4_terms
from .symmetry import (
    SymmetryClass, _chi, _interleaved, _kramers_basis, _paired, _paired_defect,
    check_symmetry, is_tau_fixed, time_reversal,
)

PROJECTION_TOL = 1e-8
# The range finder keeps its first pass when the Frobenius norm of its
# certificate ||P - W W*|| is at most this.  W's range lies in P's, so
# ||W*W - I|| <= ||P - W W*||: the bound is the orthonormality that the
# range-finder tests demand of W.
ONE_PASS_TOL = 1e-12
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class SpreadReport:
    """Per-vector spreads sigma^2, their sum, their max, and the number of
    position matrices d."""

    per_vector: np.ndarray
    total: float
    maximum: float
    d: int

    def csv_rows(self):
        """Rows (basis_index, sigma2, running_total, running_max)."""
        running = 0.0
        peak = 0.0
        for j, s in enumerate(self.per_vector):
            running += s
            peak = max(peak, s)
            yield (j, float(s), running, peak)


def _orthonormal_basis(basis, n: int) -> np.ndarray:
    B = np.asarray(basis, dtype=complex)
    if B.ndim == 1:
        B = B[:, None]
    elif B.ndim == 2 and B.shape[0] != n and B.shape[1] == n:
        # a list of vectors stacks to rows; columns are the convention here
        B = B.T
    if B.ndim != 2 or B.shape[0] != n:
        raise ShapeMismatch(f"basis must be {n} x k, got {B.shape}")
    if norm_exceeds(B.conj().T @ B - np.eye(B.shape[1]), ORTHO_TOL):
        raise NotOrthonormal("basis columns are not orthonormal")
    return B


def spread(X_set, basis) -> SpreadReport:
    """Wannier spreads of orthonormal columns against Hermitian positions.

    Raises NotOrthonormal when the columns fail orthonormality at
    ORTHO_TOL and ShapeMismatch on size disagreements.  Each per-vector
    value is a sum of variances, hence nonnegative up to rounding.  A 1-D
    X_r stands for the diagonal matrix it lists.
    """
    Xs = as_squares(map(as_matrix, X_set), "X")
    return _spread(Xs, _orthonormal_basis(basis, Xs[0].shape[0]))


def _spread(Xs, B) -> SpreadReport:
    """The spreads of checked columns B against a checked matrix set."""
    per = np.zeros(B.shape[1])
    for X in Xs:
        Y = _hermitian_mean(X) @ B
        second = np.sum(np.abs(Y) ** 2, axis=0)          # <X^2 b, b> = ||Xb||^2
        first = np.real(np.sum(B.conj() * Y, axis=0))    # <X b, b>
        per += second - first**2
    return SpreadReport(
        per_vector=per,
        total=float(per.sum()),
        maximum=float(per.max(initial=0.0)),
        d=len(Xs),
    )


def spread_continuity_check(X_set, Y_set, basis) -> tuple[float, float]:
    """Both sides of the continuity bound
    mu_X(B) <= mu_Y(B) + 4 d dist(X, Y) for contraction sets.

    Returns (lhs, rhs); the inequality holds with slack 1e-10 whenever the
    hypotheses do.  Raises NormTooLarge when a set is not a contraction.
    """
    Xs, Ys = as_squares(map(as_matrix, X_set), "X"), as_squares(map(as_matrix, Y_set), "Y")
    if len(Xs) != len(Ys) or Xs[0].shape != Ys[0].shape:
        raise ShapeMismatch("position sets differ in length or size")
    for name, S in (("X", Xs), ("Y", Ys)):
        worst = max(operator_norm(M) for M in S)
        if worst > 1.0 + 1e-10:
            raise NormTooLarge(f"||{name}|| = {worst:.6f} exceeds 1")
    dist = max(operator_norm(X - Y) for X, Y in zip(Xs, Ys))
    B = _orthonormal_basis(basis, Xs[0].shape[0])
    return _spread(Xs, B).maximum, _spread(Ys, B).maximum + 4 * len(Xs) * dist


def projection_isometry(
    P,
    symmetry: SymmetryClass = SymmetryClass.COMPLEX,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Isometry W (n x rank) with W W* = P, structured by symmetry class.

    One randomized range finder: the rank is k = round(tr P) (NotProjection
    outside 1..n) and the range is sampled as P G for a Gaussian G.  The
    first pass is kept when its certificate ||P - W W*|| has Frobenius norm
    at most ONE_PASS_TOL; otherwise a second pass, one subspace-iteration
    step, makes an ill-conditioned W*G harmless for a valid P (Halko,
    Martinsson and Tropp, SIAM Rev. 53 (2011) 217, accept a range on such
    an a-posteriori certificate).  No eigendecomposition of P runs.

    COMPLEX: W = qr(P G).Q, or qr(P W).Q after the second pass, any
    orthonormal basis of the range.  SYMMETRIC: the same with G and P
    real, a real basis (PairingFailure unless P is real).  SELF_DUAL:
    W = [F, T F], T the time reversal, so that the compression of any
    self-dual matrix is again self-dual; see :func:`_kramers_isometry`.
    The certificate ||P - W W*|| <= PROJECTION_TOL stands in for the
    Hermitian, idempotency and rank checks; NotProjection otherwise.

    ``rng`` randomizes the basis choice; any valid choice yields the same
    compressed indices, which is exactly what the seeded acceptance checks
    exercise.  It is None (seed 0) or a numpy Generator, else
    ValidationError before any work.  A non-member ``symmetry`` raises
    WrongSymmetry.
    """
    rng = _generator(rng)
    A = as_square(P, "P")
    check_symmetry(symmetry)
    n = A.shape[0]
    k = int(round(float(np.trace(A).real)))
    if not 0 < k <= n:
        raise NotProjection(f"rank round(tr P) = {k} is outside 1..{n}")
    if symmetry is SymmetryClass.SELF_DUAL:
        return _kramers_isometry(A, k, rng)
    if symmetry is SymmetryClass.SYMMETRIC:
        if np.abs(A.imag).max(initial=0.0) > PROJECTION_TOL:
            raise PairingFailure("SYMMETRIC class needs a real projection")
        M, G = A.real, rng.standard_normal((n, k))
    else:
        M = A
        G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    W = np.linalg.qr(M @ G)[0]
    defect = A - W @ W.conj().T
    if not _frobenius(defect) <= ONE_PASS_TOL:  # also when it is not finite
        W = np.linalg.qr(M @ W)[0]
        defect = A - W @ W.conj().T
    if norm_exceeds(defect, PROJECTION_TOL):
        raise NotProjection(f"||P - W W*|| = {operator_norm(defect):.3e}")
    return W.astype(complex, copy=False)


def _generator(rng) -> np.random.Generator:
    """``rng`` if it is a numpy Generator, a seed-0 one for None, else
    ValidationError naming ``rng``."""
    if rng is None:
        return np.random.default_rng(0)
    if not isinstance(rng, np.random.Generator):
        raise ValidationError(f"rng must be None or a numpy.random.Generator, got {rng!r}")
    return rng


def _kramers_isometry(A: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The SELF_DUAL range finder: W = [F, T F] with W W* = A, rank k.

    F and its certificate ||A - F F* - T(F F*)T*||
    (:func:`acbott.symmetry._paired_defect`) come from
    :func:`_paired_range`.  The certificate at most PROJECTION_TOL stands
    in for the projection checks; when it fails the error is
    PairingFailure if A is not self-dual (its range is not T-invariant),
    else NotProjection.  Odd size or rank raise PairingFailure.
    """
    n = A.shape[0]
    if n % 2 or k % 2:
        raise PairingFailure(f"SELF_DUAL class needs even size and rank, got {n} and {k}")
    F, defect = _paired_range(A, k // 2, rng)
    # norm_exceeds raises ValidationError on a non-finite defect; the
    # PairingFailure/NotProjection verdict below is the better report
    finite = np.isfinite(F).all()
    if finite and not norm_exceeds(defect, PROJECTION_TOL):
        return _paired(F)
    if not is_tau_fixed(A, SymmetryClass.SELF_DUAL):
        raise PairingFailure("SELF_DUAL class needs a self-dual projection")
    raise NotProjection(f"||P - W W*|| = {operator_norm(defect) if finite else np.inf:.3e}")


def _paired_range(
    A: np.ndarray, m: int, rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """F (n x m) with [F, T F] orthonormal onto the range of A, for rank 2m,
    and its certificate :func:`acbott.symmetry._paired_defect` (A, F).

    For m Gaussian columns G, F0 = :func:`acbott.symmetry._kramers_basis`
    of Y = A G, the package's one Kramers pairing (one Householder QR of
    [y_1, T y_1, ...]), carries the range.  F0 is F when its certificate
    has Frobenius norm at most ONE_PASS_TOL.  Otherwise one refinement
    pass takes Z = [A f, T A f, ...] over the columns f of F0 and keeps
    the even columns of its Cholesky QR as F; a failed Cholesky
    factorization raises NotProjection.
    """
    n = A.shape[0]
    G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    F0 = _kramers_basis(A @ G)
    defect = _paired_defect(A, F0)
    if _frobenius(defect) <= ONE_PASS_TOL:
        return F0, defect
    Z = _interleaved(A @ F0)
    try:  # cholesky reads the lower triangle, the one herk forms
        L = np.linalg.cholesky(blas.zherk(1.0, Z, trans=2, lower=1))
    except np.linalg.LinAlgError as exc:
        raise NotProjection(f"the paired range of P has rank below {2 * m}") from exc
    # Z = Q L*, so the even columns of Q are Z (L*)^-1 restricted to them
    F = Z @ solve_triangular(L, np.eye(2 * m)[:, 0::2], lower=True, trans="C")
    return F, _paired_defect(A, F)


def _haar(rng: np.random.Generator, k: int, real: bool) -> np.ndarray:
    """A seeded Haar-random k x k unitary, real orthogonal when ``real``."""
    G = rng.standard_normal((k, k))
    Q, R = np.linalg.qr(G if real else G + 1j * rng.standard_normal((k, k)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def _rotated_isometry(W: np.ndarray, symmetry: SymmetryClass, rng) -> np.ndarray:
    """The tall-band route of :func:`compress_positions`: gate W, turn it.

    For W = [F, T F] exactly (the SELF_DUAL layout), W*W is the
    :func:`acbott.symmetry._chi` completion of its top block row F*W, an
    m x n x k product at half the flops of W*W; a W off that layout is
    gated by W*W itself, so that NotProjection still comes before the
    layout's PairingFailure."""
    k = W.shape[1]
    m, odd = divmod(k, 2)
    paired = (symmetry is SymmetryClass.SELF_DUAL and not odd and not W.shape[0] % 2
              and np.array_equal(W[:, m:], time_reversal(W[:, :m])))
    if paired:
        top = W[:, :m].conj().T @ W
        gram = _chi(top[:, :m], top[:, m:])
    else:
        gram = W.conj().T @ W
    defect = gram - np.eye(k)  # non-finite exactly when W is
    if not np.isfinite(defect).all() or norm_exceeds(defect, PROJECTION_TOL):
        raise NotProjection(f"W is not an isometry: ||W*W - I|| > {PROJECTION_TOL:.0e}")
    if symmetry is SymmetryClass.SYMMETRIC and np.any(W.imag):
        raise PairingFailure("SYMMETRIC class needs a real isometry")
    if symmetry is not SymmetryClass.SELF_DUAL:
        return W @ _haar(rng, k, symmetry is SymmetryClass.SYMMETRIC)
    if not paired:
        raise PairingFailure("SELF_DUAL class needs W = [F, T F], T the time reversal")
    return _paired(W[:, :m] @ _haar(rng, m, False))


@dataclass(frozen=True)
class CompressionReport:
    """delta = max commutator of P with the positions; budget = 8 d delta is
    the spread cost certified by the compression lemma; residual is the
    achieved soft-torus residual of the compressed tuple (<= 2 delta)."""

    delta: float
    budget: float
    residual: float
    d: int


def compress_positions(
    band,
    X_set,
    rng: np.random.Generator | None = None,
    symmetry: SymmetryClass = SymmetryClass.COMPLEX,
) -> tuple[np.ndarray, list[np.ndarray], CompressionReport]:
    """Compress an exact commuting position representation onto a band.

    A square band is a projection P, made an isometry W by
    :func:`projection_isometry`.  A tall one (n x k, k < n) is W itself,
    P = W W*: gated by ||W*W - I|| <= PROJECTION_TOL (NotProjection), with
    W = [F, T F] exactly for SELF_DUAL and real for SYMMETRIC
    (PairingFailure), then turned by a Haar unitary from ``rng`` (on F for
    SELF_DUAL).  The four X_r, n x n or the 1-D diagonal of one (acting on
    W entrywise), must satisfy the exact torus relations to 1e-8 (else
    NotExactRepresentation; diagonal positions are checked entrywise, in
    O(n)).  Returns W, the compressed tuple
    C_r = W* X_r W, each exactly Hermitian (C_r == C_r* entry for entry),
    and a report whose residual is at most 2 delta + 1e-9.
    The tuple takes one k x n x k product per position pair, or four real
    ones for an exactly real W and positions (:func:`_compress`).  For the
    SELF_DUAL class with real 1-D diagonal positions whose two halves
    agree (lattice positions, which commute with the time reversal T bit
    for bit), each C_r is completed from its top block row instead
    (:func:`_kramers_compress`, three quarters of the flops): exactly self-dual,
    dual(C_r) == C_r entry for entry, and its residual's products are half
    width (:func:`acbott.relations._torus4_terms`).  The
    report's delta = max_r ||X_r W - W C_r|| (= ||[P, X_r]||, an n x k
    norm), its residual (the torus residual of the compressed tuple, bit
    for bit) and the positions' residual gate are maxima, found by
    :func:`acbott.matkernel.max_norm`, which solves only the terms it
    cannot prove smaller than the largest; each solve is a Hermitian
    eigenvalue problem of size k.  A non-member ``symmetry`` raises
    WrongSymmetry, an ``rng`` that is neither None nor a numpy Generator
    ValidationError, before any work.
    """
    rng = _generator(rng)
    check_symmetry(symmetry)
    Xs = as_positions(X_set)
    if len(Xs) != 4:
        raise ShapeMismatch("expected exactly four position matrices")
    n = Xs[0].shape[0]
    if np.ndim(band) != 2 or np.shape(band)[0] != n or not 0 < np.shape(band)[1] <= n:
        raise ShapeMismatch(f"band has shape {np.shape(band)}, the positions size {n}")
    base, worst = max_norm(_torus4_terms(Xs))
    if base > PROJECTION_TOL:
        raise NotExactRepresentation(
            f"positions are not an exact representation: {base:.3e} ({worst})"
        )
    build = _rotated_isometry if np.shape(band)[1] < n else projection_isometry
    W = build(np.asarray(band), symmetry, rng)
    if symmetry is SymmetryClass.SELF_DUAL and all(map(_kramers_diagonal, Xs)):
        compressed, delta = _kramers_compress(W, *(X.real for X in Xs))
    else:
        compressed, delta = _compress(*real_if_exact([W, *Xs]))
    report = CompressionReport(
        delta=float(delta),
        budget=float(8 * len(Xs) * delta),
        residual=float(max_norm(_torus4_terms(compressed))[0]),
        d=len(Xs),
    )
    return W, compressed, report


def _kramers_diagonal(X: np.ndarray) -> bool:
    """True for a real 1-D diagonal whose two halves agree: then X T = T X
    bit for bit, T the time reversal."""
    h = len(X) // 2
    return X.ndim == 1 and not X.imag.any() and np.array_equal(X[:h], X[h:])


def _kramers_compress(W: np.ndarray, *xs: np.ndarray) -> tuple[list[np.ndarray], float]:
    """:func:`_compress` for W = [F, T F] and real diagonals x_r that
    commute with T (:func:`_kramers_diagonal`), at half width.

    X W = [X F, T X F], so C_r = W* X_r W is read from its top block row
    F* [X_r F, T X_r F] = [a, b], m = k/2, made a = (a + a*)/2 and
    b = (b - b^T)/2 and completed as [[a, b], [-conj(b), conj(a)]]
    (:func:`acbott.symmetry._chi`): exactly Hermitian and exactly
    self-dual, C_r = dual(C_r) entry for entry.  a is one m x n x m
    product.  With F = [F_1; F_2] by row halves and y either half of x,
    T v = [-conj(v_2); conj(v_1)] gives b = conj(M^T - M) for
    M = F_1^T diag(y) F_2, one m x n/2 x m product; b is then exactly
    antisymmetric, its own (b - b^T)/2.  Together that is three quarters
    of the flops of the paired product U = W* (X_1 + i X_2) W.

    X_r W - W C_r = [E_r, T E_r] with E_r = X_r F - W C_r[:, :m], since T
    is antiunitary with T^2 = -1, so T W c = W [-conj(c_2); conj(c_1)]; so delta
    = max_r ||[E_r, T E_r]||, from four n x k x m products W C_r[:, :m]
    instead of four n x k x k ones."""
    m = W.shape[1] // 2
    F = W[:, :m]
    h = F.shape[0] // 2
    Fh, F1t = F.conj().T, F[:h].T
    compressed, residuals = [], []
    for x in xs:
        XF = x[:, None] * F
        M = F1t @ XF[h:]
        b = M.T - M
        C = _chi(_hermitian_mean(Fh @ XF), np.conjugate(b, out=b))
        XF -= W @ C[:, :m]
        compressed.append(C)
        residuals.append(_paired(XF))
    delta, _ = max_norm((f"delta_{r}", B) for r, B in enumerate(residuals, 1))
    return compressed, delta


def _compress(W: np.ndarray, *Xs: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The compressed tuple C_r = W* X_r W of four Hermitian X_r (n x n, or
    1-D diagonals), each exactly Hermitian, and delta = max_r ||[P, X_r]||:
    every input that :func:`_kramers_compress` does not take.

    A real W with real positions takes four real products and the
    symmetric parts (C + C^T)/2.  A complex W takes one product per
    position pair: U = W* (X_1 W + i X_2 W) = C_1 + i C_2 with C_1, C_2
    Hermitian, so C_1 = (U + U*)/2 and C_2 = (U - U*)/2i, both exactly
    Hermitian, since U - U* is exactly anti-Hermitian and dividing by 2i is
    exact.  Pairing a real W would leave rounding-size imaginary parts in
    C_1 and C_2.

    For Hermitian X and P = W W*, [P, X] = P X (I - P) - (I - P) X P is a
    pair of mutually adjoint off-diagonal blocks, so ||[P, X_r]|| =
    ||(I - P) X_r W|| = ||X_r W - W C_r||, an n x k norm, formed in place of
    the image X_r W.
    """
    images = [X[:, None] * W if X.ndim == 1 else X @ W for X in Xs]
    if W.dtype.kind == "f":
        compressed = [(C + C.T) / 2 for C in (W.T @ B for B in images)]
    else:
        compressed = []
        for B1, B2 in zip(images[0::2], images[1::2]):
            Y = 1j * B2
            Y += B1
            # U^T = Y^T conj(W): one zgemm of the Fortran-ordered views
            # Y^T and W^T, with no copy of W*
            U = blas.zgemm(1.0, Y.T, W.T, trans_b=2).T
            del Y
            UH = U.conj().T
            compressed += [(U + UH) / 2, (U - UH) / 2j]
            del U, UH  # not held through the delta norms below
    for B, C in zip(images, compressed):
        B -= W @ C
    delta, _ = max_norm((f"delta_{r}", B) for r, B in enumerate(images, 1))
    return compressed, delta


def eigenbasis_commuting(Y_set, tol: float = 1e-10, seed: int = 0) -> np.ndarray:
    """Orthonormal basis of near-common eigenvectors of a commuting set.

    Diagonalizes a random (seeded) real linear combination of the Y_r, then
    refines inside each eigenvalue cluster with the individual matrices.
    Exactly commuting inputs give a basis of common eigenvectors, hence
    zero spread.  Raises NotCommuting if any commutator exceeds ``tol``
    (ValidationError unless finite and positive; so is a ``seed`` that is
    not an integer >= 0) and ShapeMismatch on an empty set or mixed sizes.
    """
    tol, seed = check_tolerance(tol, "tol"), _check_integer(seed, "seed")
    Ys = as_squares(map(as_matrix, Y_set), "Y")
    for i in range(len(Ys)):
        for j in range(i + 1, len(Ys)):
            C = Ys[i] @ Ys[j] - Ys[j] @ Ys[i]
            if norm_exceeds(C, tol):
                raise NotCommuting(
                    f"||[Y{i + 1},Y{j + 1}]|| = {operator_norm(C):.3e} > {tol:.3e}"
                )
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(Ys))
    M = sum(c * _hermitian_mean(Y) for c, Y in zip(coeffs, Ys))
    w, V = np.linalg.eigh(M)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    return refine_clusters(V, w, Ys, 1e-8 * scale)
