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
Kramers pairs [F, T F] built in paired form by one Householder QR and one
Cholesky QR) and :func:`compress_positions`, the one
compression, which takes the band as P or as an isometry W, forms the
compressed tuple from one product per position pair, and reads each
||[P, X_r]|| = ||(I - P) X_r W|| from the products X_r W.
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
)
from .matkernel import (
    as_matrix, as_positions, as_square, as_squares, check_tolerance, max_norm, norm_exceeds,
    operator_norm, real_if_exact, refine_clusters,
)
from .relations import _torus4_terms
from .symmetry import SymmetryClass, _paired_defect, check_symmetry, is_tau_fixed, time_reversal

PROJECTION_TOL = 1e-8
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
        Xh = (X + X.conj().T) / 2
        Y = Xh @ B
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
    outside 1..n), the range is sampled as P G for a Gaussian G, and a
    second pass, one subspace-iteration step, makes an ill-conditioned W*G
    harmless for a valid P.  No eigendecomposition of P runs.

    COMPLEX: W = qr(P qr(P G).Q).Q, any orthonormal basis of the range.
    SYMMETRIC: the same with G and P real, a real basis (PairingFailure
    unless P is real).  SELF_DUAL: W = [F, T F], T the time reversal, so
    that the compression of any self-dual matrix is again self-dual; see
    :func:`_kramers_isometry`.  The certificate ||P - W W*|| <=
    PROJECTION_TOL stands in for the Hermitian, idempotency and rank
    checks; NotProjection otherwise.

    ``rng`` randomizes the basis choice; any valid choice yields the same
    compressed indices, which is exactly what the seeded acceptance checks
    exercise.  A non-member ``symmetry`` raises WrongSymmetry.
    """
    A = as_square(P, "P")
    check_symmetry(symmetry)
    n = A.shape[0]
    k = int(round(float(np.trace(A).real)))
    if not 0 < k <= n:
        raise NotProjection(f"rank round(tr P) = {k} is outside 1..{n}")
    if rng is None:
        rng = np.random.default_rng(0)
    if symmetry is SymmetryClass.SELF_DUAL:
        return _kramers_isometry(A, k, rng)
    if symmetry is SymmetryClass.SYMMETRIC:
        if np.abs(A.imag).max(initial=0.0) > PROJECTION_TOL:
            raise PairingFailure("SYMMETRIC class needs a real projection")
        M, G = A.real, rng.standard_normal((n, k))
    else:
        M = A
        G = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    W = np.linalg.qr(M @ np.linalg.qr(M @ G)[0])[0].astype(complex, copy=False)
    defect = A - W @ W.conj().T
    if norm_exceeds(defect, PROJECTION_TOL):
        raise NotProjection(f"||P - W W*|| = {operator_norm(defect):.3e}")
    return W


def _interleaved(Y: np.ndarray) -> np.ndarray:
    """The columns y_1, T y_1, y_2, T y_2, ... of Y and its time reversal."""
    Z = np.empty((Y.shape[0], 2 * Y.shape[1]), dtype=complex)
    Z[:, 0::2] = Y
    Z[:, 1::2] = time_reversal(Y)
    return Z


def _kramers_isometry(A: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The SELF_DUAL range finder: W = [F, T F] with W W* = A, rank k.

    F comes from :func:`_paired_range`.  The certificate
    ||A - F F* - T(F F*)T*|| <= PROJECTION_TOL
    (:func:`acbott.symmetry._paired_defect`)
    stands in for the projection checks; when it fails the error is
    PairingFailure if A is not self-dual (its range is not T-invariant),
    else NotProjection.  Odd size or rank raise PairingFailure.
    """
    n = A.shape[0]
    if n % 2 or k % 2:
        raise PairingFailure(f"SELF_DUAL class needs even size and rank, got {n} and {k}")
    F = _paired_range(A, k // 2, rng)
    defect = _paired_defect(A, F)
    # norm_exceeds raises ValidationError on a non-finite defect; the
    # PairingFailure/NotProjection verdict below is the better report
    finite = np.isfinite(F).all()
    if finite and not norm_exceeds(defect, PROJECTION_TOL):
        return np.column_stack([F, time_reversal(F)])
    if not is_tau_fixed(A, SymmetryClass.SELF_DUAL):
        raise PairingFailure("SELF_DUAL class needs a self-dual projection")
    raise NotProjection(f"||P - W W*|| = {operator_norm(defect) if finite else np.inf:.3e}")


def _paired_range(A: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """F (n x m) with [F, T F] orthonormal onto the range of A, for rank 2m.

    For m Gaussian columns G, the columns [y_1, T y_1, ...] of Y = A G are
    orthonormalized by one Householder QR.  Gram-Schmidt on such
    interleaved columns yields Kramers pairs: once the span of the earlier
    columns is T-invariant, the next even column q has T q orthogonal to it
    and to q, so the odd column after it is T q up to phase (the uniqueness
    of the quaternionic QR).  The even columns F0 then carry the range.  One
    refinement pass takes Z = [A f, T A f, ...] over the columns f of F0
    and keeps the even columns of its Cholesky QR as F; a failed Cholesky
    factorization raises NotProjection.
    """
    n = A.shape[0]
    G = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    F0 = np.linalg.qr(_interleaved(A @ G))[0][:, 0::2]
    Z = _interleaved(A @ F0)
    try:  # cholesky reads the lower triangle, the one herk forms
        L = np.linalg.cholesky(blas.zherk(1.0, Z, trans=2, lower=1))
    except np.linalg.LinAlgError as exc:
        raise NotProjection(f"the paired range of P has rank below {2 * m}") from exc
    # Z = Q L*, so the even columns of Q are Z (L*)^-1 restricted to them
    return Z @ solve_triangular(L, np.eye(2 * m)[:, 0::2], lower=True, trans="C")


def _haar(rng: np.random.Generator, k: int, real: bool) -> np.ndarray:
    """A seeded Haar-random k x k unitary, real orthogonal when ``real``."""
    G = rng.standard_normal((k, k))
    Q, R = np.linalg.qr(G if real else G + 1j * rng.standard_normal((k, k)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def _rotated_isometry(W: np.ndarray, symmetry: SymmetryClass, rng) -> np.ndarray:
    """The tall-band route of :func:`compress_positions`: gate W, turn it."""
    k = W.shape[1]
    defect = W.conj().T @ W - np.eye(k)  # non-finite exactly when W is
    if not np.isfinite(defect).all() or norm_exceeds(defect, PROJECTION_TOL):
        raise NotProjection(f"W is not an isometry: ||W*W - I|| > {PROJECTION_TOL:.0e}")
    if symmetry is SymmetryClass.SYMMETRIC and np.any(W.imag):
        raise PairingFailure("SYMMETRIC class needs a real isometry")
    if symmetry is not SymmetryClass.SELF_DUAL:
        return W @ _haar(rng, k, symmetry is SymmetryClass.SYMMETRIC)
    m, odd = divmod(k, 2)
    if odd or W.shape[0] % 2 or not np.array_equal(W[:, m:], time_reversal(W[:, :m])):
        raise PairingFailure("SELF_DUAL class needs W = [F, T F], T the time reversal")
    F = W[:, :m] @ _haar(rng, m, False)
    return np.column_stack([F, time_reversal(F)])


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
    ones for an exactly real W and positions (:func:`_compress`).  The
    report's delta = max_r ||X_r W - W C_r|| (= ||[P, X_r]||, an n x k
    norm), its residual (the torus residual of the compressed tuple, bit
    for bit) and the positions' residual gate are maxima, found by
    :func:`acbott.matkernel.max_norm`, which solves only the terms it
    cannot prove smaller than the largest; each solve is a Hermitian
    eigenvalue problem of size k.  A non-member ``symmetry`` raises
    WrongSymmetry.
    """
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
    rng = np.random.default_rng(0) if rng is None else rng
    build = _rotated_isometry if np.shape(band)[1] < n else projection_isometry
    W = build(np.asarray(band), symmetry, rng)
    compressed, delta = _compress(*real_if_exact([W, *Xs]))
    report = CompressionReport(
        delta=float(delta),
        budget=float(8 * len(Xs) * delta),
        residual=float(max_norm(_torus4_terms(compressed))[0]),
        d=len(Xs),
    )
    return W, compressed, report


def _compress(W: np.ndarray, *Xs: np.ndarray) -> tuple[list[np.ndarray], float]:
    """The compressed tuple C_r = W* X_r W of four Hermitian X_r (n x n, or
    1-D diagonals), each exactly Hermitian, and delta = max_r ||[P, X_r]||.

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
            UH = U.conj().T
            compressed += [(U + UH) / 2, (U - UH) / 2j]
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
    (ValidationError unless finite and positive) and ShapeMismatch on an
    empty set or mixed sizes.
    """
    tol = check_tolerance(tol, "tol")
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
    M = sum(c * (Y + Y.conj().T) / 2 for c, Y in zip(coeffs, Ys))
    w, V = np.linalg.eigh(M)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    return refine_clusters(V, w, Ys, 1e-8 * scale)
