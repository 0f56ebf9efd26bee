"""Dense complex linear-algebra kernels.

The primitives that carry a gate or are shared across the library: matrix
and tuple checks, the exact Hermitian test and (A + A*)/2, Hermitian
eigendecomposition (divide and conquer, and the MRRR solve of the
quaternion witness) and cluster refinement, the polar part, the
half-signature, spectral norms and norm gates, and two Pfaffian routes (a
Householder reduction, O(n^3), which also gives the real skew canonical
form, and a combinatorial oracle).  A solve that is one step of one
routine with no gate before it (the lift's eigendecomposition, the Pf-Bott
LU check by np.linalg.slogdet, the range finder's QR, the models' eigh)
calls numpy.linalg where it runs.

Threshold gates go through :func:`norm_exceeds`, which decides
||X|| > tol * max(1, ||A||) from the Frobenius bound ||X|| <= ||X||_F and
computes spectral norms only when that bound cannot decide;
:func:`operator_norm` gives the values that are reported, and
:func:`max_norm` the largest of several, skipping the terms that cannot
reach it by the same Frobenius bound or, failing that, by a Cholesky
factorization that proves the term's norm smaller (LAPACK ?potrf, about
a sixth of an eigenvalue solve), and solving at once a term whose proof
fails.  All three reach a spectral norm through one private routine,
``_spectral``, which runs that proof only when given a bound, and
otherwise one Hermitian eigenvalue solve: of the input itself
when it is exactly Hermitian, or complex and exactly anti-Hermitian
(callers make mathematically Hermitian residuals exactly so by taking
their Hermitian part), otherwise of one triangle of the smaller Gram
matrix, formed by a single herk (syrk when the input is real, real skew
input included).

Every Hermitian hypothesis (:func:`herm_eig`, :func:`signature`, and
``sqrt_psd`` and the witnesses in :mod:`acbott.canonical`) has one gate,
:func:`hermitian_part`; exactly Hermitian input passes it after one compare.

Exactly real input takes real arithmetic: :func:`real_if_exact` hands a
complex matrix whose imaginary part is exactly zero on as its real part,
so its products and solves cost a third or less of the complex ones.

All functions treat their inputs as immutable and are safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from .errors import (
    GapTooSmall,
    NearSingular,
    NoConvergence,
    NonHermitian,
    NotReal,
    NotSkew,
    OddDimension,
    ShapeMismatch,
    TooLarge,
    ValidationError,
)

DEFAULT_GAP_TOL = 1e-6
DEFAULT_SIGMA_MIN_TOL = 1e-10
REAL_SKEW_RTOL = 1e-10

COMBINATORIAL_PFAFFIAN_LIMIT = 12


def _square(X, name: str) -> np.ndarray:
    """X as an array, after checking it is square and finite; its dtype is kept."""
    A = np.asarray(X)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeMismatch(f"{name} must be square, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A.reshape(-1).view(float) if A.dtype.kind == "c" else A)):
        raise ValidationError(f"{name} contains non-finite entries")
    return A


def as_square(X, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite square complex matrix."""
    return _square(X, name).astype(complex, copy=False)


def as_squares(mats, prefix: str) -> list[np.ndarray]:
    """The size rule of every matrix tuple: each member passes
    :func:`as_square` as f"{prefix}{r}" (r = 1, 2, ...), and there is at
    least one member and all have one size n x n, n >= 1; else
    ShapeMismatch, listing the shapes."""
    out = [as_square(M, f"{prefix}{r}") for r, M in enumerate(mats, 1)]
    shapes = [A.shape for A in out]
    if len(set(shapes)) != 1 or not out[0].size:
        raise ShapeMismatch(f"need one or more nonempty matrices of one size, got shapes {shapes}")
    return out


def real_if_exact(mats) -> list[np.ndarray]:
    """The rule of exactly real input, all or nothing: the real parts of
    ``mats``, as C-ordered float arrays, when no member has a nonzero
    imaginary entry, so that products and solves on them run in real
    arithmetic (dgemm, dsyrk, real eigh); otherwise ``mats`` as complex
    arrays.  A tuple never mixes the two, and no member is copied twice."""
    mats = list(mats)
    if any(np.iscomplexobj(M) and M.imag.any() for M in mats):
        return [M.astype(complex, copy=False) for M in mats]
    return [np.ascontiguousarray(M.real, dtype=float) for M in mats]


def is_diagonal(X) -> bool:
    """True when every off-diagonal entry is exactly zero."""
    A = np.asarray(X)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        return False
    return np.count_nonzero(A) == np.count_nonzero(np.diagonal(A))


def as_matrix(X) -> np.ndarray:
    """X as an array, where a 1-D array stands for the diagonal matrix it lists."""
    return np.diag(X) if np.ndim(X) == 1 else np.asarray(X)


def as_positions(X_set) -> list[np.ndarray]:
    """Validate finite position matrices of one size n >= 1, each n x n or
    the 1-D array of a diagonal one, as :func:`as_squares` does.  When all
    are diagonal (1-D, or with exactly zero off-diagonal entries) they come
    back as 1-D complex diagonals, for O(n) routes; otherwise as n x n
    complex matrices.  ``X_set`` is read once, so it may be an iterator."""
    X_set = list(X_set)
    if not all(np.ndim(X) == 1 or is_diagonal(X) for X in X_set):
        return as_squares(map(as_matrix, X_set), "X")
    out = [np.array(X if np.ndim(X) == 1 else np.diagonal(X), dtype=complex) for X in X_set]
    for r, d in enumerate(out):
        if not np.isfinite(d).all():
            raise ValidationError(f"X{r + 1} contains non-finite entries")
    shapes = [d.shape for d in out]  # diagonals are not square matrices
    if len(set(shapes)) != 1 or not out[0].size:
        raise ShapeMismatch(f"need one or more nonempty diagonals of one size, got shapes {shapes}")
    return out


def _exactly_hermitian(A) -> bool:
    """True when A == A* entry for entry; a 1-D diagonal is Hermitian
    exactly when it is real."""
    return np.array_equal(A, A.conj().T)


def _hermitian_mean(A) -> np.ndarray:
    """(A + A*)/2, with no compare: the one Hermitian part in the library."""
    return (A + A.conj().T) / 2


def _norm_operand(A) -> tuple[np.ndarray, bool]:
    """The Hermitian matrix whose spectrum gives ||A|| for a 2-D A that is
    not diagonal, by the routes of :func:`operator_norm`, and whether it is
    a Gram matrix: (A, False) or (iA, False) for an exactly Hermitian or
    complex exactly anti-Hermitian A (||A|| = max |eig|); else (G, True), G
    the lower triangle of the smaller Gram matrix (||A||^2 = lambda_max(G))."""
    if A.shape[0] == A.shape[1]:
        if _exactly_hermitian(A):
            return A, False
        if A.dtype.kind == "c":
            with np.errstate(invalid="ignore"):  # i * inf is nan: _spectral reports it
                iA = 1j * A
            if _exactly_hermitian(iA):  # A is exactly anti-Hermitian
                return iA, False
    # A^T is a Fortran-ordered view; herk of it gives a Gram matrix that is
    # A*A or A A* up to conjugation, so it has the same eigenvalues
    herk = blas.zherk if A.dtype.kind == "c" else blas.dsyrk
    return herk(1.0, A.T, trans=0 if A.shape[0] >= A.shape[1] else 2, lower=1), True


def _float_array(X) -> np.ndarray:
    """X as a complex array if its dtype is complex, else as a float array."""
    A = np.asarray(X)
    return A.astype(complex if A.dtype.kind == "c" else float, copy=False)


def _require_finite(A) -> None:
    """ValidationError when A has a NaN or infinite entry; :func:`_spectral`
    calls it only after a solve failed or gave a non-finite value."""
    if not np.isfinite(A).all():
        raise ValidationError("matrix contains non-finite entries")


def _positive_definite(H, shift: float, sign: float) -> bool:
    """True when LAPACK's Cholesky (?potrf, lower triangle) of
    shift * I + sign * H succeeds, for H Hermitian in its lower triangle."""
    C = H * sign
    C.flat[::C.shape[0] + 1] += shift
    potrf = lapack.zpotrf if C.dtype.kind == "c" else lapack.dpotrf
    return potrf(C, lower=1, clean=0, overwrite_a=1)[1] == 0


def _spectral(A, below: float | None = None, symmetric: bool = False) -> float | None:
    """The spectral norm ||A|| of a float or complex array A, by the routes
    of :func:`operator_norm`; or, when ``below`` is given, None if a
    Cholesky factorization proves ||A|| < below * (1 - 1e-10), with no
    eigenvalue solve.  Every spectral norm in the library is computed here.

    The proof is LAPACK's ?potrf of t * I -+ H (two factorizations) for the
    Hermitian form H of :func:`_norm_operand`, or of t^2 * I - G (one) for
    its Gram matrix G; when the caller knows that H's spectrum is symmetric
    about 0 (``symmetric``), so that ||H|| = lambda_max(H), the one
    factorization of t * I - H proves it.  Here
    t = below * (1 - 1e-10 - 8 m (m + 1) u) for order
    m and unit roundoff u; when it fails, the solve reads the operand it
    factored.  A factorization of C that runs to completion is exact for
    C + E with ||E|| <= d ||C||, d = m g / (1 - m g) and
    g = (m + 1) u / (1 - (m + 1) u) (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3, with || |R*| |R| || <= m ||R||^2).  So
    ||H|| < t (1 + d) / (1 - d), or ||G|| = ||A||^2 < t^2 (1 + d) / (1 - d),
    and either way ||A|| < t (1 + d) / (1 - d) < below * (1 - 1e-10), since
    2 d is well below 8 m (m + 1) u.  Empty, 1-D and diagonal input, whose
    norm costs no more than the proof, is never tested.  The errors are
    those of :func:`operator_norm`."""
    if A.ndim > 2:
        raise ShapeMismatch(f"operator_norm needs a matrix, got shape {A.shape}")
    if A.size == 0:
        return 0.0
    if A.ndim < 2 or is_diagonal(A):
        value = float(np.abs(A if A.ndim < 2 else np.diagonal(A)).max())
    else:
        H, gram = _norm_operand(A)
        if below is not None:
            m = min(A.shape)
            t = below * (1 - 1e-10 - 8 * m * (m + 1) * np.finfo(float).eps / 2)
            signs = (-1.0,) if gram or symmetric else (-1.0, 1.0)
            if all(_positive_definite(H, t * t if gram else t, sign) for sign in signs):
                return None
        try:
            w = np.linalg.eigvalsh(H, UPLO="L")  # a Gram matrix holds only its lower triangle
        except np.linalg.LinAlgError as exc:
            _require_finite(A)
            raise NoConvergence(str(exc)) from exc  # pragma: no cover - LAPACK stall
        value = float(np.sqrt(max(w[-1], 0.0))) if gram else float(max(-w[0], w[-1]))
    if not np.isfinite(value):
        _require_finite(A)  # finite input whose norm overflows keeps its inf
    return value


def operator_norm(X) -> float:
    """Largest singular value (spectral norm), by the cheapest exact route
    for the structure of X, each one Hermitian eigenvalue solve:

    * exactly diagonal input, or a 1-D array listing a diagonal: max |entry|;
    * exactly Hermitian input (``A == A*`` entry for entry): max |w| of
      eigvalsh(A);
    * exactly anti-Hermitian complex input: the same for iA, which is
      exactly Hermitian since multiplying by i is exact;
    * anything else, rectangular included: sqrt(lambda_max) of the smaller
      Gram matrix, one triangle formed by a single BLAS rank-k update
      (herk, or syrk for real input), which is cheaper than a full SVD and
      as accurate for the top singular value.  A real antisymmetric input
      takes this route too: syrk and a real eigvalsh cost less than the
      complex eigvalsh of iA.

    The structure tests are exact O(n^2) compares, so a matrix that is
    Hermitian only to rounding takes the Gram route.  More than two axes
    raise ShapeMismatch, a NaN or infinite entry ValidationError; the
    entries are tested only when the solve fails or its value is not
    finite, so finite input pays nothing for the test.
    """
    return _spectral(_float_array(X))


def _bound(tol: float, scale_of) -> float:
    """The threshold tol * max(1, ||scale_of||) of :func:`norm_exceeds`,
    with an exact spectral norm."""
    return tol if scale_of is None else tol * max(1.0, operator_norm(scale_of))


def _frobenius(X) -> float:
    """||X||_F by BLAS nrm2, which scales its sum of squares, so that no
    entry's square underflows or overflows (np.linalg.norm gives 0 for a
    nonzero matrix of entries near 1e-170, and inf near 1e160)."""
    x = _float_array(X).ravel(order="K")  # no copy of a Fortran-ordered X
    if x.size == 0:
        return 0.0  # nrm2 rejects an empty vector
    return float((blas.dznrm2 if x.dtype.kind == "c" else blas.dnrm2)(x))


def norm_exceeds(X, tol: float, scale_of=None) -> bool:
    """True exactly when ||X|| > tol * max(1, ||scale_of||) (spectral norms;
    the scale is 1 when ``scale_of`` is None).

    Since ||X|| <= ||X||_F and the threshold is at least tol, a Frobenius
    norm at most tol decides False in O(n^2); only otherwise are the
    spectral norms computed.  The Frobenius norm is :func:`_frobenius`,
    which does not underflow, and the 1e-10 relative slack covers the
    rounding gap between the two routes, so the decision is the spectral one.
    """
    A = np.asarray(X)
    if _frobenius(A) * (1 + 1e-10) <= tol:
        return False
    return operator_norm(A) > _bound(tol, scale_of)


def max_norm(named) -> tuple[float, str]:
    """The largest spectral norm over (name, matrix) pairs, and the name of
    the first term in input order that reaches it.  A term may carry a
    third element, True when its Hermitian form (M or iM, for exactly
    Hermitian or anti-Hermitian M) has a spectrum symmetric about 0, such
    as a commutator of self-dual Hermitian matrices; its Cholesky proof
    below then takes one factorization instead of two.

    The value is max(operator_norm(M)) bit for bit.  The terms are visited
    by decreasing Frobenius norm (input order among equal ones), and the
    spectral norm of a term is computed only when neither certificate
    below shows that it stays under the maximum ``best`` found so far:

    * the Frobenius bound: ||M|| <= ||M||_F (:func:`_frobenius`, safe
      from underflow), and the 1e-10 slack on ||M||_F covers the rounding
      gap between the two routes, as in :func:`norm_exceeds`, so
      ||M||_F * (1 + 1e-10) < best keeps the computed norm below best,
      and equality keeps it at most best, which is skipped only for a
      term later in input order than the maximizer;
    * Cholesky (:func:`_spectral` with ``below=best``): a factorization
      that succeeds proves ||M|| < best * (1 - 1e-10), a margin far above
      the rounding of the computed norm (a relative O(n u) for order n and
      unit roundoff u), so the computed norm stays below best and can
      neither beat the maximum nor tie it.  A failed factorization costs
      about as much as a successful one; the Frobenius order computes
      first the spectral norm of the term most likely to be the maximum,
      and tests the others against it.  The first term, and a term with a
      non-finite Frobenius norm, is never tested, and so never skipped.

    Each visited term takes one :func:`_spectral` call, which forms its
    Gram matrix (herk) or Hermitian form once: when the Cholesky proof
    fails, the eigenvalues of the operand it factored give the norm, the
    same solve that :func:`operator_norm` runs.  A term whose proof fails
    is solved at once; an exact tie, such as the mirror image of a term of
    a symmetric model, cannot be proved smaller, so both members are solved.

    The terms are all held at once.  A NaN or infinite entry raises
    ValidationError, as from :func:`operator_norm`; no terms raise it too.
    """
    terms = sorted(
        ((_frobenius(M), i, name, M, any(mark))
         for i, (name, M, *mark) in enumerate(named)),
        key=lambda term: -term[0],
    )
    if not terms:
        raise ValidationError("max_norm needs at least one term")
    best, worst, first = 0.0, None, -1
    for fro, i, name, M, symmetric in terms:
        if worst is not None:
            bound = fro * (1 + 1e-10)
            if bound < best or (bound == best and i > first):
                continue
        below = best if worst is not None and np.isfinite(fro) else None
        value = _spectral(_float_array(M), below, symmetric)
        if value is not None and (worst is None or value > best or (value == best and i < first)):
            best, worst, first = value, name, i
    return best, worst


@dataclass(frozen=True)
class EigDecomposition:
    """Hermitian eigendecomposition: H = V diag(eigenvalues) V*.

    ``eigenvalues`` ascend; the columns of ``vectors`` are orthonormal.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


def hermitian_part(A, rtol: float, error, name: str) -> np.ndarray:
    """The one Hermitian gate: (A + A*)/2 of a square array A, after
    checking ||A - A*|| <= rtol * max(1, ||A||) by :func:`norm_exceeds`,
    else ``error`` naming ``name``.  An exactly Hermitian A, its own
    Hermitian part bit for bit, is returned as itself, with no norm or copy."""
    if _exactly_hermitian(A):
        return A
    if norm_exceeds(A - A.conj().T, rtol, scale_of=A):
        raise error(f"{name} is not Hermitian to {rtol:g} * max(1, ||{name}||)")
    return _hermitian_mean(A)


def _hermitian_solve(solve, H, name: str, rtol: float):
    """``solve`` (np.linalg.eigh or eigvalsh) of a nonempty H (ShapeMismatch)
    after :func:`real_if_exact` and :func:`hermitian_part` at rtol
    (NonHermitian); NoConvergence if LAPACK fails."""
    (A,) = real_if_exact([_square(H, name)])
    if not A.size:
        raise ShapeMismatch(f"{name} must be nonempty")
    A = hermitian_part(A, rtol, NonHermitian, name)
    try:
        return solve(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK stall
        raise NoConvergence(str(exc)) from exc


def herm_eig(H) -> EigDecomposition:
    """Eigendecomposition of H, which must be Hermitian to 1e-9 * max(1, ||H||)
    (NonHermitian); the solve is of its Hermitian part (:func:`hermitian_part`),
    so the result is exact for the symmetrized matrix.  Exactly real input
    (:func:`real_if_exact`), of a real dtype or complex with an imaginary part
    that is exactly zero, takes a real symmetric solve, and its eigenvectors
    come back as float64.  NoConvergence if LAPACK fails."""
    return EigDecomposition(*_hermitian_solve(np.linalg.eigh, H, "H", 1e-9))


def _mrrr_eigh(A) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors of an exactly
    Hermitian complex A (its upper triangle is read) by LAPACK's MRRR
    driver zheevr (Dhillon, Parlett and Voemel, ACM TOMS 32 (2006) 533).

    On a spectrum that pairs lambda with -lambda and is generically simple,
    as for the anti-self-dual matrices of the quaternion witness, it costs
    about 40% less than divide and conquer at order 512, for orthogonality
    of about 1e-13 instead of 1e-15.  On Kramers-degenerate spectra and
    below order about 150 it is slower, so every other solve keeps the
    divide and conquer of np.linalg.eigh.  NoConvergence if LAPACK fails.
    """
    try:
        return scipy.linalg.eigh(A, lower=False, check_finite=False, driver="evr")
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK stall
        raise NoConvergence(str(exc)) from exc


def _polar_svd(X) -> tuple[np.ndarray, np.ndarray]:
    """The unitary polar part u vh and the singular values s of one SVD of X,
    so a caller that gates on s pays for no second factorization."""
    try:
        u, s, vh = np.linalg.svd(X)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return u @ vh, s


def polar(X) -> np.ndarray:
    """Unitary polar part, polar(X) = X (X*X)^(-1/2).

    One SVD of a nonempty X (ShapeMismatch); the result is the closest
    unitary to X.  Requires the smallest singular value to stay above
    DEFAULT_SIGMA_MIN_TOL.
    """
    A = as_square(X, "X")
    if not A.size:
        raise ShapeMismatch("X must be nonempty")
    Q, s = _polar_svd(A)
    if s[-1] < DEFAULT_SIGMA_MIN_TOL:
        raise NearSingular(
            f"smallest singular value {s[-1]:.3e} < {DEFAULT_SIGMA_MIN_TOL:.3e}"
        )
    return Q


def check_tolerance(value, name: str) -> float:
    """``value`` as a float if it is finite and positive, else
    ValidationError: a NaN or non-positive tolerance would switch its gate
    off.  Non-numeric input (a string, None, a complex number) is a
    ValidationError too."""
    try:
        tol = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be finite and positive, got {value!r}") from exc
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"{name} must be finite and positive, got {tol!r}")
    return tol


def _check_integer(value, name: str, least: int = 0) -> int:
    """``value`` as an int if it is a Python or NumPy integer of at least
    ``least`` and not a bool, else ValidationError (seeds, lattice sizes)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def gapped_signature(w, gap_tol: float = DEFAULT_GAP_TOL) -> tuple[int, float]:
    """Half-signature (n_+ - n_-)/2 and gap min |w| of a Hermitian spectrum.

    Every eigenvalue must stay at least ``gap_tol`` away from zero, and the
    count difference must be even (both always hold for gapped doubled
    matrices with symmetric spectrum counts); otherwise the quantity is not
    a well-defined integer invariant and GapTooSmall is raised.
    ``gap_tol`` must be finite and positive (ValidationError otherwise), and
    an empty spectrum is bad input (ShapeMismatch), not an obstruction.
    """
    gap_tol = check_tolerance(gap_tol, "gap_tol")
    w = np.asarray(w)
    if not w.size:
        raise ShapeMismatch("a half-signature needs a nonempty spectrum")
    gap = float(np.min(np.abs(w)))
    if gap < gap_tol:
        raise GapTooSmall(f"spectral gap {gap:.3e} < gap_tol {gap_tol:.3e}")
    diff = int((w > 0).sum()) - int((w < 0).sum())
    if diff % 2:
        raise GapTooSmall(f"odd eigenvalue count difference {diff}; not a half-signature")
    return diff // 2, gap


def signature(H, gap_tol: float = DEFAULT_GAP_TOL) -> int:
    """Half-signature of H, Hermitian as for :func:`herm_eig`, from its
    eigenvalues alone; see :func:`gapped_signature`."""
    return gapped_signature(_hermitian_solve(np.linalg.eigvalsh, H, "H", 1e-9), gap_tol)[0]


def refine_clusters(V, w, Ys, cluster_tol: float, depth: int = 0) -> np.ndarray:
    """Split eigenvalue clusters with further Hermitian matrices.

    ``w`` ascends and labels the columns of ``V``.  Each run of eigenvalues
    within ``cluster_tol`` of its first is rotated into the eigenbasis of
    Ys[depth] compressed to that block, recursing with the next matrix
    inside every cluster that stays degenerate.
    """
    V = V.copy()
    i = 0
    while i < len(w):
        j = i
        while j + 1 < len(w) and w[j + 1] - w[i] <= cluster_tol:
            j += 1
        if j > i and depth < len(Ys):
            block = V[:, i:j + 1]
            Yb = block.conj().T @ Ys[depth] @ block
            wb, Qb = np.linalg.eigh(_hermitian_mean(Yb))
            V[:, i:j + 1] = refine_clusters(block @ Qb, wb, Ys, cluster_tol, depth + 1)
        i = j + 1
    return V


def _check_real_skew(R) -> np.ndarray:
    """The real skew part of R, after checking that R has even size and is
    real and skew-symmetric to REAL_SKEW_RTOL * max(1, ||R||), with ||R||
    computed only when a defect exceeds REAL_SKEW_RTOL.  The result is a
    fresh Fortran-ordered array, so :func:`_skew_reduction` overwrites it in
    place."""
    A = as_square(R, "R")
    if A.shape[0] % 2:
        raise OddDimension("Pfaffian needs even size")
    imag = np.abs(A.imag).max(initial=0.0)
    if imag > REAL_SKEW_RTOL and imag > _bound(REAL_SKEW_RTOL, A):
        raise NotReal(f"imaginary part exceeds {_bound(REAL_SKEW_RTOL, A):.3e}")
    Ar = A.real
    if norm_exceeds(Ar + Ar.T, REAL_SKEW_RTOL, A):
        raise NotSkew(f"||R + R^T|| exceeds {_bound(REAL_SKEW_RTOL, A):.3e}")
    return _skew_part(Ar)


def _skew_part(X) -> np.ndarray:
    """(X - X^T) / 2 of a real square X, bit for bit, in Fortran order: the
    transpose of the C-ordered (X^T - X) / 2, halved in place, so one n x n
    array is made."""
    D = X.T - X
    D /= 2
    return D.T


def _skew_reduction(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Householder reduction A = Q T Q^T of a checked real skew A of
    even size n > 0 (dgehrd; Wimmer, arXiv:1102.3440): the LAPACK output
    (T on and above the subdiagonal, the reflectors below it), the
    reflector scalars tau, and the superdiagonal e of the skew tridiagonal
    T.  A Fortran-ordered A is overwritten in place; f2py copies any other
    layout first."""
    n = A.shape[0]
    H, tau, _ = lapack.dgehrd(A, lwork=int(lapack.dgehrd_lwork(n)[0]), overwrite_a=True)
    return H, tau, np.diagonal(H, 1).copy()


def _reduction_sign(tau, e) -> float:
    """sign Pf A = (-1)^#{tau != 0} prod sign e[0::2] of a
    :func:`_skew_reduction` of A: each nonzero tau is a reflector of
    determinant -1, and Pf T = prod e[0::2].  It is 0 when a pivot is."""
    return float((-1.0) ** np.count_nonzero(tau) * np.prod(np.sign(e[0::2])))


def _pfaffian_reduction(A) -> tuple[float, float, np.ndarray]:
    """Sign and log |Pf A| of a checked real skew A (may be overwritten), and
    the superdiagonal e of its :func:`_skew_reduction`.  Pf A =
    (-1)^#{tau != 0} prod e[0::2] (:func:`_reduction_sign`), which no size
    can overflow.  T is similar to -i tridiag(0, e), so the Hermitian iA has
    the spectrum of the real symmetric tridiag(0, |e|)."""
    if A.shape[0] == 0:
        return 1.0, 0.0, np.zeros(0)
    _, tau, e = _skew_reduction(A)
    with np.errstate(divide="ignore"):  # a zero pivot gives sign 0 and log -inf
        return _reduction_sign(tau, e), float(np.sum(np.log(np.abs(e[::2])))), e


def _skew_schur(A) -> tuple[np.ndarray, np.ndarray, float]:
    """Orthogonal Q, block values a and sign det Q of a checked real skew A
    of even size (may be overwritten): A = Q D Q^T, D built from 2x2 blocks
    [[0, a_i], [-a_i, 0]], a_i >= 0 descending.

    One :func:`_skew_reduction` A = Q0 T Q0^T, Q0 formed from the reflectors
    (dorghr), then one SVD of a half-size bidiagonal (Ward & Gray, ACM TOMS
    4(3), 1978): ordered even indices first, T is [[0, B], [-B^T, 0]] with
    B[i, i] = e[2i] and B[i, i-1] = -e[2i-1], so B = U diag(a) V^T puts
    Q0[:, 0::2] U in the even columns of Q and Q0[:, 1::2] V in the odd.
    Pf A = det Q prod a_i, so sign det Q is the Pfaffian sign of the same
    reduction (:func:`_reduction_sign`), with no determinant of Q; it is 0
    when a pivot e[2i] is exactly zero, where Pf A = 0 leaves it open."""
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0)), np.zeros(0), 1.0
    H, tau, e = _skew_reduction(A)
    sign = _reduction_sign(tau, e)
    Q0, _ = lapack.dorghr(H, tau, lwork=int(lapack.dorghr_lwork(n)[0]), overwrite_a=True)
    B = np.diag(e[0::2]) - np.diag(e[1::2], -1)
    try:
        U, a, Vt = np.linalg.svd(B)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK stall
        raise NoConvergence(str(exc)) from exc
    Q = np.empty((n, n), order="F")
    Q[:, 0::2] = Q0[:, 0::2] @ U
    Q[:, 1::2] = Q0[:, 1::2] @ Vt.T
    return Q, a, sign


def pfaffian_real_skew(R) -> float:
    """Pfaffian of a real skew-symmetric matrix of even size (checked to
    REAL_SKEW_RTOL * max(1, ||R||)); +-inf or 0 only where the float range ends."""
    sign, log_abs, _ = _pfaffian_reduction(_check_real_skew(R))
    with np.errstate(over="ignore"):
        return float(sign * np.exp(log_abs))


def pfaffian_combinatorial(R) -> complex:
    """Exact Pfaffian by recursive expansion over perfect matchings.

    Testing oracle only; sizes are capped at 12 (10395 matchings) to keep
    the exact sum affordable.  Accepts complex skew-symmetric input.
    """
    A = as_square(R, "R")
    n = A.shape[0]
    if n % 2:
        raise OddDimension("Pfaffian needs even size")
    if n > COMBINATORIAL_PFAFFIAN_LIMIT:
        raise TooLarge(f"size {n} > limit {COMBINATORIAL_PFAFFIAN_LIMIT}")
    tol = 1e-10 * max(1.0, np.abs(A).max(initial=0.0))
    if np.abs(A + A.T).max(initial=0.0) > tol:
        raise NotSkew("input is not skew-symmetric")

    memo: dict[tuple[int, ...], complex] = {}

    def rec(ix: tuple[int, ...]) -> complex:
        if not ix:
            return 1.0 + 0.0j
        got = memo.get(ix)
        if got is not None:
            return got
        i0 = ix[0]
        total = 0.0 + 0.0j
        for pos in range(1, len(ix)):
            a = A[i0, ix[pos]]
            if a != 0.0:
                rest = ix[1:pos] + ix[pos + 1:]
                total += (-1) ** (pos - 1) * a * rec(rest)
        memo[ix] = total
        return total

    return complex(rec(tuple(range(n))))
