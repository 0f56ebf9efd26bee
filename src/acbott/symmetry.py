"""Involutions on structured complex matrices.

Three symmetry classes run through the library: plain complex matrices,
complex symmetric ones (tau = transpose, the real class in disguise), and
self-dual ones (tau = the dual operation, the quaternionic class).  This
module fixes the concrete representatives: the symplectic form Z, the dual
X -> -Z X^T Z, time reversal and the Kramers-paired bases [F, T F] it
induces (one pairing, :func:`_kramers_basis`, for the range finder of a
self-dual projection and the kernel of an anti-self-dual matrix), the
coupled involution on doubled matrices, the quaternion embedding, and the
fixed unitary conjugation that turns the coupled involution into a plain
transpose.

Block convention for the coupled involution and its conjugation: a matrix
of size 4N is read as a 2x2 grid of 2N x 2N blocks (the tensor factor
B (x) [[0,1],[0,0]] sits at the upper-right block).

Z and K = Z_2 (x) Z_N are signed permutations, so no dense form of them is
built: dual is X -> Z (Z X)^T, ## is X -> K X^T K and time reversal is a
signed swap of halves, all by slicing.  Phi, conjugation by
(I - i K)/sqrt(2), is (X + K X K + i (X K - K X))/2; its real and
imaginary parts are each one real kernel (a + K a K + s (b K - K b))/2 of
(Re X, Im X) or (Im X, Re X), the one implementation of Phi.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import BadDimension, OddDimension, WrongSymmetry
from .matkernel import _check_integer, _square, as_square, as_squares, norm_exceeds, operator_norm

TAU_FIXED_RTOL = 1e-8


class SymmetryClass(enum.Enum):
    """Which involution tau governs a tuple."""

    COMPLEX = "complex"
    SYMMETRIC = "symmetric"
    SELF_DUAL = "selfdual"


def check_symmetry(symmetry) -> SymmetryClass:
    """``symmetry`` if it is a :class:`SymmetryClass` member, else
    WrongSymmetry: a string or any other value is never taken for a class."""
    if not isinstance(symmetry, SymmetryClass):
        raise WrongSymmetry(f"symmetry must be a SymmetryClass member, got {symmetry!r}")
    return symmetry


def symplectic_form(half_size: int) -> np.ndarray:
    """Z_N = [[0, I], [-I, 0]] of size 2N; Z^2 = -I, Z^T = -Z, Z unitary.
    Dense, for callers that need the matrix; the library slices instead."""
    if _check_integer(half_size, "half_size") < 1:
        raise BadDimension("half_size must be positive")
    I = np.eye(half_size)
    O = np.zeros((half_size, half_size))
    return np.block([[O, I], [-I, O]])


def _z_rows(X: np.ndarray) -> np.ndarray:
    """Z X: the row halves swapped, [X_hi; X_lo] -> [X_lo; -X_hi]."""
    h = X.shape[0] // 2
    return np.concatenate([X[h:], -X[:h]])


def _quarters(n: int):
    """(rows, src, s) for the row quarters of K M, the r-th being s M[src];
    the signs are palindromic, so (cols, src, s) are also the column
    quarters of M K, the r-th being s M[:, src]."""
    q = n // 4
    return [(slice(r * q, (r + 1) * q), slice((3 - r) * q, (4 - r) * q), s)
            for r, s in enumerate((1, -1, -1, 1))]


def _k_rows(X: np.ndarray) -> np.ndarray:
    """K X for K = Z_2 (x) Z_N, a real symmetric involution of size 4N: the
    row quarters reversed with signs (:func:`_quarters`)."""
    return np.concatenate([X[src] if s > 0 else -X[src] for _, src, s in _quarters(X.shape[0])])


def dual(X) -> np.ndarray:
    """The dual operation X -> -Z X^T Z = Z (Z X)^T on even-size matrices.

    An involution, anti-multiplicative, and commuting with conjugate
    transpose.  Matrices fixed by it (self-dual) form the quaternionic
    symmetry class.
    """
    A = as_square(X, "X")
    if A.shape[0] % 2:
        raise OddDimension("dual needs even size")
    return _z_rows(_z_rows(A).T)


def time_reversal(v: np.ndarray) -> np.ndarray:
    """The antiunitary v -> -Z conj(v) (squares to -1).

    Acts columnwise on matrices; as a signed swap of halves it reads
    [v_hi; v_lo] -> [-conj(v_lo); conj(v_hi)].  A matrix commutes with this
    map exactly when it lies in the image of the quaternion embedding.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape[0] % 2:
        raise OddDimension("time reversal needs even dimension")
    return _z_rows(-v.conj())


def _paired(Y: np.ndarray) -> np.ndarray:
    """[Y, T Y] for an n x m Y, n even: the columns of Y, then those of its
    time reversal, written into one n x 2m array."""
    (n, m), h = Y.shape, Y.shape[0] // 2
    out = np.empty((n, 2 * m), dtype=complex)
    out[:, :m] = Y
    np.conjugate(Y[h:], out=out[:h, m:])
    np.negative(out[:h, m:], out=out[:h, m:])
    np.conjugate(Y[:h], out=out[h:, m:])
    return out


def _interleaved(Y: np.ndarray) -> np.ndarray:
    """The columns y_1, T y_1, y_2, T y_2, ... of Y and its time reversal."""
    Z = np.empty((Y.shape[0], 2 * Y.shape[1]), dtype=complex)
    Z[:, 0::2] = Y
    Z[:, 1::2] = time_reversal(Y)
    return Z


def _kramers_basis(Y: np.ndarray) -> np.ndarray:
    """F (n x m) with [F, T F] orthonormal onto the span of Y and T Y (m
    columns each, all 2m independent): the even columns of one Householder
    QR of [y_1, T y_1, y_2, T y_2, ...], the package's one Kramers pairing.
    Gram-Schmidt on such interleaved columns yields Kramers pairs: once the
    span of the earlier columns is T-invariant, the next even column q has
    T q orthogonal to it and to q, so the odd column after it is T q up to
    phase (the uniqueness of the quaternionic QR)."""
    return np.linalg.qr(_interleaved(Y))[0][:, 0::2]


def _paired_defect(A: np.ndarray, F: np.ndarray, sign: int = 1) -> np.ndarray:
    """A - G - sign T G T* for G = F F*: with W = [F, T F], that is A - W W*
    for sign 1 and A - W diag(I, -I) W* for sign -1, from the half-width
    product G, with one n x n temporary besides the result.

    T X T* = Z conj(X) Z^T is conj(X) with its blocks swapped and signed,
    [[a, b], [c, d]] -> [[d, -c], [-b, a]], so it is applied in place."""
    FF = F @ F.conj().T
    defect = A - FF
    np.conjugate(FF, out=FF)
    if sign < 0:
        np.negative(FF, out=FF)
    h = A.shape[0] // 2
    lo, hi = slice(0, h), slice(h, None)
    defect[lo, lo] -= FF[hi, hi]
    defect[lo, hi] += FF[hi, lo]
    defect[hi, lo] += FF[lo, hi]
    defect[hi, hi] -= FF[lo, lo]
    return defect


def tau_apply(X, symmetry: SymmetryClass) -> np.ndarray:
    """Apply the involution of the given class (identity for COMPLEX); the
    functions below reach :func:`check_symmetry` through it."""
    A = as_square(X, "X")
    if check_symmetry(symmetry) is SymmetryClass.COMPLEX:
        return A.copy()
    if symmetry is SymmetryClass.SYMMETRIC:
        return A.T.copy()
    return dual(A)


def tau_residual(X, symmetry: SymmetryClass) -> float:
    """||X^tau - X||; zero for the COMPLEX class by convention."""
    A = as_square(X, "X")
    if symmetry is SymmetryClass.COMPLEX:
        return 0.0
    return operator_norm(tau_apply(A, symmetry) - A)


def is_tau_fixed(X, symmetry: SymmetryClass) -> bool:
    """True when tau_residual is below 1e-8 * max(1, ||X||)."""
    A = as_square(X, "X")
    if symmetry is SymmetryClass.COMPLEX:
        return True
    return not norm_exceeds(tau_apply(A, symmetry) - A, TAU_FIXED_RTOL, scale_of=A)


def require_tau_fixed(mats, symmetry: SymmetryClass, prefix: str, error, why: str = "") -> None:
    """The tau-fixed gate of a tuple: ``error`` with the message
    f"{prefix}{r} is not {label}{why}" for the first member (r = 1, 2, ...)
    that :func:`is_tau_fixed` rejects, the label being "complex symmetric"
    or "self-dual", and "{label}" in ``why`` standing for it too; every
    member passes for COMPLEX."""
    for r, M in enumerate(mats, 1):
        if not is_tau_fixed(M, symmetry):
            label = "self-dual" if symmetry is SymmetryClass.SELF_DUAL else "complex symmetric"
            raise error(f"{prefix}{r} is not {label}{why.format(label=label)}")


def symmetrize(X, symmetry: SymmetryClass) -> np.ndarray:
    """Average X with X^tau, the nearest tau-fixed point of the pair.

    Preserves Hermitianity.  Inputs are averaged, never rejected.
    """
    A = as_square(X, "X")
    if symmetry is SymmetryClass.COMPLEX:
        return A.copy()
    return (A + tau_apply(A, symmetry)) / 2


def chi_embed(A, B) -> np.ndarray:
    """Quaternion embedding chi(A + B j) = [[A, B], [-conj(B), conj(A)]].

    The image is exactly the set of matrices commuting with
    :func:`time_reversal`; it is an algebra map for the quaternion product
    (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j.
    """
    return _chi(*as_squares((A, B), "block "))


def _chi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[[a, b], [-conj(b), conj(a)]] of unchecked m x m blocks, written into
    one array: the matrix with top block row [a, b] that commutes with time
    reversal."""
    m = a.shape[0]
    out = np.empty((2 * m, 2 * m), dtype=np.result_type(a, b))
    out[:m, :m], out[:m, m:] = a, b
    np.conjugate(b, out=out[m:, :m])
    np.negative(out[m:, :m], out=out[m:, :m])
    np.conjugate(a, out=out[m:, m:])
    return out


def _is_quaternionic(X: np.ndarray) -> bool:
    """True when the square X is :func:`_chi` of its top block row, entry
    for entry (O(n^2) compares): X commutes with time reversal, so an
    exactly Hermitian X is exactly self-dual."""
    h, odd = divmod(X.shape[0], 2)
    return (not odd and np.array_equal(X[h:, h:], X[:h, :h].conj())
            and np.array_equal(X[h:, :h], -X[:h, h:].conj()))


def _quaternion_product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A B for A, B that pass :func:`_is_quaternionic`: the top block row
    A[:m] B (m x 2m x 2m, half the flops of A B) completed by :func:`_chi`,
    so the product commutes with time reversal exactly."""
    top = A[:A.shape[0] // 2] @ B
    m = top.shape[0]
    return _chi(top[:, :m], top[:, m:])


def _size_4n(X, name: str) -> np.ndarray:
    """X as a finite square float or complex array of size 4N, N >= 1."""
    A = _square(X, name)
    if A.shape[0] % 4 or not A.size:
        raise BadDimension(f"size {A.shape[0]} is not a positive multiple of 4")
    return A.astype(complex if A.dtype.kind == "c" else float, copy=False)


def sharp_sharp(X) -> np.ndarray:
    """The coupled dual on 2x2 blocks of even-size blocks:

        [[A, B], [C, D]]  ->  [[D#, -B#], [-C#, A#]]

    equivalently X -> K X^T K with K = Z_2 (x) Z_N.  An involution and
    anti-multiplicative.  Bott matrices of self-dual triples are anti-fixed
    by it (the minus sign is what makes their polar parts representatives
    of the two-torsion class).
    """
    return _k_rows(_k_rows(_size_4n(X, "X").astype(complex, copy=False)).T)


def _phi_kernel(a, b, s: int) -> np.ndarray:
    """(a + K a K + s (b K - K b)) / 2 for real a, b of size 4N and s = +-1,
    the one implementation of Phi: Phi(X) = (X + K X K + i (X K - K X))/2
    has real part this of (Re X, Im X, -1) and imaginary part this of
    (Im X, Re X, 1), and Phi^{-1} the same with the signs flipped.

    One real n x n array is live besides the result.  It holds a K, then
    b K; each is written as its signed column quarters, negated in place
    (numpy 2.4.6's ``np.negative`` from one strided view into another
    misreads one-column quarters), and each K M is added as its signed row
    quarters."""
    quarters = _quarters(a.shape[0])
    out = a.copy()
    MK = np.empty_like(out)

    def times_k(M):
        for cols, src, t in quarters:
            MK[:, cols] = M[:, src]
            if t < 0:
                np.negative(MK[:, cols], out=MK[:, cols])

    times_k(a)
    for rows, src, t in quarters:  # a + K (a K)
        (np.add if t > 0 else np.subtract)(out[rows], MK[src], out=out[rows])
    times_k(b)
    for rows, src, t in quarters:  # b K - K b
        (np.subtract if t > 0 else np.add)(MK[rows], b[src], out=MK[rows])
    (np.add if s > 0 else np.subtract)(out, MK, out=out)
    out /= 2
    return out


def _im_phi(X) -> np.ndarray:
    """Im Phi(X) of a size-4N X, real: what the index and the twisted
    witness read of Phi."""
    return _phi_kernel(X.imag, X.real, 1)


def _phi(A, sign: int) -> np.ndarray:
    """(A + K A K + sign i (A K - K A)) / 2, conjugation by
    (I - sign i K)/sqrt(2), its real and imaginary parts from two calls of
    the kernel; a real A is read as it is, with no complex copy."""
    out = np.empty(A.shape, dtype=complex)
    out.real = _phi_kernel(A.real, A.imag, -sign)
    out.imag = _phi_kernel(A.imag, A.real, sign)
    return out


def phi_conjugate(X) -> np.ndarray:
    """Conjugation by the fixed unitary U = (I - i K)/sqrt(2), K = Z_2 (x) Z_N:
    a *-isomorphism carrying the coupled dual to the plain transpose,
    Phi(X##) = Phi(X)^T."""
    return _phi(_size_4n(X, "X"), 1)


def phi_inverse(Y) -> np.ndarray:
    """Inverse of :func:`phi_conjugate` (conjugation by U*)."""
    return _phi(_size_4n(Y, "Y"), -1)
