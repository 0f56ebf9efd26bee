"""Involutions on structured complex matrices.

Three symmetry classes run through the library: plain complex matrices,
complex symmetric ones (tau = transpose, the real class in disguise), and
self-dual ones (tau = the dual operation, the quaternionic class).  This
module fixes the concrete representatives: the symplectic form Z, the dual
X -> -Z X^T Z, time reversal and the Kramers-paired bases it induces, the
coupled involution on doubled matrices, the quaternion embedding, and the
fixed unitary conjugation that turns the coupled involution into a plain
transpose.

Block convention for the coupled involution and its conjugation: a matrix
of size 4N is read as a 2x2 grid of 2N x 2N blocks (the tensor factor
B (x) [[0,1],[0,0]] sits at the upper-right block).

Z and K = Z_2 (x) Z_N are signed permutations, so no dense form of them is
built: dual is X -> Z (Z X)^T, ## is X -> K X^T K, time reversal is a
signed swap of halves, and Phi, conjugation by (I - i K)/sqrt(2), is
(X + K X K + i (X K - K X))/2, all by slicing.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import BadDimension, OddDimension, PairingFailure, WrongSymmetry
from .matkernel import as_square, as_squares, norm_exceeds, operator_norm

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
    if half_size < 1:
        raise BadDimension("half_size must be positive")
    I = np.eye(half_size)
    O = np.zeros((half_size, half_size))
    return np.block([[O, I], [-I, O]])


def _z_rows(X: np.ndarray) -> np.ndarray:
    """Z X: the row halves swapped, [X_hi; X_lo] -> [X_lo; -X_hi]."""
    h = X.shape[0] // 2
    return np.concatenate([X[h:], -X[:h]])


def _k_rows(X: np.ndarray) -> np.ndarray:
    """K X for K = Z_2 (x) Z_N, a real symmetric involution of size 4N: the
    row quarters reversed with signs, [q0; q1; q2; q3] -> [q3; -q2; -q1; q0]."""
    q = X.shape[0] // 4
    return np.concatenate([X[3 * q:], -X[2 * q:3 * q], -X[q:2 * q], X[:q]])


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


def kramers_pairs(candidates, tol: float) -> np.ndarray:
    """Greedy time-reversal pairing over the span of orthonormal columns.

    Returns F (n x k/2) for k candidates such that [F, T F] is orthonormal,
    with T the :func:`time_reversal` map.  Candidates are taken in order;
    each is projected off the paired block built so far and kept when at
    least ``tol`` of it remains.  The span of [F, T F] is T-invariant by
    construction, so a kept vector is orthogonal to its own partner.

    Raises PairingFailure when k is odd, when the partners leave the span
    of the candidates by more than ``tol`` (the span is not time-reversal
    invariant), or when the candidates run out before k/2 pairs are found.
    """
    C = np.asarray(candidates, dtype=complex)
    pairs, odd = divmod(C.shape[1], 2)
    if odd:
        raise PairingFailure(f"{C.shape[1]} candidates: odd, no paired basis")
    block = np.zeros((C.shape[0], 2 * pairs), dtype=complex)
    found = 0
    for j in range(C.shape[1]):
        if found == pairs:
            break
        F = block[:, :2 * found]
        v = C[:, j] - F @ (F.conj().T @ C[:, j])
        nv = np.linalg.norm(v)
        if nv < tol:
            continue
        block[:, 2 * found] = v / nv
        block[:, 2 * found + 1] = time_reversal(block[:, 2 * found])
        found += 1
    partners = block[:, 1:2 * found:2]
    if np.linalg.norm(partners - C @ (C.conj().T @ partners)) > tol:
        raise PairingFailure("time-reversed partners left the candidate span")
    if found != pairs:
        raise PairingFailure("ran out of candidates before filling the span")
    return block[:, 0::2]


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
    or "self-dual"; every member passes for COMPLEX."""
    for r, M in enumerate(mats, 1):
        if not is_tau_fixed(M, symmetry):
            label = "self-dual" if symmetry is SymmetryClass.SELF_DUAL else "complex symmetric"
            raise error(f"{prefix}{r} is not {label}{why}")


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
    Am, Bm = as_squares((A, B), "block ")
    return np.block([[Am, Bm], [-Bm.conj(), Am.conj()]])


def _size_4n(X, name: str) -> np.ndarray:
    A = as_square(X, name)
    if A.shape[0] % 4 or not A.size:
        raise BadDimension(f"size {A.shape[0]} is not a positive multiple of 4")
    return A


def sharp_sharp(X) -> np.ndarray:
    """The coupled dual on 2x2 blocks of even-size blocks:

        [[A, B], [C, D]]  ->  [[D#, -B#], [-C#, A#]]

    equivalently X -> K X^T K with K = Z_2 (x) Z_N.  An involution and
    anti-multiplicative.  Bott matrices of self-dual triples are anti-fixed
    by it (the minus sign is what makes their polar parts representatives
    of the two-torsion class).
    """
    return _k_rows(_k_rows(_size_4n(X, "X")).T)


def _phi(X, sign: int) -> np.ndarray:
    """(X + K X K + sign i (X K - K X)) / 2, conjugation by (I - sign i K)/sqrt(2).

    Built in place in a copy of X and in X K, adding each K M as its signed
    row quarters: the same operations in the same order as the expression,
    with at most two and a half n x n arrays live instead of about five."""
    q = X.shape[0] // 4
    # row quarter r of K M is s M[src]
    quarters = [(slice(r * q, (r + 1) * q), slice((3 - r) * q, (4 - r) * q), s)
                for r, s in enumerate((1, -1, -1, 1))]
    # the copy of X is allocated before X K on purpose: the other order
    # raises the extraction workload's peak RSS by 2 MB
    out = X.copy()
    XK = _k_rows(X.T).T
    for rows, src, s in quarters:  # X + K (X K)
        (np.add if s > 0 else np.subtract)(out[rows], XK[src], out=out[rows])
    for rows, src, s in quarters:  # X K - K X
        (np.subtract if s > 0 else np.add)(XK[rows], X[src], out=XK[rows])
    XK *= sign * 1j
    out += XK
    out /= 2
    return out


def phi_conjugate(X) -> np.ndarray:
    """Conjugation by the fixed unitary U = (I - i K)/sqrt(2), K = Z_2 (x) Z_N:
    a *-isomorphism carrying the coupled dual to the plain transpose,
    Phi(X##) = Phi(X)^T."""
    return _phi(_size_4n(X, "X"), 1)


def phi_inverse(Y) -> np.ndarray:
    """Inverse of :func:`phi_conjugate` (conjugation by U*)."""
    return _phi(_size_4n(Y, "Y"), -1)
