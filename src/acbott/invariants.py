"""The Bott index, the Pfaffian-Bott index, and their torus and
band-projected variants.

For a near-sphere triple (H1, H2, H3) the doubled matrix

    B = [[H3, H1 + i H2], [H1 - i H2, -H3]]

is Hermitian, and invertible when the sphere residual stays below 1/4.
Half its signature is the integer obstruction to approximating the triple
by a commuting one.  For self-dual triples the signature always vanishes,
and the surviving invariant is a sign: conjugate B (or polar(B), of the
same sign) by the fixed unitary of :mod:`acbott.symmetry`, obtain a purely
imaginary skew-symmetric matrix, and read off the sign of its Pfaffian.
The sign convention is anchored so the trivial representative diag(I, -I)
maps to +1 and the standard shift/clock pair has Bott index +1.

Unitary pairs enter through a degree-one torus-to-sphere lift driven by
three circle functions f, g, h with f^2 + g^2 + h^2 = 1 and g h = 0:
f(t) = cos t, h(t) = max(sin t, 0) and g = h - sin t.  For these, f(U2)
is the Hermitian part of U2 and h(U2) the positive part of Im U2, so the
lift takes one eigendecomposition (of Im U2) and no eigen-angles.

Every index ends in one evaluation step that reads B once
(:func:`_evaluate`).  Triples enter it through one sphere-gated path
(:func:`bott_index`, :func:`pf_bott_index`), unitary pairs through one
torus path (the self-dual gate, the lift) behind their caller's polar
gate: UNITARY_DISTANCE_TOL for a raw pair, none for the contraction that
:func:`compressed_index` compresses.

Each stage of the torus path holds only what the next one reads, k x k
complex for a compressed pair of size k: the pair U1, U2 (W and the
compressed tuple are dropped once it exists), then the polar parts, each
replacing its U, then the lifted triple, then B (2k x 2k, the triple
dropped), then Im Phi(B) (2k x 2k real, B dropped) and R, its skew part,
with one copy for the LU.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .errors import (
    CommutatorTooLarge,
    NearSingular,
    NoConvergence,
    NotSelfDual,
    NotUnitary,
    ResidualTooLarge,
)
from .matkernel import (
    DEFAULT_GAP_TOL,
    DEFAULT_SIGMA_MIN_TOL,
    _check_integer,
    _exactly_hermitian,
    _hermitian_mean,
    _pfaffian_reduction,
    _polar_svd,
    _skew_part,
    as_squares,
    check_tolerance,
    gapped_signature,
    max_norm,
    norm_exceeds,
)
from .relations import _sphere_terms, _torus2_terms
from .symmetry import SymmetryClass, _im_phi, require_tau_fixed
from .wannier import compress_positions

RESIDUAL_GATE = 0.25
COMMUTATOR_GATE = 0.125
UNITARY_DISTANCE_TOL = 0.1
LOGDET_DEFECT_GATE = 1e-6


@dataclass(frozen=True)
class IndexReport:
    """Computed invariant plus its certificates.

    value: the integer (Bott) or +-1 (Pfaffian-Bott).
    gap: smallest |eigenvalue| of the doubled matrix, the spectral
    certificate that the index is well defined.
    input_residual: the relation residual of the inputs.
    symmetry: which class the computation respected.
    """

    value: int
    gap: float
    input_residual: float
    symmetry: SymmetryClass
    seconds: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "gap": self.gap,
            "input_residual": self.input_residual,
            "class": self.symmetry.value,
            "seconds": self.seconds,
            **self.details,
        }


def bott_matrix(H1, H2, H3) -> np.ndarray:
    """The doubled Hermitian matrix B(H1, H2, H3).

    Equal to sum_r H_r (x) sigma_r for the three Pauli matrices in the
    fixed block convention.  Inputs are symmetrized Hermitian; an exactly
    Hermitian member, whose Hermitian part is itself bit for bit, is taken
    as it is.  Shapes must agree.  The four blocks are written into the
    one result, bit for bit (signed zeros included) the
    ``np.block([[C, A + 1j B], [A - 1j B, -C]])`` of the Hermitian parts
    A, B, C, with no block-size temporary.
    """
    A, Bm, C = (H if _exactly_hermitian(H) else _hermitian_mean(H)
                for H in as_squares((H1, H2, H3), "H"))
    k = C.shape[0]
    B = np.empty((2 * k, 2 * k), dtype=complex)
    lo, hi = slice(0, k), slice(k, None)
    B[lo, lo] = C
    np.negative(C, out=B[hi, hi])
    for block, combine in ((B[lo, hi], np.add), (B[hi, lo], np.subtract)):
        np.multiply(1j, Bm, out=block)
        combine(A, block, out=block)
    return B


def _evaluate(B, symmetry: SymmetryClass, gap_tol: float) -> tuple[int, float, dict]:
    """Value, gap and details of a doubled matrix B (:func:`bott_matrix`).

    Each array is let go once the next exists: B once Im Phi(B) does
    (freed when the caller passed it on, as ``_evaluate(bott_matrix(...))``
    does on CPython 3.11 and later), and that once R does; R and the LU's
    copy of it are the last two, real, 2k x 2k.

    COMPLEX: the eigenvalues w of B certify the gap and give the
    half-signature.  SELF_DUAL: B is read once more, as R = -i Phi(B), the
    skew part of Im Phi(B) (:func:`acbott.symmetry._im_phi`, with no
    complex copy), as the twisted witness reads Phi(S).  The
    caller's tau gate is the one check: B(H#) = -B(H)## and Phi turns ##
    into the transpose, so R's defect is the triple's.  One Householder
    reduction of R gives the Pfaffian sign and a skew tridiagonal with
    superdiagonal e; B = i Phi^-1(R) has the spectrum of tridiag(0, |e|),
    whose eigenvalues, O(k^2), certify the gap.  B |B|^(-t), 0 <= t <= 1, is
    invertible and self-dual, so the sign is that of polar(B).  One LU of R
    (np.linalg.slogdet) is the independent check: log |Pf R| must equal
    log |det R| / 2 to LOGDET_DEFECT_GATE (NoConvergence otherwise)."""
    if symmetry is not SymmetryClass.SELF_DUAL:
        try:
            w = np.linalg.eigvalsh(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK stall
            raise NoConvergence(str(exc)) from exc
        return (*gapped_signature(w, gap_tol), {})
    X = _im_phi(B)
    del B
    R = _skew_part(X)
    del X
    log_det = float(np.linalg.slogdet(R)[1])
    sign, log_abs, e = _pfaffian_reduction(R)
    _, gap = gapped_signature(eigvalsh_tridiagonal(np.zeros(e.size + 1), np.abs(e)), gap_tol)
    if gap < DEFAULT_SIGMA_MIN_TOL:
        raise NearSingular(f"Bott matrix gap {gap:.3e} < {DEFAULT_SIGMA_MIN_TOL:.3e}")
    defect = abs(log_abs - log_det / 2)
    if not defect <= LOGDET_DEFECT_GATE:
        raise NoConvergence(f"log |Pf| defect {defect:.3e} > {LOGDET_DEFECT_GATE:.1e}")
    return int(sign) * (-1) ** (R.shape[0] // 4), gap, {"pfaffian": sign, "logdet_defect": defect}


def _report(t0, evaluated, input_residual, symmetry, **details) -> IndexReport:
    value, gap, more = evaluated
    return IndexReport(
        value=value,
        gap=gap,
        input_residual=input_residual,
        symmetry=symmetry,
        seconds=time.perf_counter() - t0,
        details={**details, **more},
    )


def _sphere_index(H1, H2, H3, symmetry: SymmetryClass, gap_tol: float) -> IndexReport:
    """The self-dual gate (every COMPLEX triple passes it), the sphere
    residual gate, then :func:`_evaluate`."""
    t0 = time.perf_counter()
    gap_tol = check_tolerance(gap_tol, "gap_tol")
    Hs = as_squares((H1, H2, H3), "H")
    require_tau_fixed(Hs, symmetry, "H", NotSelfDual)
    delta, worst = max_norm(_sphere_terms(Hs))
    if delta >= RESIDUAL_GATE:
        raise ResidualTooLarge(f"sphere residual {delta:.3f} >= {RESIDUAL_GATE} ({worst})")
    return _report(t0, _evaluate(bott_matrix(*Hs), symmetry, gap_tol), delta, symmetry)


def bott_index(H1, H2, H3, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Integer Bott index of a near-sphere triple.

    Half the signature of the doubled matrix.  Requires the sphere
    residual below 1/4 (which already guarantees invertibility) and a
    spectral gap above ``gap_tol``.
    """
    return _sphere_index(H1, H2, H3, SymmetryClass.COMPLEX, gap_tol)


def pf_bott_index(H1, H2, H3, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Pfaffian-Bott sign of a self-dual near-sphere triple.

    Pipeline: the self-duality gate on each H_r (NotSelfDual names the
    first member that fails), the sphere residual gate, then the doubled
    matrix B conjugated by the fixed unitary, read as the real skew
    R = -i Phi(B) (the skew part of Im Phi(B)); the value is
    sign(Pf R) * (-1)^N on half-size N, so diag(I, -I) gives +1.
    """
    return _sphere_index(H1, H2, H3, SymmetryClass.SELF_DUAL, gap_tol)


def torus_to_sphere(U1, U2):
    """Lift a pair of (near-)commuting unitaries to a near-sphere triple.

        H1 = f(U2)
        H2 = g(U2) + {h(U2), U1*}/4 + {h(U2), U1}/4
        H3 = i {h(U2), U1*}/4 - i {h(U2), U1}/4

    for f(t) = cos t, h(t) = max(sin t, 0) and g(t) = h(t) - sin t, so
    f^2 + g^2 + h^2 = 1 and g h = 0.  In closed form f(U2) = Re U2, and with
    S = Im U2 = (U2 - U2*)/2i, h(U2) = max(S, 0) from one eigendecomposition
    of S and g(U2) = h(U2) - S.  Since h(U2) is Hermitian, M = h U1 + U1 h
    gives both anticommutators, {h(U2), U1*} = M*.  The anticommutators make
    transpose or dual symmetry of the U_r carry over to the H_r.  U2 must be
    unitary to 1e-8 (use the polar part first for approximately unitary
    input).
    """
    A1, A2 = as_squares((U1, U2), "U")
    n = A2.shape[0]
    if norm_exceeds(A2.conj().T @ A2 - np.eye(n), 1e-8):
        raise NotUnitary("U2 is not unitary to 1e-8")
    return _lift(A1, A2)


def _lift(A1, A2):
    """The triple of :func:`torus_to_sphere` for checked A1 and a unitary A2,
    such as a polar part, with no unitarity check.  Each input and
    intermediate is dropped after its last read, so inputs the caller hands
    over are freed here, and each H is made Hermitian in place."""
    S = A2 - A2.conj().T
    S /= 2j
    H1 = A2 + A2.conj().T
    H1 /= 2
    del A2
    w, V = np.linalg.eigh(S)
    h = (V * np.maximum(w, 0.0)) @ V.conj().T
    del w, V
    M = h @ A1
    M += A1 @ h
    del A1
    H2 = h - S
    del h, S
    E = M + M.conj().T
    E /= 4
    H2 += E
    del E
    H3 = M.conj().T - M
    del M
    H3 *= 0.25j
    for H in (H1, H2, H3):  # (H + H*)/2: H* is a copy, so H is overwritten safely
        H += H.conj().T
        H /= 2
    return H1, H2, H3


def _polar_correct(U):
    """The polar part of a raw near-unitary, gated on the distance
    max |sigma - 1| <= UNITARY_DISTANCE_TOL (NotUnitary beyond it)."""
    Q, s = _polar_svd(U)
    dist = float(np.max(np.abs(s - 1.0), initial=0.0))
    if dist > UNITARY_DISTANCE_TOL:
        raise NotUnitary(f"input is {dist:.3f} from unitary, beyond {UNITARY_DISTANCE_TOL}")
    return Q


def _torus_evaluate(Us: list, symmetry, gap_tol):
    """The self-dual gate on the unitaries [U1, U2] (every COMPLEX pair
    passes it; each caller states its own polar gate), the lift, then
    :func:`_evaluate`; returns its (value, gap, details).

    Takes the list over and empties it: the lift takes the unitaries out of
    it, so an array the caller holds nowhere else is freed at its last read."""
    require_tau_fixed(Us, symmetry, "U", NotSelfDual, " after polar correction (the input is "
                      "not {label}, or too near singular for its polar part to stay so)")
    # unitary: no check; popped, they live in the lift's frame only
    return _evaluate(bott_matrix(*_lift(Us.pop(0), Us.pop())), symmetry, gap_tol)


def _torus_index(U1, U2, symmetry: SymmetryClass, gap_tol: float) -> IndexReport:
    """The tolerance check, the raw inputs' torus residual (its delta alone,
    by max_norm), :func:`_polar_correct`, then :func:`_torus_evaluate`."""
    t0 = time.perf_counter()
    gap_tol = check_tolerance(gap_tol, "gap_tol")
    Us = as_squares((U1, U2), "U")
    delta, _ = max_norm(_torus2_terms(Us))
    evaluated = _torus_evaluate([_polar_correct(U) for U in Us], symmetry, gap_tol)
    return _report(t0, evaluated, delta, symmetry)


def bott_index_unitaries(U1, U2, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Bott index of a pair of almost commuting (near-)unitaries.

    Near-unitary inputs are replaced by their polar parts (NotUnitary
    beyond UNITARY_DISTANCE_TOL), then lifted to the sphere.  The reported
    residual is the torus residual of the raw inputs.  Unlike
    :func:`bott_index` there is no gate on the lifted triple's sphere
    residual: the lift inflates commutators well past 1/4 at moderate sizes
    while the index stays perfectly defined, so the spectral gap is the
    certificate here.
    """
    return _torus_index(U1, U2, SymmetryClass.COMPLEX, gap_tol)


def pf_bott_unitaries(U1, U2, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Pfaffian-Bott sign of a pair of self-dual almost commuting
    (near-)unitaries: polar correction, the lift, then the Pfaffian sign
    of the conjugated doubled matrix.  Gap-certified rather than
    residual-gated, as in :func:`bott_index_unitaries`."""
    return _torus_index(U1, U2, SymmetryClass.SELF_DUAL, gap_tol)


def compressed_index(
    band,
    X_set,
    symmetry: SymmetryClass = SymmetryClass.COMPLEX,
    gap_tol: float = DEFAULT_GAP_TOL,
    comm_tol: float = COMMUTATOR_GATE,
    seed: int = 0,
) -> IndexReport:
    """Index of a band-projected exact torus representation.

    ``band`` is the projection P (n x n) or an isometry W onto its range
    (n x k, k < n): :func:`acbott.wannier.compress_positions` builds a
    class-respecting W from P, or turns W by a seeded Haar unitary.  Then
    X_r -> W* X_r W is a soft-torus representation at twice the commutator
    delta, and the index of the polar parts of U1 = W*(X1 + i X2)W and
    U2 = W*(X3 + i X4)W does not depend on the isometry choice, which
    ``seed`` randomizes.

    As X + iY is unitary, I - U_r* U_r is the Gram matrix of
    (I - P)(X + iY)W: U_r is a contraction within (2 delta)^2 of unitary,
    so it has no distance gate, only the polar part of one SVD.  At delta
    >= 1/2 (a metal, such as the flux-0 Fermi sea) U_r can be singular, and
    the SVD's unitary completion need not keep a symmetry: SYMMETRIC and
    SELF_DUAL raise NearSingular below DEFAULT_SIGMA_MIN_TOL; COMPLEX keeps
    the completion, which the doubled matrix's gap certifies.

    ``comm_tol`` gates max_r ||[P, X_r]||; its default 1/8 is the
    localization hypothesis, and coarser lattices may relax it and rely on
    the gap certificate.  Both tolerances must be finite and positive, and
    the seed an integer >= 0 (ValidationError otherwise, before any work).
    """
    t0 = time.perf_counter()
    comm_tol = check_tolerance(comm_tol, "comm_tol")
    gap_tol = check_tolerance(gap_tol, "gap_tol")
    rng = np.random.default_rng(_check_integer(seed, "seed"))
    # W is not read here, so it is not kept
    compressed, comp = compress_positions(band, X_set, rng=rng, symmetry=symmetry)[1:]
    if comp.delta >= comm_tol:
        raise CommutatorTooLarge(f"max ||[P, X_r]|| = {comp.delta:.4f} >= {comm_tol}")
    Us = [compressed[0] + 1j * compressed[1], compressed[2] + 1j * compressed[3]]
    del compressed
    for r in range(len(Us)):
        Us[r], s = _polar_svd(Us[r])
        if symmetry is not SymmetryClass.COMPLEX and s[-1] < DEFAULT_SIGMA_MIN_TOL:
            raise NearSingular(f"compressed U{r + 1} has sigma_min {s[-1]:.3e} < "
                               f"{DEFAULT_SIGMA_MIN_TOL:.0e} at delta {comp.delta:.4f}")
    evaluated = _torus_evaluate(Us, symmetry, gap_tol)
    return _report(t0, evaluated, comp.residual, symmetry, delta_commutator=comp.delta)
