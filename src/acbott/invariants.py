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

Every index ends in one evaluation step that reads B once.  For the
complex class the eigenvalues of B give the gap and the half-signature.
For the self-dual class one Householder reduction of -i Phi(B) gives the
Pfaffian sign and a skew tridiagonal that carries the spectrum of B, hence
the gap, and one LU factorization checks the Pfaffian's modulus
independently.  Triples enter it through one
sphere-gated path (:func:`bott_index`, :func:`pf_bott_index`), unitary
pairs through one torus path (polar correction, the lift), which
:func:`compressed_index` reaches after :func:`acbott.wannier.compress_positions`.
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
    _check_real_skew,
    _hermitian_split,
    _log_abs_det,
    _pfaffian_reduction,
    _polar_svd,
    as_square,
    as_squares,
    check_tolerance,
    gapped_signature,
    max_norm,
    norm_exceeds,
)
from .relations import _sphere_terms, _torus2_terms
from .symmetry import SymmetryClass, phi_conjugate, require_tau_fixed, symmetrize
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
    as it is.  Shapes must agree.
    """
    A, Bm, C = (_hermitian_split(H)[0] for H in as_squares((H1, H2, H3), "H"))
    return np.block([[C, A + 1j * Bm], [A - 1j * Bm, -C]])


def _evaluate(Hs, symmetry: SymmetryClass, gap_tol: float) -> tuple[int, float, dict]:
    """Value, gap and details of the doubled matrix B of a triple.

    COMPLEX: the eigenvalues w of B certify the gap and give the
    half-signature.  SELF_DUAL: B is read once more, as R = -i Phi(B), real
    skew to 1e-8 * max(1, ||R||) (||R|| = ||B||).  One Householder reduction
    of R gives the Pfaffian sign and a skew tridiagonal with superdiagonal
    e; B = i Phi^-1(R) has the spectrum of tridiag(0, |e|), whose
    eigenvalues, O(k^2), certify the gap.  B |B|^(-t), 0 <= t <= 1, is
    invertible and self-dual, so the sign is that of polar(B).  One LU of R
    is the independent check: log |Pf R| must equal log |det R| / 2 to
    LOGDET_DEFECT_GATE (NoConvergence otherwise)."""
    B = bott_matrix(*Hs)
    if symmetry is not SymmetryClass.SELF_DUAL:
        try:
            w = np.linalg.eigvalsh(B)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK stall
            raise NoConvergence(str(exc)) from exc
        return (*gapped_signature(w, gap_tol), {})
    R = _check_real_skew(-1j * phi_conjugate(B), 1e-8)
    log_det = _log_abs_det(R)
    sign, log_abs, e = _pfaffian_reduction(R)
    _, gap = gapped_signature(eigvalsh_tridiagonal(np.zeros(e.size + 1), np.abs(e)), gap_tol)
    if gap < DEFAULT_SIGMA_MIN_TOL:
        raise NearSingular(f"Bott matrix gap {gap:.3e} < {DEFAULT_SIGMA_MIN_TOL:.3e}")
    defect = abs(log_abs - log_det / 2)
    if not defect <= LOGDET_DEFECT_GATE:
        raise NoConvergence(f"log |Pf| defect {defect:.3e} > {LOGDET_DEFECT_GATE:.1e}")
    return int(sign) * (-1) ** (B.shape[0] // 4), gap, {"pfaffian": sign, "logdet_defect": defect}


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
    return _report(t0, _evaluate(Hs, symmetry, gap_tol), delta, symmetry)


def bott_index(H1, H2, H3, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Integer Bott index of a near-sphere triple.

    Half the signature of the doubled matrix.  Requires the sphere
    residual below 1/4 (which already guarantees invertibility) and a
    spectral gap above ``gap_tol``.
    """
    return _sphere_index(H1, H2, H3, SymmetryClass.COMPLEX, gap_tol)


def pf_bott_index(H1, H2, H3, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Pfaffian-Bott sign of a self-dual near-sphere triple.

    Pipeline: conjugate the doubled matrix B by the fixed unitary; the
    result must be purely imaginary and skew-symmetric (NotReal or NotSkew
    otherwise: the inputs were not honestly self-dual); the value is
    sign(Pf(-i Phi(B))) * (-1)^N on half-size N, so diag(I, -I) gives +1.
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
    such as a polar part, with no unitarity check."""
    S = (A2 - A2.conj().T) / 2j
    w, V = np.linalg.eigh(S)
    h = (V * np.maximum(w, 0.0)) @ V.conj().T
    M = h @ A1 + A1 @ h
    H1 = (A2 + A2.conj().T) / 2
    H2 = h - S + (M + M.conj().T) / 4
    H3 = 0.25j * (M.conj().T - M)
    return tuple((H + H.conj().T) / 2 for H in (H1, H2, H3))


def _polar_correct(U, unitary_tol: float):
    """Replace a near-unitary by its polar part, gated on the distance
    max |sigma - 1|.  Exactly singular directions (which occur for heavily
    compressed pairs, e.g. the flat zero-flux band) receive the SVD's
    deterministic unitary completion; the spectral gap of the resulting
    doubled matrix remains the certificate for anything computed from it."""
    Q, s = _polar_svd(as_square(U, "U"))
    dist = float(np.max(np.abs(s - 1.0), initial=0.0))
    if dist > unitary_tol:
        raise NotUnitary(
            f"input is {dist:.3f} from unitary, beyond {unitary_tol}"
        )
    return Q


def _torus_evaluate(U1, U2, symmetry, gap_tol, unitary_tol):
    """Polar correction, the self-dual gate (every COMPLEX pair passes it),
    the lift, then :func:`_evaluate`; returns its (value, gap, details).
    SELF_DUAL symmetrizes the lifted triple."""
    Vs = [_polar_correct(U, unitary_tol) for U in (U1, U2)]
    require_tau_fixed(Vs, symmetry, "U", NotSelfDual, " after polar correction (the input is "
                      "not self-dual, or too near singular for its polar part to stay so)")
    Hs = _lift(*Vs)  # polar parts are unitary: no check
    if symmetry is SymmetryClass.SELF_DUAL:
        Hs = [symmetrize(H, symmetry) for H in Hs]
    return _evaluate(Hs, symmetry, gap_tol)


def _torus_index(U1, U2, symmetry: SymmetryClass, gap_tol: float) -> IndexReport:
    """The tolerance check, the torus residual of the raw inputs (its delta
    alone, by :func:`acbott.matkernel.max_norm`), then :func:`_torus_evaluate`."""
    t0 = time.perf_counter()
    gap_tol = check_tolerance(gap_tol, "gap_tol")
    Us = as_squares((U1, U2), "U")
    delta, _ = max_norm(_torus2_terms(Us))
    evaluated = _torus_evaluate(*Us, symmetry, gap_tol, UNITARY_DISTANCE_TOL)
    return _report(t0, evaluated, delta, symmetry)


def bott_index_unitaries(U1, U2, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Bott index of a pair of almost commuting (near-)unitaries.

    Near-unitary inputs are replaced by their polar parts (NotUnitary
    beyond UNITARY_DISTANCE_TOL), then lifted to the sphere.  The reported residual is the torus residual of the raw
    inputs.  Unlike :func:`bott_index` there is no gate on the lifted
    triple's sphere residual: the lift inflates commutators well past 1/4
    at moderate sizes while the index stays perfectly defined, so the
    spectral gap is the certificate here.
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
    delta, and the index of U1 = X1 + i X2, U2 = X3 + i X4 after polar
    correction does not depend on the isometry choice, which ``seed`` randomizes.

    ``comm_tol`` gates max_r ||[P, X_r]||.  The default 1/8 matches the
    hypothesis under which localization is guaranteed; the index itself
    stays well defined whenever the Bott matrix keeps its spectral gap, so
    callers working with coarser lattices may relax the gate and rely on
    the reported gap certificate.  Both tolerances must be finite and
    positive (ValidationError otherwise, before any work).
    """
    t0 = time.perf_counter()
    comm_tol = check_tolerance(comm_tol, "comm_tol")
    gap_tol = check_tolerance(gap_tol, "gap_tol")
    rng = np.random.default_rng(seed)
    _, compressed, comp = compress_positions(band, X_set, rng=rng, symmetry=symmetry)
    if comp.delta >= comm_tol:
        raise CommutatorTooLarge(
            f"max ||[P, X_r]|| = {comp.delta:.4f} >= {comm_tol}"
        )
    U1 = compressed[0] + 1j * compressed[1]
    U2 = compressed[2] + 1j * compressed[3]
    # 2 delta < 1/4 bounds the unitarity defect; the polar gate follows
    unitary_tol = max(UNITARY_DISTANCE_TOL, 2.5 * comm_tol)
    evaluated = _torus_evaluate(U1, U2, symmetry, gap_tol, unitary_tol)
    return _report(t0, evaluated, comp.residual, symmetry, delta_commutator=comp.delta)
