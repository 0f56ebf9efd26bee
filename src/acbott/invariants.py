"""The Bott index, the Pfaffian-Bott index, and their torus and
band-projected variants.

For a near-sphere triple (H1, H2, H3) the doubled matrix

    B = [[H3, H1 + i H2], [H1 - i H2, -H3]]

is Hermitian, and invertible when the sphere residual stays below 1/4.
Half its signature is the integer obstruction to approximating the triple
by a commuting one.  For self-dual triples the signature always vanishes,
and the surviving invariant is a sign: conjugate polar(B) by the fixed
unitary of :mod:`acbott.symmetry`, obtain a purely imaginary
skew-symmetric matrix, and read off the sign of its Pfaffian.  The sign
convention is anchored so the trivial representative diag(I, -I) maps to
+1 and the standard shift/clock pair of unitaries has Bott index +1.

Unitary pairs enter through a degree-one torus-to-sphere lift driven by
three circle functions f, g, h with f^2 + g^2 + h^2 = 1 and g h = 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CommutatorTooLarge,
    NearSingular,
    NotSelfDual,
    NotUnitary,
    ResidualTooLarge,
    ShapeMismatch,
)
from .matkernel import (
    DEFAULT_GAP_TOL,
    DEFAULT_SIGMA_MIN_TOL,
    as_square,
    gapped_signature,
    herm_eig,
    is_diagonal,
    norm_exceeds,
    pfaffian_real_skew,
    refine_clusters,
)
from .relations import sphere_residual, torus2_residual, torus4_residual
from .symmetry import SymmetryClass, is_tau_fixed, phi_conjugate, symmetrize
from .wannier import projection_isometry

RESIDUAL_GATE = 0.25
COMMUTATOR_GATE = 0.125
UNITARY_DISTANCE_TOL = 0.1


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
            **{k: v for k, v in self.details.items()},
        }


@dataclass(frozen=True)
class CircleFunctions:
    """Real functions on the circle with f^2 + g^2 + h^2 = 1 and g h = 0.

    Vectorized over angle arrays.  The pair condition g h = 0 is what makes
    the lifted triple satisfy the sphere equation up to commutators.
    """

    f: callable
    g: callable
    h: callable

    def validate(self, grid_points: int = 4096, tol: float = 1e-12) -> None:
        theta = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
        f, g, h = self.f(theta), self.g(theta), self.h(theta)
        unit = np.max(np.abs(f * f + g * g + h * h - 1.0))
        prod = np.max(np.abs(g * h))
        if unit > tol or prod > tol:
            raise ValueError(
                f"invalid circle functions: |f^2+g^2+h^2-1|={unit:.2e}, |gh|={prod:.2e}"
            )


def default_circle_functions() -> CircleFunctions:
    """The concrete piecewise choice:

        f(t) = cos t everywhere,
        h(t) = sin t on [0, pi] and 0 after,
        g(t) = 0 on [0, pi] and -sin t (>= 0) after.

    Continuous across the branch cut at t = 0 where g and h both vanish.
    Degree one is not computed directly; it is pinned by the shift/clock
    acceptance value.
    """
    def f(theta):
        return np.cos(theta)

    def g(theta):
        th = np.mod(theta, 2 * np.pi)
        return np.where(th > np.pi, -np.sin(th), 0.0)

    def h(theta):
        th = np.mod(theta, 2 * np.pi)
        return np.where(th <= np.pi, np.sin(th), 0.0)

    return CircleFunctions(f=f, g=g, h=h)


def bott_matrix(H1, H2, H3) -> np.ndarray:
    """The doubled Hermitian matrix B(H1, H2, H3).

    Equal to sum_r H_r (x) sigma_r for the three Pauli matrices in the
    fixed block convention.  Inputs are symmetrized Hermitian; shapes must
    agree.
    """
    Hs = [as_square(H, f"H{r + 1}") for r, H in enumerate((H1, H2, H3))]
    if len({H.shape for H in Hs}) > 1:
        raise ShapeMismatch("triple has mismatched sizes")
    A, Bm, C = ((H + H.conj().T) / 2 for H in Hs)
    return np.block([[C, A + 1j * Bm], [A - 1j * Bm, -C]])


def bott_index(H1, H2, H3, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Integer Bott index of a near-sphere triple.

    Half the signature of the doubled matrix.  Requires the sphere
    residual below 1/4 (which already guarantees invertibility) and a
    spectral gap above ``gap_tol``.
    """
    t0 = time.perf_counter()
    rel = sphere_residual(H1, H2, H3)
    if rel.delta >= RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"sphere residual {rel.delta:.3f} >= {RESIDUAL_GATE} ({rel.worst_term})"
        )
    B = bott_matrix(H1, H2, H3)
    value, gap = gapped_signature(herm_eig(B).eigenvalues, gap_tol)
    return IndexReport(
        value=value,
        gap=gap,
        input_residual=rel.delta,
        symmetry=SymmetryClass.COMPLEX,
        seconds=time.perf_counter() - t0,
    )


def _pf_bott_core(Hs, gap_tol: float) -> tuple[int, float, float]:
    """Sign, gap, and raw Pfaffian of the conjugated polar part.

    One eigendecomposition B = V diag(w) V* certifies the gap and gives
    both the polar part V sign(w) V* and the scale ||B|| = max |w|.
    """
    B = bott_matrix(*Hs)
    dec = herm_eig(B)
    w, V = dec.eigenvalues, dec.vectors
    _, gap = gapped_signature(w, gap_tol)
    if gap < DEFAULT_SIGMA_MIN_TOL:
        raise NearSingular(f"Bott matrix gap {gap:.3e} < {DEFAULT_SIGMA_MIN_TOL:.3e}")
    S = (V * np.sign(w)) @ V.conj().T
    S = (S + S.conj().T) / 2
    scale = max(1.0, float(np.abs(w).max()))
    pf = pfaffian_real_skew(-1j * phi_conjugate(S), tol=1e-8 * scale)
    half_size = B.shape[0] // 4
    return int(np.sign(pf)) * (-1) ** half_size, gap, float(pf)


def pf_bott_index(H1, H2, H3, gap_tol: float = DEFAULT_GAP_TOL) -> IndexReport:
    """Pfaffian-Bott sign of a self-dual near-sphere triple.

    Pipeline: S = polar(B); conjugate by the fixed unitary; the result must
    be purely imaginary and skew-symmetric (raises NotReal or NotSkew if
    not, which would indicate the inputs were not honestly self-dual); the
    value is sign(Pf(-i Phi(S))) * (-1)^N on half-size N, normalizing the
    trivial representative diag(I, -I) to +1.
    """
    t0 = time.perf_counter()
    Hs = [as_square(H, f"H{r + 1}") for r, H in enumerate((H1, H2, H3))]
    for r, H in enumerate(Hs):
        if not is_tau_fixed(H, SymmetryClass.SELF_DUAL):
            raise NotSelfDual(f"H{r + 1} is not self-dual")
    rel = sphere_residual(*Hs)
    if rel.delta >= RESIDUAL_GATE:
        raise ResidualTooLarge(
            f"sphere residual {rel.delta:.3f} >= {RESIDUAL_GATE} ({rel.worst_term})"
        )
    value, gap, pf = _pf_bott_core(Hs, gap_tol)
    return IndexReport(
        value=value,
        gap=gap,
        input_residual=rel.delta,
        symmetry=SymmetryClass.SELF_DUAL,
        seconds=time.perf_counter() - t0,
        details={"pfaffian": pf},
    )


def torus_to_sphere(U1, U2, fns: CircleFunctions | None = None):
    """Lift a pair of (near-)commuting unitaries to a near-sphere triple.

        H1 = f(U2)
        H2 = g(U2) + {h(U2), U1*}/4 + {h(U2), U1}/4
        H3 = i {h(U2), U1*}/4 - i {h(U2), U1}/4

    The anticommutators make transpose or dual symmetry of the U_r carry
    over to the H_r.  U2 must be unitary to 1e-8 (use the polar part
    first for approximately unitary input).
    """
    A1 = as_square(U1, "U1")
    A2 = as_square(U2, "U2")
    if A1.shape != A2.shape:
        raise ShapeMismatch("pair has mismatched sizes")
    n = A2.shape[0]
    if norm_exceeds(A2.conj().T @ A2 - np.eye(n), 1e-8):
        raise NotUnitary("U2 is not unitary to 1e-8")
    if fns is None:
        fns = default_circle_functions()
    # joint eigenbasis of U2: its Hermitian part, with eigenvalue clusters
    # split by the skew part; theta = arg diag(Q* U2 Q) lives in [0, 2 pi)
    w, Q = np.linalg.eigh((A2 + A2.conj().T) / 2)
    Q = refine_clusters(Q, w, [(A2 - A2.conj().T) / 2j], 1e-8)
    theta = np.mod(np.angle(np.sum(Q.conj() * (A2 @ Q), axis=0)), 2 * np.pi)
    fm = (Q * fns.f(theta)) @ Q.conj().T
    gm = (Q * fns.g(theta)) @ Q.conj().T
    hm = (Q * fns.h(theta)) @ Q.conj().T

    def anti(X, Y):
        return X @ Y + Y @ X

    H1 = fm
    H2 = gm + 0.25 * anti(hm, A1.conj().T) + 0.25 * anti(hm, A1)
    H3 = 0.25j * anti(hm, A1.conj().T) - 0.25j * anti(hm, A1)
    return (
        (H1 + H1.conj().T) / 2,
        (H2 + H2.conj().T) / 2,
        (H3 + H3.conj().T) / 2,
    )


def _polar_correct(U, unitary_tol: float):
    """Replace a near-unitary by its polar part, gated on the distance
    max |sigma - 1|.  Exactly singular directions (which occur for heavily
    compressed pairs, e.g. the flat zero-flux band) receive the SVD's
    deterministic unitary completion; the spectral gap of the resulting
    doubled matrix remains the certificate for anything computed from it."""
    A = as_square(U, "U")
    u, s, vh = np.linalg.svd(A)
    dist = float(np.max(np.abs(s - 1.0), initial=0.0))
    if dist > unitary_tol:
        raise NotUnitary(
            f"input is {dist:.3f} from unitary, beyond {unitary_tol}"
        )
    return u @ vh


def bott_index_unitaries(
    U1,
    U2,
    fns: CircleFunctions | None = None,
    gap_tol: float = DEFAULT_GAP_TOL,
    unitary_tol: float = UNITARY_DISTANCE_TOL,
) -> IndexReport:
    """Bott index of a pair of almost commuting (near-)unitaries.

    Near-unitary inputs are replaced by their polar parts, then lifted to
    the sphere.  The reported residual is the torus residual of the raw
    inputs.  Unlike :func:`bott_index` there is no gate on the lifted
    triple's sphere residual: the lift inflates commutators well past 1/4
    at moderate sizes while the index stays perfectly defined, so the
    spectral gap is the certificate here.
    """
    t0 = time.perf_counter()
    rel = torus2_residual(U1, U2)
    V1 = _polar_correct(U1, unitary_tol)
    V2 = _polar_correct(U2, unitary_tol)
    H1, H2, H3 = torus_to_sphere(V1, V2, fns)
    B = bott_matrix(H1, H2, H3)
    value, gap = gapped_signature(herm_eig(B).eigenvalues, gap_tol)
    return IndexReport(
        value=value,
        gap=gap,
        input_residual=rel.delta,
        symmetry=SymmetryClass.COMPLEX,
        seconds=time.perf_counter() - t0,
    )


def pf_bott_unitaries(
    U1,
    U2,
    fns: CircleFunctions | None = None,
    gap_tol: float = DEFAULT_GAP_TOL,
    unitary_tol: float = UNITARY_DISTANCE_TOL,
) -> IndexReport:
    """Pfaffian-Bott sign of a pair of self-dual almost commuting
    (near-)unitaries: polar correction, the lift, then the Pfaffian of the
    conjugated polar part.  Gap-certified rather than residual-gated, as
    in :func:`bott_index_unitaries`."""
    t0 = time.perf_counter()
    rel = torus2_residual(U1, U2)
    V1 = _polar_correct(U1, unitary_tol)
    V2 = _polar_correct(U2, unitary_tol)
    for r, V in enumerate((V1, V2)):
        if not is_tau_fixed(V, SymmetryClass.SELF_DUAL):
            raise NotSelfDual(
                f"U{r + 1} is not self-dual after polar correction (either the "
                "input was not self-dual, or it is too close to singular for "
                "the polar part to preserve the symmetry)"
            )
    H1, H2, H3 = torus_to_sphere(V1, V2, fns)
    Hs = [symmetrize(H, SymmetryClass.SELF_DUAL) for H in (H1, H2, H3)]
    value, gap, pf = _pf_bott_core(Hs, gap_tol)
    return IndexReport(
        value=value,
        gap=gap,
        input_residual=rel.delta,
        symmetry=SymmetryClass.SELF_DUAL,
        seconds=time.perf_counter() - t0,
        details={"pfaffian": pf},
    )


def _factored_commutator_norm(W, B) -> float:
    """||W B* - B W*|| from the QR factor of [W, B]; the nonzero spectrum
    of F J F* equals that of the small anti-Hermitian R J R*."""
    k = W.shape[1]
    F = np.concatenate([W, B], axis=1)
    R = np.linalg.qr(F, mode="r")
    RJ = np.concatenate([-R[:, k:], R[:, :k]], axis=1)
    small = 1j * (RJ @ R.conj().T)
    w = np.linalg.eigvalsh((small + small.conj().T) / 2)
    return float(np.abs(w).max(initial=0.0))


def compressed_index(
    P,
    X_set,
    symmetry: SymmetryClass = SymmetryClass.COMPLEX,
    gap_tol: float = DEFAULT_GAP_TOL,
    comm_tol: float = COMMUTATOR_GATE,
    seed: int = 0,
) -> IndexReport:
    """Index of a band-projected exact torus representation.

    Builds a class-respecting isometry W with W W* = P, compresses
    X_r -> W* X_r W (a soft-torus representation at twice the commutator
    delta), forms the pair U1 = X1 + i X2, U2 = X3 + i X4, and computes
    the matching index after polar correction.  The value does not depend
    on the isometry choice, which ``seed`` randomizes.

    ``comm_tol`` gates max_r ||[P, X_r]||.  The default 1/8 matches the
    hypothesis under which localization is guaranteed; the index itself
    stays well defined whenever the Bott matrix keeps its spectral gap, so
    callers working with coarser lattices may relax the gate and rely on
    the reported gap certificate.
    """
    t0 = time.perf_counter()
    Xs = [as_square(X, f"X{r + 1}") for r, X in enumerate(X_set)]
    if len(Xs) != 4:
        raise ShapeMismatch("expected four position matrices")
    base = torus4_residual(*Xs)
    if base.delta > 1e-8:
        raise ResidualTooLarge(
            f"positions are not an exact representation: {base.delta:.3e}"
        )
    A = as_square(P, "P")
    rng = np.random.default_rng(seed)
    W = projection_isometry(A, symmetry, rng=rng)
    # [P, X] = W B* - B W* with B = X W (X Hermitian, W W* = P up to the
    # certified projection tolerance), so its norm comes from a rank-2k
    # factor: O(n k^2) instead of dense O(n^3)
    images = [
        (np.diagonal(X)[:, None] * W) if is_diagonal(X) else (X @ W) for X in Xs
    ]
    delta = max(_factored_commutator_norm(W, B) for B in images)
    if delta >= comm_tol:
        raise CommutatorTooLarge(
            f"max ||[P, X_r]|| = {delta:.4f} >= {comm_tol}"
        )
    compressed = [W.conj().T @ B for B in images]
    comp_rel = torus4_residual(*compressed)
    U1 = compressed[0] + 1j * compressed[1]
    U2 = compressed[2] + 1j * compressed[3]
    # 2 delta < 1/4 bounds the unitarity defect; the polar gate follows
    unitary_tol = max(UNITARY_DISTANCE_TOL, 2.5 * comm_tol)
    if symmetry is SymmetryClass.SELF_DUAL:
        inner = pf_bott_unitaries(U1, U2, gap_tol=gap_tol, unitary_tol=unitary_tol)
    else:
        inner = bott_index_unitaries(U1, U2, gap_tol=gap_tol, unitary_tol=unitary_tol)
    return IndexReport(
        value=inner.value,
        gap=inner.gap,
        input_residual=comp_rel.delta,
        symmetry=symmetry,
        seconds=time.perf_counter() - t0,
        details={"delta_commutator": float(delta), **inner.details},
    )
