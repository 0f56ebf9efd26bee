"""Residual evaluators for the soft sphere, torus, and disk relations.

Each evaluator measures how far a tuple is from an exact representation:
the report carries every labelled constraint residual, and delta is their
maximum, so a tuple satisfies the relation at level delta and no better.

Each relation's terms are defined once, by one private generator of
(name, matrix) pairs, Hermiticity defects first (``_sphere_terms``,
``_torus2_terms``, ``_torus4_terms``, ``_disk_terms``); a term whose
spectrum is known to be symmetric about 0 carries a third element, True.
It has two readers: the public report, which takes every term's spectral
norm, and callers that need only delta, which pass the terms to
:func:`acbott.matkernel.max_norm`: the report's delta bit for bit and its
worst term, with no solve for a term that provably cannot reach it.  The
Hermiticity defects of an exactly Hermitian tuple and the commutators of
diagonals are exact zeros, given to both as the 1-D diagonal of the zero
matrix.  1-D diagonals (lattice positions) are evaluated entrywise, in
O(n); exactly real sphere and torus4 tuples in real arithmetic
(:func:`acbott.matkernel.real_if_exact`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .matkernel import (
    _exactly_hermitian, _hermitian_mean, as_positions, as_squares, operator_norm, real_if_exact,
)
from .symmetry import _is_quaternionic, _quaternion_product


@dataclass(frozen=True)
class RelationReport:
    """delta is the max over per_term; worst_term names the maximizer."""

    relation: str
    delta: float
    worst_term: str
    per_term: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _report(relation: str, terms, more=()) -> RelationReport:
    """The full report: the spectral norm of every (name, matrix[, mark])
    term, then the (name, value) pairs of ``more``; worst_term is the first
    maximizer in that order."""
    per_term = {name: operator_norm(M) for name, M, *_ in terms}
    per_term.update(more)
    worst = max(per_term, key=per_term.get)
    return RelationReport(relation, per_term[worst], worst, per_term)


def _herm_terms(mats, names, hermitian: bool):
    """The Hermiticity defects M - M*, each exactly anti-Hermitian, and
    for an exactly Hermitian tuple exact zeros (a 1-D zero diagonal)."""
    for M, name in zip(mats, names):
        yield f"herm_{name}", np.zeros(len(M)) if hermitian else M - M.conj().T


def _comm_terms(mats, names, hermitian: bool, quaternionic: bool = False):
    """Pairwise commutators, as (name, matrix) pairs: exact zeros (a 1-D
    zero diagonal) for 1-D diagonals, which commute.  For exactly
    Hermitian inputs M_j M_i = (M_i M_j)*, so one product K gives
    [M_i, M_j] = K - K*, which is exactly anti-Hermitian.

    For ``quaternionic`` inputs (exactly Hermitian and self-dual) K is a
    :func:`acbott.symmetry._quaternion_product`, so K - K* commutes with
    time reversal T exactly; i (K - K*) is Hermitian and anticommutes with
    T, so its spectrum is symmetric about 0, and the term is marked so by a
    third element, True, for :func:`acbott.matkernel.max_norm`."""
    product = _quaternion_product if quaternionic else np.matmul
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            name = f"comm_{names[i]}{names[j]}"
            if mats[i].ndim == 1:
                yield name, np.zeros(len(mats[i]))
                continue
            K = product(mats[i], mats[j])
            C = K - (K.conj().T if hermitian else mats[j] @ mats[i])
            yield (name, C, True) if quaternionic else (name, C)


def _sum_of_squares(mats, hermitian: bool, quaternionic: bool = False) -> np.ndarray:
    """sum_r M_r^2 - I, entrywise for 1-D diagonals; for matrices its
    Hermitian part when every input is exactly Hermitian (the sum is then
    Hermitian up to rounding), each square a
    :func:`acbott.symmetry._quaternion_product` for ``quaternionic`` input."""
    if mats[0].ndim == 1:
        return sum(M * M for M in mats) - 1.0
    product = _quaternion_product if quaternionic else np.matmul
    E = sum(product(M, M) for M in mats) - np.eye(len(mats[0]))
    return _hermitian_mean(E) if hermitian else E


def _sphere_terms(Hs):
    """The sphere relation's terms for checked Hs, each built when it is
    reached: the Hermiticity defects, the commutators, then the sphere
    equation."""
    Hs = real_if_exact(Hs)
    hermitian = all(map(_exactly_hermitian, Hs))
    yield from _herm_terms(Hs, "123", hermitian)
    yield from _comm_terms(Hs, "123", hermitian)
    yield "sphere_eq", _sum_of_squares(Hs, hermitian)


def _torus2_terms(Us):
    """The two-unitary torus terms for checked Us: the unitarity defects
    U*U - I, as their Hermitian parts (U*U is Hermitian for every U), then
    the commutator."""
    eye = np.eye(len(Us[0]))
    for r, U in enumerate(Us, 1):
        yield f"unitary_{r}", _hermitian_mean(U.conj().T @ U - eye)
    yield from _comm_terms(Us, "12", False)


def _torus4_terms(Xs):
    """The four-Hermitian torus terms for positions checked by
    :func:`acbott.matkernel.as_positions`, each built when it is reached:
    the Hermiticity defects, the commutators, then the two circle
    equations.  An exactly Hermitian and exactly self-dual matrix tuple
    (the Kramers compression of :mod:`acbott.wannier`; an O(n^2) test)
    forms its ten products at half width, as :func:`_comm_terms` says."""
    Xs = real_if_exact(Xs)
    hermitian = all(map(_exactly_hermitian, Xs))
    quaternionic = hermitian and Xs[0].ndim == 2 and all(map(_is_quaternionic, Xs))
    yield from _herm_terms(Xs, "1234", hermitian)
    yield from _comm_terms(Xs, "1234", hermitian, quaternionic)
    yield "circle_12", _sum_of_squares(Xs[:2], hermitian, quaternionic)
    yield "circle_34", _sum_of_squares(Xs[2:], hermitian, quaternionic)


def _disk_terms(Xs):
    """The disk relation's matrix terms for checked positions: the
    Hermiticity defects, then the commutator."""
    hermitian = all(map(_exactly_hermitian, Xs))
    yield from _herm_terms(Xs, "12", hermitian)
    yield from _comm_terms(Xs, "12", hermitian)


def sphere_residual(H1, H2, H3) -> RelationReport:
    """Smallest delta for which (H1, H2, H3) satisfies the soft sphere
    relations: Hermitian, pairwise commutators <= delta, and
    ||H1^2 + H2^2 + H3^2 - I|| <= delta."""
    return _report("Sphere", _sphere_terms(as_squares((H1, H2, H3), "H")))


def torus2_residual(U1, U2) -> RelationReport:
    """Smallest delta for the two-unitary torus relations: unitarity
    residuals and the commutator norm."""
    return _report("Torus2", _torus2_terms(as_squares((U1, U2), "U")))


def torus4_residual(X1, X2, X3, X4) -> RelationReport:
    """Smallest delta for the four-Hermitian torus relations: Hermitianity,
    all pairwise commutators, and the two circle equations
    X1^2 + X2^2 = I and X3^2 + X4^2 = I.

    Each X_r is an n x n matrix or the 1-D array of a diagonal one.
    Diagonal tuples (the lattice position matrices, 1-D or exactly
    diagonal) are evaluated entrywise, in O(n), by the same terms as dense
    ones: the Hermiticity defects are 2i Im X_r, the commutators exact
    zeros.  Exactly Hermitian tuples (compressed positions) have exact-zero
    Hermiticity terms and take one Hermitian eigenvalue solve per remaining
    term; every term is reported.  An exactly real tuple is evaluated in
    real arithmetic, as for :func:`sphere_residual`.
    """
    return _report("Torus4", _torus4_terms(as_positions((X1, X2, X3, X4))))


def disk_residual(X1, X2) -> RelationReport:
    """Smallest delta for the disk relations: Hermitian contractions with a
    small commutator.  Norm excess enters as max(0, ||X_r|| - 1).  A 1-D
    X_r stands for the diagonal matrix it lists; when both are diagonal
    (1-D or exactly diagonal) the pair is evaluated entrywise, in O(n), and
    its commutator is an exact zero, as for :func:`torus4_residual`."""
    Xs = as_positions((X1, X2))
    contraction = ((f"contraction_{r}", max(0.0, operator_norm(X) - 1.0))
                   for r, X in enumerate(Xs, 1))
    return _report("Disk", _disk_terms(Xs), contraction)
