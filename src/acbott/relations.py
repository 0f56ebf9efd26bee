"""Residual evaluators for the soft sphere, torus, and disk relations.

Each evaluator measures how far a tuple is from an exact representation:
the report carries every labelled constraint residual, and delta is their
maximum, so a tuple satisfies the relation at level delta and no better.
A sphere triple or dense torus tuple whose members are all exactly real
is evaluated in real arithmetic (:func:`acbott.matkernel.real_if_exact`).

Callers that need only delta use the private :func:`_sphere_delta` and
:func:`_torus4_delta`, which build the same terms and take their maximum
through :func:`acbott.matkernel.max_norm`, bit for bit the public delta,
solving only the terms that might reach it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matkernel import (
    as_matrix, as_positions, as_squares, max_norm, operator_norm, real_if_exact,
)


@dataclass(frozen=True)
class RelationReport:
    """delta is the max over per_term; worst_term names the maximizer."""

    relation: str
    delta: float
    worst_term: str
    per_term: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "delta": self.delta,
            "worst_term": self.worst_term,
            "per_term": dict(self.per_term),
        }


def _build(relation: str, terms: dict[str, float]) -> RelationReport:
    worst = max(terms, key=terms.get)
    return RelationReport(
        relation=relation,
        delta=terms[worst],
        worst_term=worst,
        per_term=terms,
    )


def _exactly_hermitian(mats) -> bool:
    return all(np.array_equal(M, M.conj().T) for M in mats)


def _hermitian_part(M) -> np.ndarray:
    return (M + M.conj().T) / 2


def _norms(named) -> dict[str, float]:
    return {name: operator_norm(M) for name, M in named}


def _herm_terms(mats, names):
    # M - M* is exactly anti-Hermitian, and exactly zero for Hermitian M
    for M, name in zip(mats, names):
        yield f"herm_{name}", M - M.conj().T


def _comm_terms(mats, names, hermitian: bool):
    """Pairwise commutators, as (name, matrix) pairs.  For exactly
    Hermitian inputs M_j M_i = (M_i M_j)*, so one product K gives
    [M_i, M_j] = K - K*, which is exactly anti-Hermitian."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            K = mats[i] @ mats[j]
            yield f"comm_{names[i]}{names[j]}", K - (K.conj().T if hermitian else mats[j] @ mats[i])


def _sum_of_squares(mats, hermitian: bool) -> np.ndarray:
    """sum_r M_r^2 - I, its Hermitian part when every input is exactly
    Hermitian (the sum is then Hermitian up to rounding)."""
    E = sum(M @ M for M in mats) - np.eye(mats[0].shape[0])
    return _hermitian_part(E) if hermitian else E


def _sphere_terms(Hs):
    """The sphere relation's terms as (name, matrix) pairs, each built when
    it is reached: the commutators, the sphere equation, then the
    Hermiticity defects.  This order only names the first maximizer on a
    tie: :func:`acbott.matkernel.max_norm` holds all seven terms and visits
    them by decreasing Frobenius norm.  An exactly real triple is evaluated
    in real arithmetic."""
    Hs = real_if_exact(Hs)
    hermitian = _exactly_hermitian(Hs)
    yield from _comm_terms(Hs, "123", hermitian)
    yield "sphere_eq", _sum_of_squares(Hs, hermitian)
    yield from _herm_terms(Hs, "123")


def _sphere_delta(Hs) -> tuple[float, str]:
    """delta of :func:`sphere_residual` for checked Hs, bit for bit, and a
    term that reaches it, from :func:`acbott.matkernel.max_norm`: the
    spectral norm of a term that provably cannot beat the largest so far
    (by its Frobenius norm or a Cholesky factorization) is never computed."""
    return max_norm(_sphere_terms(Hs))


def sphere_residual(H1, H2, H3) -> RelationReport:
    """Smallest delta for which (H1, H2, H3) satisfies the soft sphere
    relations: Hermitian, pairwise commutators <= delta, and
    ||H1^2 + H2^2 + H3^2 - I|| <= delta."""
    terms = _norms(_sphere_terms(as_squares((H1, H2, H3), "H")))
    # the report lists the Hermiticity defects first, as it always has
    order = sorted(terms, key=lambda name: not name.startswith("herm_"))
    return _build("Sphere", {name: terms[name] for name in order})


def torus2_residual(U1, U2) -> RelationReport:
    """Smallest delta for the two-unitary torus relations: unitarity
    residuals and the commutator norm."""
    Us = as_squares((U1, U2), "U")
    n = Us[0].shape[0]
    terms = {  # U*U - I is Hermitian for every U
        f"unitary_{i + 1}": operator_norm(_hermitian_part(U.conj().T @ U - np.eye(n)))
        for i, U in enumerate(Us)
    }
    terms["comm_12"] = operator_norm(Us[0] @ Us[1] - Us[1] @ Us[0])
    return _build("Torus2", terms)


def _torus4_terms(Xs, hermitian: bool, herm: bool = True):
    """The terms of a dense four-tuple, as (name, matrix) pairs, each built
    when it is reached: the Hermiticity defects (only when ``herm``), the
    pairwise commutators, then the two circle equations.  An exactly real
    tuple is evaluated in real arithmetic."""
    Xs = real_if_exact(Xs)
    if herm:
        yield from _herm_terms(Xs, "1234")
    yield from _comm_terms(Xs, "1234", hermitian)
    yield "circle_12", _sum_of_squares(Xs[:2], hermitian)
    yield "circle_34", _sum_of_squares(Xs[2:], hermitian)


def _torus4_delta(Xs) -> tuple[float, str]:
    """delta of :func:`torus4_residual` for four checked n x n matrices,
    bit for bit, and a term that reaches it, from
    :func:`acbott.matkernel.max_norm`: the spectral norm of a term that
    provably cannot beat the largest so far is never computed, and the four
    Hermiticity terms of an exactly Hermitian tuple, exact zeros, are not
    built."""
    hermitian = _exactly_hermitian(Xs)
    return max_norm(_torus4_terms(Xs, hermitian, herm=not hermitian))


def torus4_residual(X1, X2, X3, X4) -> RelationReport:
    """Smallest delta for the four-Hermitian torus relations: Hermitianity,
    all pairwise commutators, and the two circle equations
    X1^2 + X2^2 = I and X3^2 + X4^2 = I.

    Each X_r is an n x n matrix or the 1-D array of a diagonal one.
    Diagonal tuples (the lattice position matrices, 1-D or exactly
    diagonal) are evaluated entrywise, which is both exact and O(n)
    instead of O(n^3).  Exactly Hermitian tuples (compressed positions)
    have zero Hermiticity terms and take one Hermitian eigenvalue solve per
    remaining term; every term is reported.  An exactly real dense tuple is
    evaluated in real arithmetic, as for :func:`sphere_residual`.
    """
    Xs = as_positions((X1, X2, X3, X4))
    if Xs[0].ndim == 1:
        terms = {
            f"herm_{i + 1}": float(2.0 * np.abs(d.imag).max(initial=0.0))
            for i, d in enumerate(Xs)
        }
        for i in range(4):
            for j in range(i + 1, 4):
                terms[f"comm_{i + 1}{j + 1}"] = 0.0
        terms["circle_12"] = float(np.abs(Xs[0] ** 2 + Xs[1] ** 2 - 1.0).max())
        terms["circle_34"] = float(np.abs(Xs[2] ** 2 + Xs[3] ** 2 - 1.0).max())
        return _build("Torus4", terms)
    return _build("Torus4", _norms(_torus4_terms(Xs, _exactly_hermitian(Xs))))


def disk_residual(X1, X2) -> RelationReport:
    """Smallest delta for the disk relations: Hermitian contractions with a
    small commutator.  Norm excess enters as max(0, ||X_r|| - 1).  A 1-D
    X_r stands for the diagonal matrix it lists."""
    Xs = as_squares((as_matrix(X1), as_matrix(X2)), "X")
    terms = _norms(_herm_terms(Xs, "12"))
    terms.update(_norms(_comm_terms(Xs, "12", _exactly_hermitian(Xs))))
    for i, X in enumerate(Xs):
        terms[f"contraction_{i + 1}"] = max(0.0, operator_norm(X) - 1.0)
    return _build("Disk", terms)
