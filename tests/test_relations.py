import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from acbott import errors, relations
from acbott.invariants import torus_to_sphere
from acbott.matkernel import as_positions, as_squares, max_norm
from acbott.models import LatticeSpec, torus_positions, voiculescu
from acbott.relations import (
    disk_residual,
    sphere_residual,
    torus2_residual,
    torus4_residual,
)
from conftest import (
    commuting_sphere_triple, commuting_symmetric_triple, random_complex, random_hermitian,
    random_real_symmetric, random_unitary,
)


class TestSphereResidual:
    def test_exact_pole(self):
        I = np.eye(4)
        Z = np.zeros((4, 4))
        assert sphere_residual(I, Z, Z).delta <= 1e-15

    def test_commuting_diagonal_points(self, rng):
        H1, H2, H3 = commuting_sphere_triple(rng, 6)
        assert sphere_residual(H1, H2, H3).delta <= 1e-12

    def test_voiculescu_lift_decreases(self):
        # frozen from direct evaluation: 0.55 (n=8), 0.30 (n=16), 0.18 (n=32)
        deltas = []
        for n in (8, 16, 32):
            A, B = voiculescu(n)
            deltas.append(sphere_residual(*torus_to_sphere(A, B)).delta)
        assert deltas[0] > deltas[1] > deltas[2]
        assert deltas[2] <= 0.5

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            sphere_residual(np.eye(2), np.eye(3), np.eye(3))

    def test_report_structure(self, rng):
        H1, H2, H3 = commuting_sphere_triple(rng, 5)
        rep = sphere_residual(H1, H2 + 0.3 * np.eye(5), H3)
        assert rep.delta == rep.per_term[rep.worst_term]
        assert rep.delta == max(rep.per_term.values())
        assert rep.relation == "Sphere"


class TestTorus2Residual:
    def test_identity_pair(self):
        assert torus2_residual(np.eye(3), np.eye(3)).delta <= 1e-15

    def test_voiculescu_commutator_value(self):
        for n in (8, 32):
            A, B = voiculescu(n)
            rep = torus2_residual(A, B)
            assert rep.delta == pytest.approx(abs(np.exp(2j * np.pi / n) - 1), abs=1e-12)
            assert rep.worst_term == "comm_12"

    def test_matrix_commutes_with_itself(self):
        A, _ = voiculescu(6)
        assert torus2_residual(A, A).delta <= 1e-15


class TestTorus4Residual:
    def test_exact_diagonal_representation(self):
        theta = 2 * np.pi * np.arange(5) / 5
        phi = 2 * np.pi * np.arange(5) / 7
        Xs = [np.diag(v) for v in (np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi))]
        assert torus4_residual(*Xs).delta <= 1e-15

    def test_zero_matrices_fail_circles_by_one(self):
        Z = np.zeros((4, 4))
        rep = torus4_residual(Z, Z, Z, Z)
        assert rep.delta == pytest.approx(1.0)
        assert rep.worst_term in ("circle_12", "circle_34")

    def test_hermitian_split_of_unitary_pair(self):
        # splitting unitaries into Hermitian parts keeps every torus4 term
        # within the torus2 delta: commutators expand into four torus2-size
        # commutators over 4, and the circle equations are exact
        n = 8
        A, B = voiculescu(n)
        d2 = torus2_residual(A, B).delta
        Xs = [(A + A.conj().T) / 2, (A - A.conj().T) / 2j,
              (B + B.conj().T) / 2, (B - B.conj().T) / 2j]
        rep = torus4_residual(*Xs)
        assert rep.per_term["circle_12"] <= 1e-12
        assert rep.per_term["circle_34"] <= 1e-12
        assert rep.delta <= d2 + 1e-12


class TestDiskResidual:
    def test_zero_pair(self):
        Z = np.zeros((3, 3))
        assert disk_residual(Z, Z).delta <= 1e-15

    def test_commuting_diagonal_contractions(self, rng):
        X1 = np.diag(rng.uniform(-1, 1, 5))
        X2 = np.diag(rng.uniform(-1, 1, 5))
        assert disk_residual(X1, X2).delta <= 1e-15

    def test_voiculescu_hermitian_parts_commutator_dominated(self):
        A, B = voiculescu(8)
        rep = disk_residual((A + A.conj().T) / 2, (B + B.conj().T) / 2)
        assert rep.worst_term == "comm_12"
        assert rep.delta > 0.01

    def test_norm_excess_term(self):
        rep = disk_residual(1.25 * np.eye(3), np.zeros((3, 3)))
        assert rep.per_term["contraction_1"] == pytest.approx(0.25)
        assert rep.worst_term == "contraction_1"


class TestReportProperties:
    def test_unitary_invariance(self, rng):
        H1, H2, H3 = commuting_sphere_triple(rng, 6)
        H2 = H2 + 0.05 * np.eye(6)  # push off the exact representation
        base = sphere_residual(H1, H2, H3)
        U = random_unitary(rng, 6)
        conj = sphere_residual(*(U @ H @ U.conj().T for H in (H1, H2, H3)))
        for term, value in base.per_term.items():
            assert abs(conj.per_term[term] - value) <= 1e-10

    def test_exact_representations_have_tiny_delta(self, rng):
        H1, H2, H3 = commuting_sphere_triple(rng, 8)
        assert sphere_residual(H1, H2, H3).delta <= 1e-12
        U1, U2 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6))), np.eye(6)
        assert torus2_residual(U1, U2).delta <= 1e-12


def _svd_norm(M):
    return float(np.linalg.norm(M, 2))


def _dense_terms(Ms):
    """Every sphere/torus4 term by SVD from the defining formulas."""
    norm = _svd_norm
    n = Ms[0].shape[0]
    terms = {f"herm_{i + 1}": norm(M - M.conj().T) for i, M in enumerate(Ms)}
    for i in range(len(Ms)):
        for j in range(i + 1, len(Ms)):
            terms[f"comm_{i + 1}{j + 1}"] = norm(Ms[i] @ Ms[j] - Ms[j] @ Ms[i])
    if len(Ms) == 3:
        terms["sphere_eq"] = norm(sum(M @ M for M in Ms) - np.eye(n))
    else:
        terms["circle_12"] = norm(Ms[0] @ Ms[0] + Ms[1] @ Ms[1] - np.eye(n))
        terms["circle_34"] = norm(Ms[2] @ Ms[2] + Ms[3] @ Ms[3] - np.eye(n))
    return terms


class TestTermRoutes:
    """Exactly Hermitian inputs take one product per commutator (K - K*) and
    symmetrized sphere/circle equations; other inputs the plain formulas.
    Both give the defining norms."""

    @pytest.mark.parametrize("count", [3, 4])
    @pytest.mark.parametrize("exact", [True, False])
    def test_terms_match_definitions(self, rng, count, exact):
        Ms = [random_hermitian(rng, 12) / 4 for _ in range(count)]
        if exact:
            assert all(np.array_equal(M, M.conj().T) for M in Ms)
        else:
            Ms = [M + 1e-9 * random_complex(rng, 12) for M in Ms]
        rel = (sphere_residual if count == 3 else torus4_residual)(*Ms)
        dense = _dense_terms(Ms)
        assert rel.per_term.keys() == dense.keys()
        for name, value in dense.items():
            if exact and name.startswith("herm"):
                assert rel.per_term[name] == 0.0
            else:
                assert rel.per_term[name] == pytest.approx(value, rel=1e-12)


def _sphere_case(rng, kind, n=10):
    """A sphere triple of the given kind: random Hermitian, Hermitian only
    to rounding, exactly Hermitian, or exactly commuting."""
    if kind == "commuting":
        return commuting_sphere_triple(rng, n)
    Hs = [random_hermitian(rng, n) / 2 for _ in range(3)]
    if kind == "exact":
        return Hs
    if kind == "rounding":  # Hermitian up to rounding, as products leave it
        Q = random_unitary(rng, n)
        return [(Q @ H) @ Q.conj().T for H in Hs]
    return [H + 0.1 * random_complex(rng, n) for H in Hs]


class TestSphereDelta:
    """The max path (max_norm over the report's own terms) gives
    sphere_residual's delta bit for bit, and a term that reaches it."""

    @example(kind="exact", seed=0)
    @example(kind="commuting", seed=1)
    @given(kind=st.sampled_from(["random", "rounding", "exact", "commuting"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_sphere_residual(self, kind, seed):
        Hs = _sphere_case(np.random.default_rng(seed), kind)
        rep = sphere_residual(*Hs)
        delta, worst = max_norm(relations._sphere_terms(Hs))
        assert delta == rep.delta
        assert rep.per_term[worst] == delta

    def test_exact_pole_all_terms_zero(self):
        Hs = [np.eye(4, dtype=complex), np.zeros((4, 4), complex), np.zeros((4, 4), complex)]
        delta, worst = max_norm(relations._sphere_terms(Hs))
        rep = sphere_residual(*Hs)
        assert delta == rep.delta == 0.0
        assert worst == rep.worst_term == "herm_1"

    def test_report_keeps_its_term_order(self, rng):
        rep = sphere_residual(*_sphere_case(rng, "random"))
        assert list(rep.per_term) == ["herm_1", "herm_2", "herm_3",
                                      "comm_12", "comm_13", "comm_23", "sphere_eq"]


class TestTorus4Delta:
    """The max path of the four-tuple gives torus4_residual's delta bit for
    bit, and a term that reaches it; an exactly Hermitian tuple builds no
    n x n Hermiticity term."""

    @staticmethod
    def _tuple(rng, kind, n=10):
        Ms = [random_hermitian(rng, n) / 4 for _ in range(4)]
        if kind == "rounding":
            Q = random_unitary(rng, n)
            return [(Q @ M) @ Q.conj().T for M in Ms]
        if kind == "real":
            return [np.asarray(M.real + M.real.T, dtype=complex) for M in Ms]
        if kind == "random":
            return [M + 0.1 * random_complex(rng, n) for M in Ms]
        return Ms

    @example(kind="exact", seed=0)
    @example(kind="real", seed=1)
    @given(kind=st.sampled_from(["random", "rounding", "exact", "real"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_torus4_residual(self, kind, seed):
        Xs = self._tuple(np.random.default_rng(seed), kind)
        rep = torus4_residual(*Xs)
        delta, worst = max_norm(relations._torus4_terms(Xs))
        assert delta == rep.delta
        assert rep.per_term[worst] == delta

    @pytest.mark.parametrize("kind", ["exact", "random"])
    def test_hermiticity_terms_only_when_not_exactly_hermitian(self, rng, kind):
        terms = list(relations._torus4_terms(self._tuple(rng, kind)))
        herm = [M for name, M in terms if name.startswith("herm_")]
        assert [name for name, _ in terms[:4]] == ["herm_1", "herm_2", "herm_3", "herm_4"]
        if kind == "exact":  # exact zeros, as 1-D diagonals: nothing n x n to build or solve
            assert all(M.ndim == 1 and not M.any() for M in herm)
        else:
            assert all(M.ndim == 2 and M.any() for M in herm)
        assert len(terms) - len(herm) == 8

    def test_real_tuple_takes_real_solves(self, rng, monkeypatch):
        Xs = self._tuple(rng, "real")
        kinds, original = [], np.linalg.eigvalsh

        def recording(A, *args, **kwargs):
            kinds.append(np.asarray(A).dtype.kind)
            return original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        rep = torus4_residual(*Xs)
        assert kinds and set(kinds) == {"f"}
        monkeypatch.setattr(np.linalg, "eigvalsh", original)
        complex_terms = _dense_terms(Xs)
        for name, value in rep.per_term.items():
            assert value == pytest.approx(complex_terms[name], rel=1e-12, abs=1e-15)


class TestTorus2Delta:
    """The max path of the unitary pair gives torus2_residual's delta bit
    for bit, and a term that reaches it."""

    @staticmethod
    def _pair(rng, kind, n=10):
        Us = [random_unitary(rng, n) for _ in range(2)]
        if kind == "near":
            return [U + 1e-3 * random_complex(rng, n) for U in Us]
        if kind == "real":
            return [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2)]
        if kind == "commuting":
            return list(voiculescu(n))
        return Us

    @example(kind="unitary", seed=0)
    @example(kind="commuting", seed=1)
    @given(kind=st.sampled_from(["unitary", "near", "real", "commuting"]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_torus2_residual(self, kind, seed):
        Us = self._pair(np.random.default_rng(seed), kind)
        rep = torus2_residual(*Us)
        delta, worst = max_norm(relations._torus2_terms(as_squares(Us, "U")))
        assert delta == rep.delta
        assert rep.per_term[worst] == delta


class TestRealRoute:
    """A triple whose imaginary parts are all exactly zero is evaluated in
    real arithmetic; one nonzero imaginary entry keeps the complex route.
    Either way the max path and sphere_residual agree bit for bit,
    and the value is the complex one up to rounding."""

    @staticmethod
    def _triple(rng, n=32, eta=1e-2):
        Hs = []
        for H in commuting_symmetric_triple(rng, n):
            G = random_real_symmetric(rng, n)
            Hs.append(H + eta * G / _svd_norm(G))
        return Hs

    @staticmethod
    def _solve_kinds(monkeypatch, call):
        """The dtype kind of every matrix the call passes to np.linalg.eigvalsh."""
        kinds, original = [], np.linalg.eigvalsh

        def recording(A, *args, **kwargs):
            kinds.append(np.asarray(A).dtype.kind)
            return original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording)
        out = call()
        monkeypatch.setattr(np.linalg, "eigvalsh", original)
        return out, kinds

    @staticmethod
    def _complex_delta(Hs):
        """The commutators and sphere equation by SVD, in complex arithmetic."""
        Cs = [np.asarray(H, dtype=complex) for H in Hs]
        return max(v for name, v in _dense_terms(Cs).items() if not name.startswith("herm"))

    def test_real_triple_takes_real_solves(self, rng, monkeypatch):
        Hs = self._triple(rng)
        assert all(H.dtype == np.complex128 and not H.imag.any() for H in Hs)
        (delta, _), kinds = self._solve_kinds(
            monkeypatch, lambda: max_norm(relations._sphere_terms(Hs)))
        rep, report_kinds = self._solve_kinds(monkeypatch, lambda: sphere_residual(*Hs))
        assert delta == rep.delta
        assert kinds and set(kinds + report_kinds) == {"f"}
        ref = self._complex_delta(Hs)
        assert abs(delta - ref) <= 1e-14 * ref

    def test_one_imaginary_entry_keeps_the_complex_route(self, rng, monkeypatch):
        Hs = self._triple(rng)
        Hs[2][0, 1] += 1e-3j
        Hs[2][1, 0] -= 1e-3j
        (delta, _), kinds = self._solve_kinds(
            monkeypatch, lambda: max_norm(relations._sphere_terms(Hs)))
        assert delta == sphere_residual(*Hs).delta
        assert kinds and set(kinds) == {"c"}
        assert delta == pytest.approx(self._complex_delta(Hs), rel=1e-12)


class TestDiagonalPositions:
    @pytest.mark.parametrize("orbitals", [1, 2])
    def test_diagonal_and_dense_reports_equal(self, orbitals):
        Xs = torus_positions(LatticeSpec(L=5, orbitals=orbitals))
        dense = [np.diag(X) for X in Xs]
        assert torus4_residual(*Xs).to_dict() == torus4_residual(*dense).to_dict()
        assert disk_residual(*Xs[:2]).to_dict() == disk_residual(*dense[:2]).to_dict()

    def test_dense_diagonal_matrices_take_the_entrywise_route(self, monkeypatch):
        # directories written before the diagonal layout hold dense X files
        dense = [np.diag(X) for X in torus_positions(LatticeSpec(L=4))]
        assert all(X.ndim == 1 for X in as_positions(dense))
        real = relations.operator_norm

        def entrywise(X):
            assert np.ndim(X) < 2, "an n x n term on the entrywise route"
            return real(X)

        monkeypatch.setattr(relations, "operator_norm", entrywise)
        assert torus4_residual(*dense).delta <= 1e-15
        assert disk_residual(*dense[:2]).delta <= 1e-15

    def test_non_real_diagonals_commute_exactly(self):
        # complex products need not commute in the last bit (a fused
        # multiply-add rounds only one of the two products), so the
        # commutators of diagonals must be exact zeros by construction
        Xs = [np.array([0.1 + 0.7j, 0.3 - 0.2j]), np.array([0.6 + 0.1j, -0.4 + 0.5j]),
              np.array([0.2 - 0.3j, 0.9 + 0.1j]), np.array([-0.5 + 0.2j, 0.1 - 0.8j])]
        torus = torus4_residual(*Xs)
        disk = disk_residual(*Xs[:2])
        assert [torus.per_term[f"comm_{i}{j}"] for i, j in
                ("12", "13", "14", "23", "24", "34")] == [0.0] * 6
        assert disk.per_term["comm_12"] == 0.0
        assert disk.per_term["herm_2"] == torus.per_term["herm_2"] == 1.0

    def test_mixed_tuple_takes_the_dense_route(self, rng):
        Xs = list(torus_positions(LatticeSpec(L=3)))
        noisy = np.diag(Xs[0]) + 1e-3 * random_hermitian(rng, 9)
        mixed = torus4_residual(noisy, *Xs[1:])
        dense = torus4_residual(noisy, *[np.diag(X) for X in Xs[1:]])
        assert mixed.to_dict() == dense.to_dict()
        assert mixed.per_term["comm_12"] > 0

    def test_diagonal_size_mismatch(self):
        Xs = list(torus_positions(LatticeSpec(L=3)))
        Xs[3] = Xs[3][:-1]
        with pytest.raises(errors.ShapeMismatch):
            torus4_residual(*Xs)

    def test_diagonal_non_finite_rejected(self):
        Xs = list(torus_positions(LatticeSpec(L=3)))
        Xs[1] = Xs[1].copy()
        Xs[1][4] = np.nan
        with pytest.raises(errors.ValidationError, match="X2"):
            torus4_residual(*Xs)
