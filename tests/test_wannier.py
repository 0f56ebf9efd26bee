import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from acbott import errors, wannier
from acbott.matkernel import operator_norm, real_if_exact
from acbott.models import (
    LatticeSpec, gap_levels, harper_isometry, harper_projection, torus_positions,
)
from acbott.relations import torus4_residual
from acbott.symmetry import SymmetryClass, dual, time_reversal
from acbott.wannier import (
    compress_positions,
    eigenbasis_commuting,
    projection_isometry,
    spread,
    spread_continuity_check,
)
from conftest import random_hermitian, random_real_orthogonal, random_unitary


def spread_by_loops(X_set, basis):
    """Independent recomputation, explicit loops over vectors."""
    out = []
    for j in range(basis.shape[1]):
        b = basis[:, j]
        total = 0.0
        for X in X_set:
            Xb = X @ b
            total += np.vdot(Xb, Xb).real - np.vdot(b, Xb).real ** 2
        out.append(total)
    return np.array(out)


def random_positions(rng, n, d=4):
    """Hermitian contractions."""
    out = []
    for _ in range(d):
        H = random_hermitian(rng, n)
        out.append(H / (operator_norm(H) + 1e-9))
    return out


class TestSpread:
    def test_common_eigenbasis_is_zero(self, rng):
        n = 6
        U = random_unitary(rng, n)
        Ys = [((U * rng.standard_normal(n)) @ U.conj().T) for _ in range(3)]
        Ys = [(Y + Y.conj().T) / 2 for Y in Ys]
        rep = spread(Ys, U)
        assert rep.maximum <= 1e-12

    def test_single_eigenvector(self, rng):
        X = np.diag([1.0, 2.0, 3.0]).astype(complex)
        rep = spread([X], np.array([[0.0], [1.0], [0.0]], dtype=complex))
        assert rep.per_vector[0] == pytest.approx(0.0, abs=1e-14)

    def test_matches_direct_formula(self, rng):
        n = 7
        Xs = [np.diag(rng.standard_normal(n)).astype(complex) for _ in range(4)]
        basis = random_unitary(rng, n)[:, :4]
        rep = spread(Xs, basis)
        ref = spread_by_loops(Xs, basis)
        assert np.allclose(rep.per_vector, ref, atol=1e-12)
        assert rep.total == pytest.approx(ref.sum())
        assert rep.maximum == pytest.approx(ref.max())
        assert rep.d == 4

    def test_nonnegative_and_zero_iff_eigen(self, rng):
        X = np.diag([0.0, 1.0]).astype(complex)
        eig_basis = np.eye(2, dtype=complex)
        assert spread([X], eig_basis).maximum <= 1e-14
        mixed = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
        rep = spread([X], mixed)
        assert np.all(rep.per_vector >= -1e-12)
        assert rep.maximum > 0.2  # genuinely non-eigen columns spread

    def test_not_orthonormal_rejected(self, rng):
        X = np.eye(3)
        with pytest.raises(errors.NotOrthonormal):
            spread([X], np.ones((3, 2), dtype=complex))

    def test_basis_layouts(self, rng):
        # a 1-D basis is one column, and a k x n stack of vectors is transposed
        X = np.diag([1.0, 2.0, 3.0]).astype(complex)
        V = random_unitary(rng, 3)[:, :2]
        assert spread([X], V[:, 0]).per_vector == pytest.approx(spread([X], V[:, :1]).per_vector)
        assert np.array_equal(spread([X], V.T).per_vector, spread([X], V).per_vector)
        with pytest.raises(errors.ShapeMismatch):
            spread([X], np.eye(4)[:, :2])


class TestContinuity:
    def test_equal_sets(self, rng):
        n = 6
        Xs = random_positions(rng, n)
        basis = random_unitary(rng, n)[:, :3]
        lhs, rhs = spread_continuity_check(Xs, Xs, basis)
        assert lhs <= rhs + 1e-10

    def test_perturbed_commuting_sets(self, rng):
        n = 8
        U = random_unitary(rng, n)
        Ys = [(U * rng.uniform(-1, 1, n)) @ U.conj().T for _ in range(4)]
        Ys = [(Y + Y.conj().T) / 2 for Y in Ys]
        basis = U[:, :5]
        for t in (1e-1, 1e-2):
            Xs = []
            for Y in Ys:
                G = random_hermitian(rng, n)
                X = Y + t * G / operator_norm(G)
                Xs.append(X / max(1.0, operator_norm(X)))
            lhs, rhs = spread_continuity_check(Xs, Ys, basis)
            assert lhs <= rhs + 1e-10

    def test_diagonal_positions(self, rng):
        # 1-D positions stand for their np.diag matrices on either side
        Xs = torus_positions(LatticeSpec(L=3))
        dense = [np.diag(X) for X in Xs]
        basis = random_unitary(rng, 9)[:, :4]
        expected = spread_continuity_check(dense, dense, basis)
        assert spread_continuity_check(Xs, dense, basis) == expected
        assert spread_continuity_check(Xs, Xs, basis) == expected

    def test_sets_must_match_in_size(self, rng):
        Xs = torus_positions(LatticeSpec(L=3))
        with pytest.raises(errors.ShapeMismatch):
            spread_continuity_check(Xs, [X[:4] for X in Xs], np.eye(9)[:, :2])

    def test_norm_gate(self, rng):
        Xs = [2 * np.eye(4)] * 4
        with pytest.raises(errors.NormTooLarge):
            spread_continuity_check(Xs, Xs, np.eye(4)[:, :2])


class TestProjectionIsometry:
    def test_complex_class(self, rng):
        n = 8
        U = random_unitary(rng, n)
        P = U[:, :3] @ U[:, :3].conj().T
        W = projection_isometry(P, SymmetryClass.COMPLEX, rng)
        assert operator_norm(W.conj().T @ W - np.eye(3)) <= 1e-10
        assert operator_norm(W @ W.conj().T - P) <= 1e-10

    def test_symmetric_class_real_basis(self, rng):
        n = 6
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        P = (Q[:, :2] @ Q[:, :2].T).astype(complex)
        W = projection_isometry(P, SymmetryClass.SYMMETRIC, rng)
        assert np.abs(W.imag).max() <= 1e-12
        assert operator_norm(W @ W.conj().T - P) <= 1e-10

    def test_selfdual_class_paired_basis(self, rng):
        # build a self-dual projection from paired columns
        n = 4
        v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        v /= np.linalg.norm(v)
        tv = time_reversal(v)
        P = np.outer(v, v.conj()) + np.outer(tv, tv.conj())
        assert operator_norm(dual(P) - P) <= 1e-12
        W = projection_isometry(P, SymmetryClass.SELF_DUAL, rng)
        k = W.shape[1]
        assert k == 2
        # second half columns are the time-reversal partners of the first
        assert operator_norm(W[:, 1:] - time_reversal(W[:, :1])) <= 1e-8
        assert operator_norm(W @ W.conj().T - P) <= 1e-10

    def test_default_rng_is_seed_zero(self, rng):
        U = random_unitary(rng, 8)
        P = U[:, :3] @ U[:, :3].conj().T
        W = projection_isometry(P)
        assert np.array_equal(W, projection_isometry(P, rng=np.random.default_rng(0)))

    def test_selfdual_odd_rank_fails(self, rng):
        n = 4
        v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        v /= np.linalg.norm(v)
        P = np.outer(v, v.conj())
        with pytest.raises(errors.PairingFailure):
            projection_isometry(P, SymmetryClass.SELF_DUAL, rng)

    @pytest.mark.parametrize(
        "P",
        [
            pytest.param(0.5 * np.eye(4), id="half_identity"),
            pytest.param(np.diag([1.5, -0.5, 0.0, 0.0]), id="hermitian_not_idempotent"),
            pytest.param(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                         id="oblique_idempotent"),
            pytest.param(2 * np.eye(3), id="trace_above_dimension"),
            pytest.param(np.zeros((4, 4)), id="zero"),
        ],
    )
    def test_not_projection(self, rng, P):
        with pytest.raises(errors.NotProjection):
            projection_isometry(P, SymmetryClass.COMPLEX, rng)

    @pytest.mark.parametrize(
        "P, cls",
        [
            pytest.param(np.outer([1, 1j, 0, 0], [1, -1j, 0, 0]) / 2,
                         SymmetryClass.SYMMETRIC, id="symmetric_complex_projection"),
            pytest.param(np.diag([1.0, 0.0, 0.0]), SymmetryClass.SELF_DUAL,
                         id="selfdual_odd_size"),
        ],
    )
    def test_pairing_failure(self, rng, P, cls):
        with pytest.raises(errors.PairingFailure):
            projection_isometry(P, cls, rng)

    @pytest.mark.parametrize("cls", list(SymmetryClass))
    def test_no_eigh(self, rng, monkeypatch, cls):
        """The range finder and its certificate need no eigendecomposition."""
        n, half = 12, 3
        Q = random_real_orthogonal(rng, n)[:, :2 * half].astype(complex)
        if cls is SymmetryClass.SELF_DUAL:
            Q = np.linalg.qr(np.column_stack([Q[:, :half], time_reversal(Q[:, :half])]))[0]
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        projection_isometry(Q @ Q.conj().T, cls, rng)
        assert len(calls) == 0


def _structured_projection(cls, half, rank, seed):
    """A projection of size 2 half in class cls with the requested rank
    (rounded up to even for SELF_DUAL); the identity at full rank."""
    n = 2 * half
    if cls is SymmetryClass.SELF_DUAL:
        rank += rank % 2
    if rank >= n:
        return np.eye(n, dtype=complex)
    rng = np.random.default_rng(seed)
    if cls is SymmetryClass.SYMMETRIC:
        Q = random_real_orthogonal(rng, n)[:, :rank].astype(complex)
    elif cls is SymmetryClass.COMPLEX:
        Q = random_unitary(rng, n)[:, :rank]
    else:
        V = random_unitary(rng, n)[:, :rank // 2]
        Q = np.linalg.qr(np.column_stack([V, time_reversal(V)]))[0]
    return Q @ Q.conj().T


@example(cls=SymmetryClass.SELF_DUAL, half=3, rank=6, seed=0)
@example(cls=SymmetryClass.SYMMETRIC, half=2, rank=4, seed=0)
@example(cls=SymmetryClass.COMPLEX, half=1, rank=2, seed=0)
@given(
    cls=st.sampled_from(list(SymmetryClass)),
    half=st.integers(1, 6),
    rank=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_range_finder_isometry(cls, half, rank, seed):
    """W*W = I and W W* = P for every class and rank up to full (P = I);
    W is real for SYMMETRIC and Kramers-paired for SELF_DUAL."""
    P = _structured_projection(cls, half, rank, seed)
    W = projection_isometry(P, cls, np.random.default_rng(seed))
    k = W.shape[1]
    assert operator_norm(W.conj().T @ W - np.eye(k)) <= 1e-10
    assert operator_norm(W @ W.conj().T - P) <= 1e-10
    if cls is SymmetryClass.SYMMETRIC:
        assert not np.any(W.imag)
    if cls is SymmetryClass.SELF_DUAL:
        m = k // 2
        assert np.array_equal(W[:, m:], time_reversal(W[:, :m]))


@example(half=3, rank=6, seed=0)
@example(half=1, rank=2, seed=0)
@given(half=st.integers(1, 6), rank=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_kramers_range_finder(half, rank, seed):
    """The SELF_DUAL range finder returns W = [F, T F] exactly, orthonormal
    to 1e-12 and onto range(P) to 1e-10, full rank (P = I) included."""
    P = _structured_projection(SymmetryClass.SELF_DUAL, half, rank, seed)
    W = projection_isometry(P, SymmetryClass.SELF_DUAL, np.random.default_rng(seed))
    m = W.shape[1] // 2
    assert np.array_equal(W[:, m:], time_reversal(W[:, :m]))
    assert operator_norm(W.conj().T @ W - np.eye(2 * m)) <= 1e-12
    assert operator_norm(W @ W.conj().T - P) <= 1e-10


def _not_selfdual_rank2(n):
    """An even-rank projection of size n whose range is not T-invariant."""
    Q = random_unitary(np.random.default_rng(3), n)[:, :2]
    return Q @ Q.conj().T


@pytest.mark.parametrize("P, error", [
    pytest.param(0.5 * np.eye(4), errors.NotProjection, id="half_identity"),
    pytest.param(2 * _structured_projection(SymmetryClass.SELF_DUAL, 3, 2, 0),
                 errors.NotProjection, id="twice_selfdual_rank2"),
    pytest.param(_not_selfdual_rank2(6), errors.PairingFailure, id="not_selfdual_even_rank"),
    pytest.param(_structured_projection(SymmetryClass.COMPLEX, 3, 3, 0),
                 errors.PairingFailure, id="odd_rank"),
    pytest.param(np.diag([1.0, 1.0, 0.0]), errors.PairingFailure, id="odd_size"),
])
def test_kramers_range_finder_errors(P, error):
    with pytest.raises(error):
        projection_isometry(P, SymmetryClass.SELF_DUAL, np.random.default_rng(0))


def test_kramers_range_finder_rank_below_trace():
    # tr P = 24 asks for 12 Kramers pairs, but P has rank 2 (one pair, e_36 =
    # T e_0): the refinement's Cholesky factorization fails
    P = np.zeros((72, 72), dtype=complex)
    P[0, 0] = P[36, 36] = 12.0
    with pytest.raises(errors.NotProjection, match="paired range of P has rank below 24"):
        projection_isometry(P, SymmetryClass.SELF_DUAL, np.random.default_rng(0))


class TestCompressPositions:
    def test_identity_projection(self, rng):
        spec = LatticeSpec(L=3)
        Xs = torus_positions(spec)
        n = Xs[0].shape[0]
        W, compressed, report = compress_positions(np.eye(n), Xs, rng)
        assert report.delta <= 1e-14
        assert report.residual <= 1e-12

    def test_commuting_projection(self, rng):
        spec = LatticeSpec(L=3)
        Xs = torus_positions(spec)
        n = Xs[0].shape[0]
        mask = np.zeros(n)
        mask[rng.permutation(n)[: n // 2]] = 1.0
        P = np.diag(mask).astype(complex)  # diagonal projections commute
        W, compressed, report = compress_positions(P, Xs, rng)
        assert report.delta <= 1e-12
        assert report.residual <= 1e-10

    def test_harper_band_projection(self):
        L = 9
        fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        W, compressed, report = compress_positions(P, Xs)
        assert report.residual <= 2 * report.delta + 1e-9
        assert all(operator_norm(X) <= 1 + 1e-12 for X in compressed)
        assert report.budget == pytest.approx(8 * 4 * report.delta)

    def test_factored_delta_matches_dense_commutators(self):
        L = 9
        fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        _, _, report = compress_positions(P, Xs)
        dense = max(operator_norm(P @ np.diag(X) - np.diag(X) @ P) for X in Xs)
        assert abs(report.delta - dense) <= 1e-12
        assert compress_positions(P, (X for X in Xs))[2] == report  # an iterator is read once

    def test_compressed_tuple_exactly_hermitian(self, monkeypatch):
        L = 9
        fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        _, compressed, report = compress_positions(P, torus_positions(spec))
        for C in compressed:
            assert np.array_equal(C, C.conj().T)
        shapes = []
        real = np.linalg.eigvalsh

        def eigvalsh(A, *args, **kwargs):
            shapes.append(A.shape)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rel = torus4_residual(*compressed)
        assert [rel.per_term[f"herm_{r}"] for r in "1234"] == [0.0] * 4
        assert rel.delta == report.residual
        k = compressed[0].shape[0]
        assert shapes == [(k, k)] * 8  # six commutators, two circle equations

    def test_compression_solves_seven_of_twelve_terms(self, monkeypatch):
        # delta and the residual are maxima over four and eight k x k
        # solves; max_norm skips the terms it proves smaller
        L = 9
        fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        shapes = []
        real = np.linalg.eigvalsh

        def eigvalsh(A, *args, **kwargs):
            shapes.append(A.shape)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        W, _, _ = compress_positions(P, torus_positions(spec))
        k = W.shape[1]
        assert shapes == [(k, k)] * 7

    def test_selfdual_isometry_keeps_compression_selfdual(self):
        L = 6
        fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi, orbitals=2)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        _, compressed, _ = compress_positions(P, Xs, symmetry=SymmetryClass.SELF_DUAL)
        for X in compressed:
            assert operator_norm(dual(X) - X) <= 1e-10

    def test_compression_spread_inequality(self, rng):
        # mu_X(W B) <= mu_{W*XW}(B) + 8 d delta on random instances
        n, k = 10, 4
        U = random_unitary(rng, n)
        P = U[:, :k] @ U[:, :k].conj().T
        Xs = random_positions(rng, n)
        delta = max(operator_norm(P @ X - X @ P) for X in Xs)
        W = projection_isometry(P, SymmetryClass.COMPLEX, rng)
        inner = [W.conj().T @ X @ W for X in Xs]
        basis = random_unitary(rng, k)[:, :3]
        lifted = W @ basis
        lhs = spread(Xs, lifted).maximum
        rhs = spread(inner, basis).maximum + 8 * len(Xs) * delta
        assert lhs <= rhs + 1e-9

    def test_rejects_bad_inputs(self, rng):
        spec = LatticeSpec(L=3)
        Xs = torus_positions(spec)
        with pytest.raises(errors.NotProjection):
            compress_positions(0.3 * np.eye(9), Xs)
        bad = list(Xs)
        bad[0] = np.diag(bad[0]) + 0.5 * random_hermitian(rng, 9)
        with pytest.raises(errors.NotExactRepresentation):
            compress_positions(np.eye(9), bad)

    def test_projection_size_must_match_positions(self, monkeypatch):
        # rejected before the residual and the isometry do any work
        def no_work(*args, **kwargs):
            raise AssertionError("work done before the size check")

        monkeypatch.setattr(wannier, "_torus4_terms", no_work)
        monkeypatch.setattr(wannier, "projection_isometry", no_work)
        Xs = torus_positions(LatticeSpec(L=3))
        with pytest.raises(errors.ShapeMismatch):
            compress_positions(np.eye(16), Xs)

    def test_band_localization_budget(self):
        # full chain: compress, approximate the inner tuple by a commuting
        # one, take its eigenbasis; the lifted basis spreads within the
        # 8 d delta + 4 d eps budget
        L = 9
        fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        W, inner, report = compress_positions(P, Xs)
        # the bound holds for any unitary V: take the eigenbasis of a seeded
        # random real combination of the compressed tuple
        coeffs = np.random.default_rng(7).standard_normal(len(inner))
        _, V = np.linalg.eigh(sum(c * X for c, X in zip(coeffs, inner)))
        # commuting approximant: keep each matrix's diagonal in the basis V;
        # its common eigenbasis is V itself, so mu_Y(V) = 0
        eps = 0.0
        for X in inner:
            diag = np.clip(np.real(np.diag(V.conj().T @ X @ V)), -1.0, 1.0)
            Y = (V * diag) @ V.conj().T
            eps = max(eps, operator_norm(X - (Y + Y.conj().T) / 2))
        d = report.d
        lifted = W @ V
        bound = 8 * d * report.delta + 4 * d * eps + 1e-9
        assert spread(Xs, lifted).maximum <= bound


def _harper_band(orbitals):
    """The model's isometry W at L=6, flux 1/3, fill 1/3, and its positions."""
    spec = LatticeSpec(L=6, flux=1 / 3, orbitals=orbitals)
    W, _ = harper_isometry(spec, 1 / 3)
    return W, torus_positions(spec)


class TestCompressIsometry:
    """A tall band n x k is an isometry: gated, then turned by a seeded
    Haar unitary."""

    def test_symmetry_must_be_a_class_member(self):
        W, Xs = _harper_band(2)
        P = W @ W.conj().T
        for call in (lambda: compress_positions(W, Xs, symmetry="selfdual"),
                     lambda: compress_positions(P, Xs, symmetry="selfdual"),
                     lambda: projection_isometry(P, "selfdual")):
            with pytest.raises(errors.ValidationError, match="SymmetryClass member"):
                call()

    @pytest.mark.parametrize("orbitals, cls", [
        (1, SymmetryClass.COMPLEX), (2, SymmetryClass.COMPLEX), (2, SymmetryClass.SELF_DUAL),
    ])
    def test_seed_turns_the_basis_of_the_same_range(self, orbitals, cls):
        W, Xs = _harper_band(orbitals)
        k = W.shape[1]
        outs = [compress_positions(W, Xs, np.random.default_rng(s), cls) for s in (1, 2)]
        for V, compressed, report in outs:
            assert V.shape == W.shape
            assert operator_norm(V.conj().T @ V - np.eye(k)) <= 1e-12
            assert operator_norm(V @ V.conj().T - W @ W.conj().T) <= 1e-12
            if cls is SymmetryClass.SELF_DUAL:
                assert np.array_equal(V[:, k // 2:], time_reversal(V[:, :k // 2]))
                assert all(operator_norm(dual(C) - C) <= 1e-10 for C in compressed)
        assert not np.allclose(outs[0][0], outs[1][0])
        assert outs[0][2].delta == pytest.approx(outs[1][2].delta, rel=1e-12)
        assert outs[0][2].residual == pytest.approx(outs[1][2].residual, rel=1e-12)

    def test_symmetric_real_isometry_stays_real(self, rng):
        Xs = torus_positions(LatticeSpec(L=3))
        W = random_real_orthogonal(rng, 9)[:, :4]
        V, compressed, _ = compress_positions(W, Xs, rng, SymmetryClass.SYMMETRIC)
        assert not np.any(V.imag)
        assert not any(np.any(C.imag) for C in compressed)
        assert operator_norm(V @ V.T - W @ W.T) <= 1e-12

    @pytest.mark.parametrize("case, cls, error", [
        ("not_isometry", SymmetryClass.COMPLEX, errors.NotProjection),
        ("off_layout", SymmetryClass.SELF_DUAL, errors.PairingFailure),
        ("turned_whole", SymmetryClass.SELF_DUAL, errors.PairingFailure),
        ("odd_k", SymmetryClass.SELF_DUAL, errors.PairingFailure),
        ("complex", SymmetryClass.SYMMETRIC, errors.PairingFailure),
        ("rows_differ", SymmetryClass.COMPLEX, errors.ShapeMismatch),
        ("wide", SymmetryClass.COMPLEX, errors.ShapeMismatch),
        ("non_finite", SymmetryClass.COMPLEX, errors.ValidationError),
    ])
    def test_input_checks(self, rng, case, cls, error):
        W, Xs = _harper_band(2)
        k = W.shape[1]
        band = {
            "not_isometry": lambda: 1.01 * W,
            "off_layout": lambda: W[:, ::-1],
            "turned_whole": lambda: W @ random_unitary(rng, k),
            "odd_k": lambda: W[:, 1:],
            "complex": lambda: W,
            "rows_differ": lambda: W[:-2],
            "wide": lambda: np.ones((W.shape[0], W.shape[0] + 1)),
            "non_finite": lambda: np.where(np.arange(k) == 0, np.nan, W),
        }[case]()
        with pytest.raises(error):
            compress_positions(band, Xs, rng, cls)


def _class_band(cls):
    """A tall band of the class, its positions, and a seed: the model's
    isometry for the complex and self-dual classes, a random real one for
    the symmetric class."""
    if cls is SymmetryClass.SYMMETRIC:
        rng = np.random.default_rng(11)
        return random_real_orthogonal(rng, 16)[:, :6], torus_positions(LatticeSpec(L=4))
    return _harper_band(2 if cls is SymmetryClass.SELF_DUAL else 1)


@pytest.mark.parametrize("cls", list(SymmetryClass))
class TestCompressedReport:
    """delta and residual are their definitions bit for bit, in the
    arithmetic of the tuple (real for an exactly real W and positions), and
    the paired products give the four-product tuple to rounding."""

    def test_report_is_its_definition(self, cls):
        band, Xs = _class_band(cls)
        W, compressed, report = compress_positions(band, Xs, np.random.default_rng(3), cls)
        V, *Ds = real_if_exact([W, *(np.asarray(X, dtype=complex) for X in Xs)])
        assert (V.dtype.kind == "f") == (cls is SymmetryClass.SYMMETRIC)
        images = [D[:, None] * V for D in Ds]
        assert report.delta == max(operator_norm(B - V @ C) for B, C in zip(images, compressed))
        assert report.residual == torus4_residual(*compressed).delta
        for C in compressed:
            assert np.array_equal(C, C.conj().T)
            assert C.dtype == V.dtype

    def test_paired_products_match_four_products(self, cls):
        band, Xs = _class_band(cls)
        W, compressed, _ = compress_positions(band, Xs, np.random.default_rng(3), cls)
        for X, C in zip(Xs, compressed):
            M = W.conj().T @ (np.asarray(X)[:, None] * W)
            assert np.abs(C - (M + M.conj().T) / 2).max() <= 1e-14


class TestEigenbasisCommuting:
    def test_diagonal_set(self):
        Ys = [np.diag([3.0, 1.0, 2.0]), np.diag([0.0, 5.0, 1.0])]
        B = eigenbasis_commuting(Ys)
        assert spread(Ys, B).maximum <= 1e-10

    def test_conjugated_pair(self, rng):
        n = 8
        U = random_unitary(rng, n)
        Ys = [(U * rng.standard_normal(n)) @ U.conj().T for _ in range(2)]
        Ys = [(Y + Y.conj().T) / 2 for Y in Ys]
        B = eigenbasis_commuting(Ys)
        assert spread(Ys, B).maximum <= 1e-10

    def test_torus_positions_zero_spread(self):
        Xs = torus_positions(LatticeSpec(L=4))
        B = eigenbasis_commuting(Xs)
        assert spread(Xs, B).maximum <= 1e-10

    def test_degenerate_spectra_refined(self, rng):
        # first matrix has a degenerate eigenvalue split by the second
        U = random_unitary(rng, 6)
        Y1 = (U * np.array([1.0, 1.0, 1.0, 2.0, 2.0, 3.0])) @ U.conj().T
        Y2 = (U * np.array([0.0, 1.0, 2.0, 5.0, 6.0, 9.0])) @ U.conj().T
        Ys = [(Y + Y.conj().T) / 2 for Y in (Y1, Y2)]
        B = eigenbasis_commuting(Ys)
        assert spread(Ys, B).maximum <= 1e-10

    def test_repeated_joint_eigenvalues(self):
        # two orbitals per site repeat every joint eigenvalue, so clusters
        # stay degenerate through every refinement level
        Xs = torus_positions(LatticeSpec(L=4, orbitals=2))
        B = eigenbasis_commuting(Xs)
        assert operator_norm(B.conj().T @ B - np.eye(32)) <= 1e-10
        assert spread(Xs, B).maximum <= 1e-10

    def test_not_commuting_rejected(self, rng):
        Ys = [random_hermitian(rng, 5), random_hermitian(rng, 5)]
        with pytest.raises(errors.NotCommuting):
            eigenbasis_commuting(Ys, tol=1e-10)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-8])
    def test_tolerance_that_would_switch_the_gate_off_rejected(self, tol):
        # ||[X, Y]|| = 2; a NaN or infinite tol used to return a basis
        X, Y = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        with pytest.raises(errors.ValidationError, match="tol must be finite and positive"):
            eigenbasis_commuting([X, Y], tol=tol)

    @pytest.mark.parametrize("sizes", [[], [3, 3, 4, 4]])
    def test_empty_or_mixed_sizes_rejected(self, sizes):
        with pytest.raises(errors.ShapeMismatch):
            eigenbasis_commuting([np.eye(n) for n in sizes])

    def test_near_commuting_small_spread(self, rng):
        n = 6
        U = random_unitary(rng, n)
        Ys = [(U * rng.standard_normal(n)) @ U.conj().T for _ in range(2)]
        Ys = [(Y + Y.conj().T) / 2 for Y in Ys]
        noise = random_hermitian(rng, n)
        Ys[0] = Ys[0] + 1e-9 * noise / operator_norm(noise)
        B = eigenbasis_commuting(Ys, tol=1e-8)
        assert spread(Ys, B).maximum <= 1e-6  # within a modest multiple of tol
