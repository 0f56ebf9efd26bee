import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from acbott import errors
from acbott.matkernel import operator_norm, pfaffian_real_skew
from acbott.symmetry import (
    SymmetryClass,
    _im_phi,
    _k_rows,
    _kramers_basis,
    _paired_defect,
    chi_embed,
    dual,
    is_tau_fixed,
    phi_conjugate,
    phi_inverse,
    require_tau_fixed,
    sharp_sharp,
    symmetrize,
    symplectic_form,
    tau_apply,
    tau_residual,
    time_reversal,
)
from acbott.invariants import bott_matrix
from acbott.models import voiculescu
from conftest import (
    random_complex,
    random_hermitian,
    random_selfdual_hermitian,
    random_unitary,
)

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1j], [-1j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


class TestDual:
    def test_identity(self):
        assert np.allclose(dual(np.eye(4)), np.eye(4))

    def test_symplectic_form_antiselfdual(self):
        Z = symplectic_form(3)
        assert np.allclose(dual(Z), -Z)

    def test_pauli_blocks_antiselfdual(self):
        for sigma in PAULI:
            assert np.allclose(dual(sigma), -sigma)

    def test_involution_and_antimultiplicative(self, rng):
        X, Y = random_complex(rng, 6), random_complex(rng, 6)
        assert np.allclose(dual(dual(X)), X)
        assert np.allclose(dual(X @ Y), dual(Y) @ dual(X))
        assert np.allclose(dual(X.conj().T), dual(X).conj().T)

    def test_odd_size_rejected(self):
        with pytest.raises(errors.OddDimension):
            dual(np.eye(3))


class TestTauResidual:
    def test_symmetric_matrix(self, rng):
        G = random_complex(rng, 5)
        assert tau_residual(G + G.T, SymmetryClass.SYMMETRIC) <= 1e-14

    def test_symplectic_form_selfdual_residual(self):
        # dual(Z) = -Z, so the residual is ||2 Z|| = 2
        assert tau_residual(symplectic_form(4), SymmetryClass.SELF_DUAL) == pytest.approx(2.0)

    def test_shift_transpose_residual(self):
        # for the cyclic shift, A^T = A^{-1}, so ||A^T - A|| = ||A^2 - I||
        # = max_k |exp(4 pi i k/n) - 1| = 2 whenever 4 divides n
        for n in (8, 12):
            A, _ = voiculescu(n)
            assert tau_residual(A, SymmetryClass.SYMMETRIC) == pytest.approx(2.0, abs=1e-12)
        A, _ = voiculescu(6)
        expected = max(2 * abs(np.sin(2 * np.pi * k / 6)) for k in range(6))
        assert tau_residual(A, SymmetryClass.SYMMETRIC) == pytest.approx(expected, abs=1e-12)

    def test_complex_class_is_zero(self, rng):
        assert tau_residual(random_complex(rng, 4), SymmetryClass.COMPLEX) == 0.0


class TestSymmetryArgument:
    """A symmetry that is not a SymmetryClass member is a ValidationError: a
    string taken for a class would be taken for the wrong one ("symmetric"
    for the dual)."""

    @pytest.mark.parametrize("call", [tau_apply, tau_residual, is_tau_fixed, symmetrize])
    @pytest.mark.parametrize("bad", ["symmetric", "selfdual", "complex", None, 1])
    def test_non_member_rejected(self, call, bad):
        with pytest.raises(errors.ValidationError, match="SymmetryClass member"):
            call(np.arange(16.0).reshape(4, 4), bad)


class TestRequireTauFixed:
    @pytest.mark.parametrize("cls, label", [
        (SymmetryClass.SYMMETRIC, "complex symmetric"), (SymmetryClass.SELF_DUAL, "self-dual"),
    ])
    @pytest.mark.parametrize("error", [errors.WrongSymmetry, errors.NotSelfDual])
    def test_names_the_first_member_that_fails(self, rng, cls, label, error):
        fixed = symmetrize(random_hermitian(rng, 4), cls)
        require_tau_fixed([fixed, fixed], cls, "M", error)
        with pytest.raises(error, match=f"^M2 is not {label}, here$"):
            require_tau_fixed([fixed, random_complex(rng, 4), fixed], cls, "M", error, ", here")

    def test_complex_class_passes_every_member(self, rng):
        require_tau_fixed([random_complex(rng, 4)], SymmetryClass.COMPLEX, "M", errors.NotSelfDual)


class TestSymmetrize:
    def test_fixed_point(self, rng):
        G = random_complex(rng, 5)
        S = G + G.T
        assert np.allclose(symmetrize(S, SymmetryClass.SYMMETRIC), S)
        # every matrix is COMPLEX-fixed: tau_apply and symmetrize return a copy of it
        for fn in (tau_apply, symmetrize):
            out = fn(G, SymmetryClass.COMPLEX)
            assert np.array_equal(out, G) and not np.shares_memory(out, G)

    def test_symplectic_form_averages_to_zero(self):
        Z = symplectic_form(3)
        assert operator_norm(symmetrize(Z, SymmetryClass.SELF_DUAL)) <= 1e-15

    def test_residual_after_symmetrize(self, rng):
        for cls in (SymmetryClass.SYMMETRIC, SymmetryClass.SELF_DUAL):
            X = random_hermitian(rng, 6)
            out = symmetrize(X, cls)
            assert tau_residual(out, cls) <= 1e-12 * max(1.0, operator_norm(X))
            assert operator_norm(out - out.conj().T) <= 1e-12


def quaternion_product(A1, B1, A2, B2):
    """(A1 + B1 j)(A2 + B2 j) computed from the defining relations."""
    return A1 @ A2 - B1 @ B2.conj(), A1 @ B2 + B1 @ A2.conj()


class TestChiEmbed:
    def test_one(self):
        I = np.eye(3)
        assert np.allclose(chi_embed(I, 0 * I), np.eye(6))

    def test_j_maps_to_symplectic_form(self):
        I = np.eye(3)
        assert np.allclose(chi_embed(0 * I, I), symplectic_form(3))

    def test_image_commutes_with_time_reversal(self, rng):
        A, B = random_complex(rng, 4), random_complex(rng, 4)
        X = chi_embed(A, B)
        Z = symplectic_form(4)
        assert np.allclose(X.conj() @ Z, Z @ X)

    def test_algebra_map(self, rng):
        A1, B1 = random_complex(rng, 3), random_complex(rng, 3)
        A2, B2 = random_complex(rng, 3), random_complex(rng, 3)
        prod_A, prod_B = quaternion_product(A1, B1, A2, B2)
        lhs = chi_embed(A1, B1) @ chi_embed(A2, B2)
        rhs = chi_embed(prod_A, prod_B)
        assert operator_norm(lhs - rhs) <= 1e-12 * max(1.0, operator_norm(lhs))

    def test_image_characterized_by_star_equals_dual(self, rng):
        # X* = X-dual characterizes the embedding's image; within it,
        # Hermitian and self-dual coincide and mean quaternion-Hermitian
        Y = chi_embed(random_complex(rng, 4), random_complex(rng, 4))
        assert operator_norm(Y.conj().T - dual(Y)) <= 1e-12 * operator_norm(Y)
        assert operator_norm(Y - Y.conj().T) > 1e-3  # generic: not Hermitian
        G = random_complex(rng, 4)
        A = (G + G.conj().T) / 2  # quaternion-Hermitian: A* = A, B^T = -B
        Bg = random_complex(rng, 4)
        B = (Bg - Bg.T) / 2
        X = chi_embed(A, B)
        assert operator_norm(X - X.conj().T) <= 1e-12 * operator_norm(X)
        assert operator_norm(X - dual(X)) <= 1e-12 * operator_norm(X)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            chi_embed(np.eye(2), np.eye(3))


class TestSharpSharp:
    def test_identity(self):
        assert np.allclose(sharp_sharp(np.eye(8)), np.eye(8))

    def test_block_fixed_points(self, rng):
        # [[A, 0], [0, A-dual]] is fixed for any A
        A = random_complex(rng, 4)
        O = np.zeros((4, 4))
        X = np.block([[A, O], [O, dual(A)]])
        assert np.allclose(sharp_sharp(X), X)

    def test_mirror_blocks_antifixed(self):
        # diag(I, -I) changes sign, like every Bott-matrix-shaped element:
        # the two-torsion representatives are the anti-fixed Hermitians
        X = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]).astype(complex)
        assert np.allclose(sharp_sharp(X), -X)

    def test_involution_and_antimultiplicative(self, rng):
        X, Y = random_complex(rng, 8), random_complex(rng, 8)
        assert np.allclose(sharp_sharp(sharp_sharp(X)), X)
        assert np.allclose(sharp_sharp(X @ Y), sharp_sharp(Y) @ sharp_sharp(X))

    def test_bott_matrix_of_selfdual_triple_antifixed(self, rng):
        # the Pauli blocks are anti-self-dual, so the doubled matrix of a
        # self-dual triple changes sign under the coupled involution; this
        # is what makes its polar part a two-torsion representative
        Hs = [random_selfdual_hermitian(rng, 3) for _ in range(3)]
        B = bott_matrix(*Hs)
        assert operator_norm(sharp_sharp(B) + B) <= 1e-12 * operator_norm(B)

    def test_bad_dimension(self):
        with pytest.raises(errors.BadDimension):
            sharp_sharp(np.eye(6))


class TestPhi:
    def test_identity(self):
        assert np.allclose(phi_conjugate(np.eye(8)), np.eye(8))

    def test_mirror_pfaffian_is_one(self):
        for half in (2, 4, 6):
            X = np.diag(np.concatenate([np.ones(half), -np.ones(half)]))
            G = phi_conjugate(X)
            R = -1j * G
            assert np.abs(R.imag).max() <= 1e-12
            pf_R = pfaffian_real_skew(R.real)
            # Pf(Phi) = Pf(i R) = i^(size/2) Pf(R), size = 2 * half
            pf_phi = ((1j) ** half * pf_R).real
            assert pf_phi == pytest.approx(1.0, abs=1e-10)

    def test_intertwines_coupled_dual_and_transpose(self, rng):
        X = random_complex(rng, 8)
        lhs = phi_conjugate(sharp_sharp(X))
        rhs = phi_conjugate(X).T
        assert operator_norm(lhs - rhs) <= 1e-12 * max(1.0, operator_norm(X))

    def test_star_isomorphism(self, rng):
        X, Y = random_complex(rng, 8), random_complex(rng, 8)
        assert operator_norm(
            phi_conjugate(X @ Y) - phi_conjugate(X) @ phi_conjugate(Y)
        ) <= 1e-12 * max(1.0, operator_norm(X @ Y))
        assert np.allclose(phi_conjugate(X.conj().T), phi_conjugate(X).conj().T)

    def test_twisted_real_determinant(self, rng):
        # X with coupled-dual equal to X* is conjugate to a real matrix
        from conftest import random_coupled_unitary

        W = random_coupled_unitary(rng, 2)
        det = np.linalg.det(phi_conjugate(W))
        assert abs(det.imag) <= 1e-9 * max(1.0, abs(det))

    def test_round_trip(self, rng):
        X = random_complex(rng, 8)
        assert operator_norm(phi_inverse(phi_conjugate(X)) - X) <= 1e-12 * operator_norm(X)

    @pytest.mark.parametrize("kind, n", [
        pytest.param(kind, n, id=str(n) if kind == "complex" else f"{kind}-{n}")
        for kind in ("complex", "float64", "hermitian") for n in (4, 8, 36)
    ])
    def test_equals_the_expression(self, rng, kind, n):
        X = random_complex(rng, n)
        if kind == "float64":
            X = X.real.copy()
        elif kind == "hermitian":
            X = (X + X.conj().T) / 2
        KX, XK = _k_rows(X), _k_rows(X.T).T
        for sign, f in ((1, phi_conjugate), (-1, phi_inverse)):
            got, ref = f(X), (X + _k_rows(XK) + sign * 1j * (XK - KX)) / 2
            assert got.dtype == np.complex128
            assert np.array_equal(got, ref)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))

    def test_memory_rise_below_three_matrices(self, rng):
        n = 512
        X = random_complex(rng, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            phi_conjugate(X)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rise < 3 * X.nbytes

    @pytest.mark.parametrize("n", [4, 8, 36])
    @pytest.mark.parametrize("kind", ["complex", "real", "hermitian"])
    def test_im_phi_is_the_imaginary_part(self, rng, n, kind):
        X = random_complex(rng, n)
        if kind == "real":
            X = X.real.astype(complex)
        elif kind == "hermitian":
            X = (X + X.conj().T) / 2
        ref = phi_conjugate(X).imag
        got = _im_phi(X)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref)
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_im_phi_memory_rise_one_real_array_beyond_its_result(self, rng):
        n = 512
        X = random_complex(rng, n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _im_phi(X)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rise < 2.25 * n * n * 8


class TestNormIsometries:
    def test_involutions_preserve_operator_norm(self, rng):
        X = random_complex(rng, 8)
        base = operator_norm(X)
        assert operator_norm(dual(X)) == pytest.approx(base, abs=1e-12 * base)
        assert operator_norm(sharp_sharp(X)) == pytest.approx(base, abs=1e-12 * base)
        assert operator_norm(X.T) == pytest.approx(base, abs=1e-12 * base)


class TestTimeReversal:
    def test_squares_to_minus_one(self, rng):
        v = random_complex(rng, 1)[0]
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert np.allclose(time_reversal(time_reversal(v)), -v)

    def test_kramers_orthogonality(self, rng):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert abs(np.vdot(time_reversal(v), v)) <= 1e-13 * np.vdot(v, v).real

    def test_matches_dense_symplectic_form(self, rng):
        V = random_complex(rng, 6)[:, :3]
        assert np.array_equal(time_reversal(V), -symplectic_form(3) @ V.conj())


class TestKramersPairs:
    def test_paired_basis_of_invariant_span(self, rng):
        # span of two Kramers pairs, presented by a scrambled orthonormal
        # basis; the pairing sees two Gaussian combinations of it
        v = random_complex(rng, 8)[:, :2]
        C, _ = np.linalg.qr(np.column_stack([v, time_reversal(v)]))
        C = C @ random_unitary(rng, 4)
        F = _kramers_basis(C @ random_complex(rng, 4)[:, :2])
        W = np.column_stack([F, time_reversal(F)])
        assert operator_norm(W.conj().T @ W - np.eye(4)) <= 1e-12
        assert operator_norm(W @ W.conj().T - C @ C.conj().T) <= 1e-12

    def test_non_invariant_span_rejected(self, rng):
        # the pairing of a span that T does not preserve leaves it, and the
        # certificate ||C C* - F F* - T F F* T*|| sees it
        C, _ = np.linalg.qr(random_complex(rng, 8)[:, :2])
        F = _kramers_basis(C @ random_complex(rng, 2)[:, :1])
        assert operator_norm(_paired_defect(C @ C.conj().T, F)) >= 0.5


def _dense_reference_cases(test):
    """Draw (N, seed) for size 4N; every N in 1..12 also runs as an example."""
    for N in range(1, 13):
        test = example(N=N, seed=N)(test)
    return given(N=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))(test)


class TestSlicingMatchesDenseDefinitions:
    """The involutions act by slicing; these pin them to the dense forms
    -Z X^T Z, the block formula of ##, and conjugation by (I -+ i K)/sqrt(2)
    with K = Z_2 (x) Z_N."""

    @_dense_reference_cases
    def test_dual_and_sharp_sharp_exact(self, N, seed):
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 4 * N)
        Z = symplectic_form(2 * N)
        assert np.array_equal(dual(X), -Z @ X.T @ Z)
        h = 2 * N
        z = symplectic_form(N)

        def dense_dual(M):
            return -z @ M.T @ z

        A, B, C, D = X[:h, :h], X[:h, h:], X[h:, :h], X[h:, h:]
        blocks = np.block([
            [dense_dual(D), -dense_dual(B)],
            [-dense_dual(C), dense_dual(A)],
        ])
        assert np.array_equal(sharp_sharp(X), blocks)

    @_dense_reference_cases
    def test_phi_matches_dense_conjugation(self, N, seed):
        rng = np.random.default_rng(seed)
        X = random_complex(rng, 4 * N)
        K = np.kron(np.array([[0.0, 1.0], [-1.0, 0.0]]), symplectic_form(N))
        U = (np.eye(4 * N) - 1j * K) / np.sqrt(2)
        tol = 1e-14 * max(1.0, operator_norm(X))
        assert operator_norm(phi_conjugate(X) - U @ X @ U.conj().T) <= tol
        assert operator_norm(phi_inverse(X) - U.conj().T @ X @ U) <= tol

    @pytest.mark.parametrize("f", [sharp_sharp, phi_conjugate, phi_inverse])
    @pytest.mark.parametrize("size", [6, 3])
    def test_size_not_4n_rejected(self, f, size):
        with pytest.raises(errors.BadDimension):
            f(np.eye(size))

    def test_dual_odd_size_rejected(self):
        with pytest.raises(errors.OddDimension):
            dual(np.eye(3))
