import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, strategies as st

from acbott import errors
from acbott.matkernel import (
    _check_real_skew,
    _pfaffian_reduction,
    _skew_reduction,
    _skew_schur,
    as_square,
    gapped_signature,
    herm_eig,
    hermitian_part,
    max_norm,
    norm_exceeds,
    operator_norm,
    pfaffian_combinatorial,
    pfaffian_real_skew,
    polar,
    real_if_exact,
    signature,
)
from acbott.canonical import (
    commuting_pair_from_sphere, diag_anti_selfdual, k2_quaternion_witness, k2_real_witness,
    k2_twisted_witness, polar_product_check, real_skew_canonical, skew_representative, sqrt_psd,
)
from acbott.invariants import (
    bott_index, bott_index_unitaries, bott_matrix, compressed_index, pf_bott_index,
    pf_bott_unitaries, torus_to_sphere,
)
from acbott.matio import read_config, write_matrix
from acbott.models import LatticeSpec, selfdual_double, torus_positions, voiculescu
from acbott.relations import disk_residual, sphere_residual, torus2_residual, torus4_residual
from acbott.symmetry import SymmetryClass, chi_embed, symplectic_form, time_reversal
from acbott.wannier import compress_positions, eigenbasis_commuting, spread
from conftest import (
    random_complex, random_hermitian, random_real_orthogonal, random_unitary, skew_case,
)


def newton_polar(X, iterations=80):
    """Independent oracle: Newton iteration for the unitary polar factor."""
    U = np.asarray(X, dtype=complex)
    for _ in range(iterations):
        U = (U + np.linalg.inv(U.conj().T)) / 2
    return U


class TestHermEig:
    def test_identity(self):
        dec = herm_eig(np.eye(3))
        assert np.allclose(dec.eigenvalues, [1, 1, 1])

    def test_diagonal(self):
        dec = herm_eig(np.diag([1.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1, 1])

    def test_reconstruction_residual(self, rng):
        H = random_hermitian(rng, 16)
        dec = herm_eig(H)
        rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        assert operator_norm(rec - H) <= 1e-10 * operator_norm(H)
        assert operator_norm(dec.vectors.conj().T @ dec.vectors - np.eye(16)) <= 1e-12

    def test_rejects_non_hermitian(self, rng):
        X = random_complex(rng, 5)
        with pytest.raises(errors.NonHermitian):
            herm_eig(X)

    def test_symmetrizes_small_defect(self, rng):
        H = random_hermitian(rng, 6)
        dec = herm_eig(H + 1e-12 * random_complex(rng, 6))
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_exactly_hermitian_input_needs_no_norm(self, rng, monkeypatch):
        import acbott.matkernel as mk

        def no_norm(X):
            raise AssertionError("operator_norm called")

        monkeypatch.setattr(mk, "operator_norm", no_norm)
        H = random_complex(rng, 6)
        dec = herm_eig(H + H.conj().T)
        assert dec.eigenvalues.shape == (6,)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_real_input_gives_real_vectors(self, rng, dtype):
        # a complex matrix with an exactly zero imaginary part counts as real
        G = rng.standard_normal((20, 20))
        H = ((G + G.T) / 2).astype(dtype)
        dec = herm_eig(H)
        assert dec.vectors.dtype == np.float64
        rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.T
        assert operator_norm(rec - H) <= 1e-12 * max(1.0, operator_norm(H))

    def test_one_imaginary_entry_keeps_complex_vectors(self, rng):
        G = rng.standard_normal((8, 8))
        H = ((G + G.T) / 2).astype(complex)
        H[0, 1] += 1e-3j
        H[1, 0] -= 1e-3j
        assert herm_eig(H).vectors.dtype == np.complex128


class TestHermitianPart:
    """The one Hermitian gate: (A + A*)/2 after ||A - A*|| <= rtol * max(1, ||A||)."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_hermitian_input_is_returned_itself(self, rng, monkeypatch, dtype):
        import acbott.matkernel as mk

        def no_norm(*args, **kwargs):
            raise AssertionError("a norm was computed")

        monkeypatch.setattr(mk, "norm_exceeds", no_norm)
        monkeypatch.setattr(mk, "operator_norm", no_norm)
        G = rng.standard_normal((6, 6)) if dtype is float else random_complex(rng, 6)
        H = G + G.conj().T
        assert hermitian_part(H, 1e-9, errors.NonHermitian, "H") is H

    @pytest.mark.parametrize("error", [errors.NonHermitian, errors.WrongSymmetry])
    def test_threshold_is_relative_and_inclusive(self, rng, error):
        # ||A|| > 1, so the threshold is rtol * ||A||; a relative margin of
        # 1e-6 on either side of ||A - A*|| / ||A|| decides the gate
        A = 3 * random_hermitian(rng, 8) + 1e-7 * random_complex(rng, 8)
        scale = operator_norm(A)
        assert scale > 1
        ratio = operator_norm(A - A.conj().T) / scale
        inside = hermitian_part(A, ratio * (1 + 1e-6), error, "Q")
        assert np.array_equal(inside, (A + A.conj().T) / 2)
        assert np.array_equal(inside, inside.conj().T)
        with pytest.raises(error, match=r"^Q is not Hermitian"):
            hermitian_part(A, ratio * (1 - 1e-6), error, "Q")


class TestRealIfExact:
    def test_real_input_is_not_copied(self, rng):
        A = rng.standard_normal((5, 5))
        (out,) = real_if_exact([A])
        assert out is A

    def test_zero_imaginary_parts_give_real_arrays(self, rng):
        A = rng.standard_normal((5, 5))
        out = real_if_exact([A.astype(complex), np.eye(5, dtype=int)])
        assert [M.dtype for M in out] == [np.float64, np.float64]
        assert all(M.flags.c_contiguous for M in out)
        assert np.array_equal(out[0], A)

    def test_one_imaginary_entry_keeps_the_tuple_complex(self, rng):
        A = rng.standard_normal((5, 5))
        B = A.astype(complex)
        B[2, 3] = 1j
        out = real_if_exact([A, B])
        assert [M.dtype for M in out] == [np.complex128, np.complex128]
        assert out[1] is B and np.array_equal(out[0], A)


class TestPolar:
    def test_unitary_fixed_point(self, rng):
        U = random_unitary(rng, 6)
        assert operator_norm(polar(U) - U) <= 1e-12

    def test_positive_scalar(self):
        assert operator_norm(polar(3 * np.eye(4)) - np.eye(4)) <= 1e-13

    def test_against_newton_oracle(self, rng):
        for _ in range(5):
            X = random_complex(rng, 8) + 4 * np.eye(8)  # well away from singular
            assert operator_norm(polar(X) - newton_polar(X)) <= 1e-10

    def test_left_unitary_multiplication(self, rng):
        X = random_complex(rng, 7) + 3 * np.eye(7)
        V = random_unitary(rng, 7)
        assert operator_norm(polar(V @ X) - V @ polar(X)) <= 1e-10

    def test_result_is_unitary_and_reconstructs(self, rng):
        X = random_complex(rng, 9) + 3 * np.eye(9)
        U = polar(X)
        n = X.shape[0]
        assert operator_norm(U.conj().T @ U - np.eye(n)) <= 1e-12
        w, V = np.linalg.eigh(X.conj().T @ X)
        root = (V * np.sqrt(np.clip(w, 0, None))) @ V.conj().T
        assert operator_norm(U @ root - X) <= 1e-10 * operator_norm(X)

    def test_near_singular_rejected(self):
        X = np.diag([1.0, 1e-14])
        with pytest.raises(errors.NearSingular):
            polar(X)


class TestSignature:
    def test_balanced(self):
        assert signature(np.diag([1.0, -1.0])) == 0

    def test_direct_count(self):
        assert signature(np.diag([1.0, 1.0, 1.0, -1.0])) == 1

    def test_gap_too_small(self):
        with pytest.raises(errors.GapTooSmall):
            signature(np.diag([1.0, 1e-9]))

    def test_odd_count_rejected(self):
        with pytest.raises(errors.GapTooSmall):
            signature(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -1.0, float("inf")])
    def test_gap_tol_must_be_finite_and_positive(self, gap_tol):
        # a NaN or negative tolerance would let the 1e-14 pair through
        with pytest.raises(errors.ValidationError, match="finite and positive"):
            gapped_signature(np.array([-1.0, -1e-14, 1e-14, 1.0]), gap_tol)

    def test_unitary_conjugation_invariance(self, rng):
        H = np.diag([2.0, 1.0, 1.0, -0.5, -1.5, -3.0])
        base = signature(H)
        for _ in range(5):
            U = random_unitary(rng, 6)
            assert signature(U @ H @ U.conj().T) == base

    def test_voiculescu_bott_matrix(self):
        from acbott.invariants import bott_matrix, torus_to_sphere

        A, B = voiculescu(16)
        assert signature(bott_matrix(*torus_to_sphere(A, B))) == 1


class TestPfaffianRealSkew:
    def test_two_by_two(self):
        a = 1.7
        assert pfaffian_real_skew(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a)

    def test_matches_combinatorial(self, rng):
        for n in (4, 6, 8):
            M = rng.standard_normal((n, n))
            R = M - M.T
            alg = pfaffian_real_skew(R)
            ref = pfaffian_combinatorial(R).real
            assert alg == pytest.approx(ref, rel=1e-10)

    def test_square_is_determinant(self, rng):
        M = rng.standard_normal((8, 8))
        R = M - M.T
        assert pfaffian_real_skew(R) ** 2 == pytest.approx(
            np.linalg.det(R), rel=1e-8
        )

    def test_transformation_law(self, rng):
        M = rng.standard_normal((6, 6))
        R = M - M.T
        B = rng.standard_normal((6, 6))
        lhs = pfaffian_real_skew(B @ R @ B.T)
        rhs = np.linalg.det(B) * pfaffian_real_skew(R)
        assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_rejections(self, rng):
        with pytest.raises(errors.OddDimension):
            pfaffian_real_skew(np.zeros((3, 3)))
        with pytest.raises(errors.NotReal):
            pfaffian_real_skew(1j * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(errors.NotSkew):
            pfaffian_real_skew(np.eye(4))


class TestPfaffianSignLog:
    @pytest.mark.parametrize("scale", [1e3, 1e-3])
    def test_beyond_float_range(self, rng, scale):
        # 200 blocks of modulus 1e3 or 1e-3, one negated: Pf = -scale^200,
        # which overflows or underflows a float
        size = 400
        D = np.zeros((size, size))
        i = np.arange(0, size, 2)
        D[i, i + 1], D[i + 1, i] = scale, -scale
        D[0, 1], D[1, 0] = -scale, scale
        Q = random_real_orthogonal(rng, size)
        if np.linalg.slogdet(Q)[0] < 0:
            Q[:, [0, 1]] = Q[:, [1, 0]]
        A = Q @ D @ Q.T
        sign, log_abs = _pfaffian_reduction((A - A.T) / 2)[:2]
        assert sign == -1.0
        assert log_abs == pytest.approx(200 * np.log(scale), rel=1e-9)

    def test_zero_pivot(self):
        sign, log_abs = _pfaffian_reduction(np.zeros((4, 4)))[:2]
        assert sign == 0.0
        assert log_abs == -np.inf
        assert pfaffian_real_skew(np.zeros((4, 4))) == 0.0

    def test_empty(self):
        assert _pfaffian_reduction(np.zeros((0, 0)))[:2] == (1.0, 0.0)


def schur_block_values(R):
    """Oracle: the sorted block values of scipy's Schur form, each +-i a
    eigenvalue pair counted once."""
    T = sla.schur(R.astype(complex), output="complex")[0]
    return np.sort(np.abs(np.diagonal(T).imag))[::2]


SKEW_SIZES = [4, 6, 10, 12, 16, 64, 512]
SKEW_KINDS = ["generic", "repeated", "clustered", "zero-blocks"]


class TestSkewSchur:
    @pytest.mark.parametrize("kind", SKEW_KINDS)
    @pytest.mark.parametrize("n", SKEW_SIZES)
    def test_orthogonal_reconstruction_and_values(self, n, kind):
        rng = np.random.default_rng(1700 + n)
        R = skew_case(rng, kind, n)
        Q, a, _ = _skew_schur(_check_real_skew(R))
        assert np.all(a >= 0) and np.all(np.diff(a) <= 0)
        assert operator_norm(Q.T @ Q - np.eye(n)) <= 1e-13
        D = np.zeros((n, n))
        i = np.arange(0, n, 2)
        D[i, i + 1], D[i + 1, i] = a, -a
        scale = max(1.0, operator_norm(R))
        assert operator_norm(Q @ D @ Q.T - R) <= 1e-12 * scale
        assert np.abs(np.sort(a) - schur_block_values(R)).max() <= 1e-12 * scale

    def test_pfaffian_reads_the_same_reduction(self, rng):
        # the Pfaffian and the canonical form read one superdiagonal e, so
        # the Pfaffian modulus is the product of the block values
        R = skew_case(rng, "generic", 64)
        _, log_abs, _ = _pfaffian_reduction(_check_real_skew(R))
        _, a, _ = _skew_schur(_check_real_skew(R))
        assert np.sum(np.log(a)) == pytest.approx(log_abs, rel=1e-12)

    def test_empty(self):
        Q, a, _ = _skew_schur(np.zeros((0, 0)))
        assert Q.shape == (0, 0) and a.shape == (0,)

    @pytest.mark.parametrize("n", [2, 4, 6, 12, 64])
    def test_orientation_is_the_sign_of_det_q(self, n):
        # sign det Q = sign Pf A, read from the reduction; swapping two
        # indices of A flips its Pfaffian, so both signs are covered
        rng = np.random.default_rng(1720 + n)
        signs = set()
        for trial in range(40):
            R = skew_case(rng, "generic", n)
            if trial % 2:
                R[[0, 1]] = R[[1, 0]]
                R[:, [0, 1]] = R[:, [1, 0]]
            Q, _, sign = _skew_schur(_check_real_skew(R))
            assert sign == np.sign(np.linalg.det(Q)) == np.sign(pfaffian_real_skew(R))
            signs.add(sign)
        assert signs == {-1.0, 1.0}


class TestSkewReductionInPlace:
    def test_checked_skew_part_is_fortran_with_the_same_bits(self, rng):
        M = rng.standard_normal((8, 8))
        X = M - M.T + 1e-14 * rng.standard_normal((8, 8))  # skew to rounding
        A = _check_real_skew(X)
        assert A.flags.f_contiguous
        assert np.array_equal(A, (X - X.T) / 2)

    def test_fortran_input_is_overwritten(self, rng):
        M = rng.standard_normal((16, 16))
        A = np.asfortranarray(M - M.T)
        before = A.copy()
        H, _, e = _skew_reduction(A)
        assert np.shares_memory(H, A)
        assert not np.array_equal(A, before)
        assert np.array_equal(e, np.diagonal(A, 1))

    def test_c_ordered_input_is_left_alone(self, rng):
        M = rng.standard_normal((16, 16))
        A = np.ascontiguousarray(M - M.T)
        before = A.copy()
        H, _, _ = _skew_reduction(A)
        assert not np.shares_memory(H, A)
        assert np.array_equal(A, before)


class TestPfaffianCombinatorial:
    def test_definition(self):
        assert pfaffian_combinatorial(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 1.0

    def test_block_diagonal(self):
        a1, a2 = 2.0, -3.0
        R = np.zeros((4, 4))
        R[0, 1], R[1, 0] = a1, -a1
        R[2, 3], R[3, 2] = a2, -a2
        assert pfaffian_combinatorial(R) == pytest.approx(a1 * a2)

    def test_square_is_determinant_complex(self, rng):
        G = random_complex(rng, 6)
        R = G - G.T
        pf = pfaffian_combinatorial(R)
        assert pf**2 == pytest.approx(np.linalg.det(R), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(errors.TooLarge):
            pfaffian_combinatorial(np.zeros((14, 14)))


class TestOperatorNorm:
    def test_symplectic_form_is_isometry(self):
        from acbott.symmetry import symplectic_form

        assert operator_norm(symplectic_form(5)) == pytest.approx(1.0)

    def test_voiculescu_commutator(self):
        for n in (4, 16):
            A, B = voiculescu(n)
            analytic = abs(np.exp(2j * np.pi / n) - 1)
            assert operator_norm(A @ B - B @ A) == pytest.approx(analytic, abs=1e-12)

    def test_scalar(self):
        assert operator_norm(2 * np.eye(7)) == pytest.approx(2.0)

    def test_one_dimensional_is_the_diagonal_it_lists(self, rng):
        from acbott.models import LatticeSpec, torus_positions

        X = torus_positions(LatticeSpec(L=3))[0]
        assert operator_norm(X) == operator_norm(np.diag(X)) == 1.0
        d = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert operator_norm(d) == np.abs(d).max()

    def test_more_than_two_axes_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            operator_norm(np.ones((2, 3, 3)))


class TestOperatorNormNonFinite:
    """A NaN or infinite entry raises ValidationError on every route; the
    entries are tested only after a solve fails or gives a non-finite value."""

    @staticmethod
    def _case(rng, route, bad):
        G = random_complex(rng, 6)
        M = {
            "vector": np.ones(6), "diagonal": np.eye(6), "hermitian": G + G.conj().T,
            "anti_hermitian": G - G.conj().T, "real": G.real, "general": G,
            "rectangular": G[:, :3],
        }[route]
        if route in ("hermitian", "anti_hermitian"):  # exact for an infinite entry
            M[1, 2] = bad
            M[2, 1] = bad if route == "hermitian" else -bad
        else:
            M[(0,) if M.ndim == 1 else (0, 0)] = bad
        return M

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "route", ["vector", "diagonal", "hermitian", "anti_hermitian", "real", "general", "rectangular"]
    )
    def test_raises_validation_error(self, rng, route, bad):
        M = self._case(rng, route, bad)
        with pytest.raises(errors.ValidationError, match="non-finite"):
            operator_norm(M)
        with pytest.raises(errors.ValidationError, match="non-finite"):
            max_norm([("m", M)])

    @pytest.mark.parametrize("route", ["anti_hermitian", "rectangular"])
    def test_infinite_entry_raises_without_a_warning(self, rng, route):
        # i * inf is nan: the product that makes an anti-Hermitian matrix
        # Hermitian would warn before the error
        M = self._case(rng, route, np.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.ValidationError, match="non-finite"):
                operator_norm(M)

    def test_finite_input_is_not_tested(self, rng, monkeypatch):
        import acbott.matkernel as mk

        def fail(A):
            raise AssertionError("finiteness tested on a finite input")

        monkeypatch.setattr(mk, "_require_finite", fail)
        G = random_complex(rng, 6)
        for M in (G, G + G.conj().T, G.real, G[:, :3], np.eye(3)):
            assert operator_norm(M) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)


class TestOperatorNormRoute:
    """Exactly Hermitian and complex anti-Hermitian inputs take one eigvalsh
    of the input itself; everything else, real skew input included, one
    eigvalsh of a herk (syrk) Gram matrix."""

    @staticmethod
    def _record(monkeypatch):
        import acbott.matkernel as mk

        calls = {"eigvalsh": [], "gram": 0}
        real_eigvalsh = np.linalg.eigvalsh

        def eigvalsh(A, *args, **kwargs):
            calls["eigvalsh"].append(np.shape(A))
            return real_eigvalsh(A, *args, **kwargs)

        def gram(name):
            real = getattr(mk.blas, name)

            def wrapper(*args, **kwargs):
                calls["gram"] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for name in ("zherk", "dsyrk"):
            monkeypatch.setattr(mk.blas, name, gram(name))
        return calls

    @pytest.mark.parametrize("kind", ["hermitian", "anti_hermitian", "real_symmetric"])
    def test_structured_input_one_eigvalsh(self, rng, monkeypatch, kind):
        H = random_hermitian(rng, 64)
        A = {"hermitian": H, "anti_hermitian": 1j * H,
             "real_symmetric": H.real + H.real.T}[kind]
        calls = self._record(monkeypatch)
        value = operator_norm(A)
        assert calls["eigvalsh"] == [(64, 64)]
        assert calls["gram"] == 0
        assert value == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    def test_one_ulp_off_takes_gram_route(self, rng, monkeypatch):
        A = random_hermitian(rng, 64)
        A[3, 7] = np.nextafter(A[3, 7].real, np.inf) + 1j * A[3, 7].imag
        calls = self._record(monkeypatch)
        value = operator_norm(A)
        assert calls["gram"] == 1
        assert calls["eigvalsh"] == [(64, 64)]
        assert value == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    @pytest.mark.parametrize("shape", [(40, 9), (9, 40)])
    def test_rectangular_gram_is_the_smaller_side(self, rng, monkeypatch, shape):
        A = random_complex(rng, 40)[:shape[0], :shape[1]]
        calls = self._record(monkeypatch)
        value = operator_norm(A)
        assert calls == {"eigvalsh": [(9, 9)], "gram": 1}
        assert value == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 9, 64])
    def test_real_skew_takes_real_gram_route(self, rng, monkeypatch, n):
        M = rng.standard_normal((n, n))
        A = M - M.T  # exactly antisymmetric
        complex_route = float(np.abs(np.linalg.eigvalsh(1j * A)).max())
        calls = self._record(monkeypatch)
        value = operator_norm(A)
        assert calls["eigvalsh"] == [(n, n)]
        assert calls["gram"] == 1
        assert value == pytest.approx(complex_route, rel=1e-13)

    def test_real_skew_solves_only_real_arrays(self, rng, monkeypatch):
        M = rng.standard_normal((32, 32))
        kinds = []
        real = np.linalg.eigvalsh

        def eigvalsh(A, *args, **kwargs):
            kinds.append(np.asarray(A).dtype.kind)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        operator_norm(M - M.T)
        assert kinds == ["f"]

    @example(kind="hermitian", m=1, n=1, seed=0)
    @example(kind="anti_hermitian", m=24, n=24, seed=1)
    @example(kind="general", m=24, n=24, seed=2)
    @example(kind="real", m=24, n=3, seed=3)
    @example(kind="rectangular", m=1, n=24, seed=4)
    @given(
        kind=st.sampled_from(["hermitian", "anti_hermitian", "general", "real", "rectangular"]),
        m=st.integers(1, 24),
        n=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_svd_norm(self, kind, m, n, seed):
        rng = np.random.default_rng(seed)
        G = random_complex(rng, max(m, n))
        if kind == "hermitian":
            A = (G + G.conj().T)[:m, :m]
        elif kind == "anti_hermitian":
            A = (G - G.conj().T)[:m, :m]
        elif kind == "general":
            A = G[:m, :m]
        elif kind == "real":
            A = G.real[:m, :n]
        else:
            A = G[:m, :n]
        A = A * 10.0 ** rng.uniform(-6, 6)
        assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)


class TestMaxNorm:
    """max_norm is max(operator_norm) bit for bit and names a maximizer,
    computing no spectral norm for a term whose Frobenius norm cannot beat
    the maximum so far."""

    @staticmethod
    def _terms(rng, kinds):
        n = 12
        base = random_complex(rng, n)
        out = []
        for kind in kinds:
            if kind == "zero":
                M = np.zeros((n, n), dtype=complex)
            elif kind == "tie":  # the same values as an earlier term
                M = out[-1][1].copy() if out else base
            elif kind == "rank_one":  # spectral norm equal to the Frobenius norm
                v = rng.standard_normal(n)
                M = np.outer(v, v)
            else:
                M = random_complex(rng, n) * 10.0 ** rng.uniform(-3, 1)
            out.append((f"t{len(out)}", M))
        return out

    @example(kinds=["zero", "zero", "zero"], seed=0)
    @example(kinds=["random", "tie", "tie"], seed=1)
    @example(kinds=["rank_one", "tie", "random"], seed=2)
    @given(
        kinds=st.lists(st.sampled_from(["random", "zero", "tie", "rank_one"]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_max_of_operator_norms(self, kinds, seed):
        terms = self._terms(np.random.default_rng(seed), kinds)
        norms = {name: operator_norm(M) for name, M in terms}
        value, name = max_norm(iter(terms))
        assert value == max(norms.values())
        assert norms[name] == value

    def test_names_the_first_maximizer(self):
        E = np.diag([1.0, 2.0])
        assert max_norm([("a", 0 * E), ("b", E), ("c", E.copy())]) == (2.0, "b")
        assert max_norm([("a", 0 * E), ("b", 0 * E)]) == (0.0, "a")

    @staticmethod
    def _count_lapack(monkeypatch):
        """Record the shape of the operand of every eigvalsh, ?potrf and
        ?herk (?syrk) call, by kind."""
        import acbott.matkernel as mk

        calls = {"eigvalsh": [], "potrf": [], "herk": []}
        targets = [(np.linalg, "eigvalsh", "eigvalsh", 0)]
        targets += [(mk.lapack, name, "potrf", 0) for name in ("zpotrf", "dpotrf")]
        targets += [(mk.blas, name, "herk", 1) for name in ("zherk", "dsyrk")]
        for module, name, kind, arg in targets:
            def wrapper(*args, real=getattr(module, name), kind=kind, arg=arg, **kwargs):
                calls[kind].append(np.shape(args[arg]))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_skips_terms_below_the_maximum(self, rng, monkeypatch):
        big, small = random_complex(rng, 8), 1e-6 * random_complex(rng, 8)
        calls = self._count_lapack(monkeypatch)
        assert max_norm([("big", big), ("small", small), ("s2", small)])[1] == "big"
        assert len(calls["eigvalsh"]) == 1 and not calls["potrf"]
        calls["eigvalsh"].clear()
        max_norm([("small", small), ("big", big)])
        assert len(calls["eigvalsh"]) == 1 and not calls["potrf"]

    def test_no_terms_rejected(self):
        with pytest.raises(errors.ValidationError):
            max_norm([])

    def test_tiny_term_is_not_lost_to_underflow(self):
        # the squares of these entries underflow, so a Frobenius norm summed
        # without scaling reads 0 and would skip the term
        tiny = 1e-170 * np.array([[1.0, 2.0], [2.0, -1.0]])
        value, name = max_norm([("zero", np.zeros((2, 2))), ("tiny", tiny)])
        assert (value, name) == (operator_norm(tiny), "tiny")
        assert value > 0

    @pytest.mark.parametrize("kind", ["hermitian", "anti_hermitian", "real", "complex", "rectangular"])
    def test_cholesky_skips_a_term_the_frobenius_bound_cannot(self, rng, monkeypatch, kind):
        # "top" has the larger Frobenius norm, so it is visited first
        # whatever the input order; "full" has a Frobenius norm above
        # ||top|| and a spectral norm below it, so only the Cholesky
        # certificate skips it: one eigenvalue solve, of top's operand, and
        # the proof's factorizations of full's (two for a Hermitian form)
        def term(scale):
            G = random_complex(rng, 24)
            M = {
                "hermitian": G + G.conj().T, "anti_hermitian": G - G.conj().T,
                "real": G.real, "complex": G, "rectangular": G[:, :12],
            }[kind]
            return M * (scale / operator_norm(M))

        full, top = term(0.8), term(1.0)
        assert np.linalg.norm(top) > np.linalg.norm(full) > operator_norm(top)
        norm = operator_norm(top)
        calls = self._count_lapack(monkeypatch)
        assert max_norm([("full", full), ("top", top)]) == (norm, "top")
        assert len(calls["eigvalsh"]) == 1
        assert len(calls["potrf"]) == (2 if kind in ("hermitian", "anti_hermitian") else 1)

    @pytest.mark.parametrize("marked", [True, False])
    def test_symmetric_spectrum_takes_one_factorization(self, rng, monkeypatch, marked):
        # [[0, G], [G*, 0]] has the spectrum +-sigma(G); marked so, its
        # Cholesky proof is the one factorization of t I - H
        def term(scale):
            G = random_complex(rng, 12)
            M = np.block([[0 * G, G], [G.conj().T, 0 * G]])
            return M * (scale / operator_norm(M))

        full, top = term(0.8), term(1.0)
        norm = operator_norm(top)
        assert np.linalg.norm(full) > norm
        calls = self._count_lapack(monkeypatch)
        terms = [("full", full, True) if marked else ("full", full), ("top", top)]
        assert max_norm(terms) == (norm, "top")
        assert len(calls["eigvalsh"]) == 1
        assert len(calls["potrf"]) == (1 if marked else 2)

    def test_frobenius_tie_overtaken_is_never_solved(self, rng, monkeypatch):
        # a and b have Frobenius norms within the 1e-10 slack, and a2, b2
        # are their mirror images; a, visited first, has the smaller
        # spectral norm.  a2 cannot be proved below a, so its solve is put
        # off and never run once b beats it; b2 ties the maximum and is solved
        Q1, Q2 = random_unitary(rng, 6), random_unitary(rng, 6)
        wa = np.array([1.0, 1.0, 0.9, 0.5, 0.4, 0.3])
        wb = wa.copy()
        wb[:2] = 1.001
        wb[2] = np.sqrt(wa @ wa - wb[:2] @ wb[:2] - wa[3:] @ wa[3:]) * (1 - 1e-12)
        a, b = [(Q * w) @ Q.conj().T for Q, w in ((Q1, wa), (Q2, wb))]
        a, b = [(M + M.conj().T) / 2 for M in (a, b)]
        terms = [("a", a), ("a2", a.copy()), ("b", b), ("b2", b.copy())]
        assert np.linalg.norm(b) < np.linalg.norm(a) < np.linalg.norm(b) * (1 + 1e-11)
        norms = [operator_norm(M) for _, M in terms]
        calls = self._count_lapack(monkeypatch)
        assert max_norm(terms) == (max(norms), "b")
        assert len(calls["eigvalsh"]) == 3  # a, b and b2; not a2

    @classmethod
    def _count_grams(cls, monkeypatch):
        return cls._count_lapack(monkeypatch)["herk"]

    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_one_gram_per_visited_term(self, rng, monkeypatch, kind):
        # the tie is visited and solved (its Cholesky proof fails) from the
        # Gram matrix the proof factored; the small term is skipped by its
        # Frobenius norm and forms none
        G = random_complex(rng, 30)[:, :8]
        top = G if kind == "complex" else G.real
        terms = [("top", top), ("tie", top.copy()), ("small", 1e-3 * top)]
        norm = operator_norm(top)
        calls = self._count_grams(monkeypatch)
        assert max_norm(terms) == (norm, "top")
        assert len(calls) == 2

    def test_gram_of_a_failed_proof_gives_the_norm(self, rng, monkeypatch):
        # "wide" is visited first for its Frobenius norm; the rank-one
        # "peak" beats its spectral norm by 1e-3, so the Cholesky proof
        # fails and the Gram it factored gives the maximum
        G = random_complex(rng, 30)[:, :8]
        wide = G / operator_norm(G)
        u, v = random_complex(rng, 30)[:, :1], random_complex(rng, 8)[:, :1]
        peak = u @ v.conj().T
        peak *= (1 + 1e-3) / operator_norm(peak)
        assert np.linalg.norm(wide) > np.linalg.norm(peak)
        norm = operator_norm(peak)
        calls = self._count_lapack(monkeypatch)
        assert max_norm([("wide", wide), ("peak", peak)]) == (norm, "peak")
        assert len(calls["potrf"]) == 1 and len(calls["eigvalsh"]) == 2
        assert len(calls["herk"]) == 2

    def test_exact_ties_name_the_first(self, rng):
        H = random_hermitian(rng, 12)
        G = random_complex(rng, 12)[:, :5]
        terms = [("g", G), ("h", H), ("h2", H.copy()), ("g2", G.copy()), ("ih", 1j * H)]
        norms = [operator_norm(M) for _, M in terms]
        value, name = max_norm(terms)
        assert value == max(norms)
        assert name == terms[norms.index(value)][0]

    def test_empty_term(self):
        assert max_norm([("e", np.zeros((0, 0)))]) == (0.0, "e")
        assert max_norm([("e", np.zeros((0, 3))), ("i", np.eye(2))]) == (1.0, "i")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_term_is_never_skipped(self, rng, monkeypatch, bad):
        # no Cholesky proof is tried on the non-finite term
        big = 100.0 * np.eye(8)
        big[0, 1] = 1.0
        small = 1e-3 * random_complex(rng, 8)
        small[2, 3] = bad
        calls = self._count_lapack(monkeypatch)
        with pytest.raises(errors.ValidationError, match="non-finite"):
            max_norm([("big", big), ("small", small)])
        assert not calls["potrf"]


class TestMaxNormProperty:
    """max_norm(terms) == (max(operator_norm), first maximizer in input
    order), bit for bit, whichever certificate skips a term: terms of
    every norm route, zeros, exact ties, and terms within 1e-12 and 1e-9
    of an earlier one, where a Cholesky margin too thin would skip a term
    that ties or beats the maximum."""

    NEAR = {"up12": 1 + 1e-12, "down12": 1 - 1e-12, "up9": 1 + 1e-9, "down9": 1 - 1e-9}

    @staticmethod
    def _term(rng, kind, n=10):
        G = random_complex(rng, n) * 10.0 ** rng.uniform(-1, 1)
        if kind == "hermitian":
            return G + G.conj().T
        if kind == "anti_hermitian":
            return G - G.conj().T
        if kind == "real":
            return G.real
        if kind == "rectangular":
            return G[:, :4] if rng.random() < 0.5 else G[:3, :]
        if kind == "rank_one":  # ||M|| = ||M||_F: visited late for its norm
            return np.outer(G[0], G[0].conj())
        if kind == "zero":
            return np.zeros((n, n))
        return G

    @classmethod
    def _terms(cls, rng, kinds):
        out = []
        for kind in kinds:
            prev = out[-1][1] if out else None
            if kind == "tie" and prev is not None:
                M = prev.copy()
            elif kind in cls.NEAR and prev is not None and operator_norm(prev) > 0:
                # a fresh term of another structure, so its Frobenius norm,
                # and with it its place in the visiting order, differs
                M = cls._term(rng, rng.choice(["hermitian", "anti_hermitian", "real", "rank_one"]))
                M = M * (cls.NEAR[kind] * operator_norm(prev) / operator_norm(M))
            else:
                M = cls._term(rng, kind)
            out.append((f"t{len(out)}", M))
        return out

    @example(kinds=["hermitian", "up12", "down12", "tie"], seed=0)
    @example(kinds=["rank_one", "anti_hermitian", "down9", "up9", "real"], seed=1)
    @example(kinds=["zero", "zero"], seed=2)
    @given(
        kinds=st.lists(
            st.sampled_from(["hermitian", "anti_hermitian", "real", "complex", "rectangular",
                             "rank_one", "zero", "tie", *NEAR]),
            min_size=1, max_size=7,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_max_of_operator_norms_and_names_the_first(self, kinds, seed):
        terms = self._terms(np.random.default_rng(seed), kinds)
        norms = [operator_norm(M) for _, M in terms]
        value, name = max_norm(terms)
        assert value == max(norms)
        assert name == terms[norms.index(value)][0]


def _reference_exceeds(X, tol, scale_of=None):
    scale = 1.0 if scale_of is None else max(1.0, operator_norm(scale_of))
    return operator_norm(X) > tol * scale


class TestNormExceeds:
    def test_full_rank_frobenius_above_spectral_below(self, rng):
        X = 0.5 * random_unitary(rng, 16)  # ||X||_F = 2, ||X|| = 0.5
        assert not norm_exceeds(X, 1.0)
        assert norm_exceeds(X, 0.4)

    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
    def test_rank_one_at_the_bound(self, rng, factor):
        u = random_complex(rng, 9)[:, :1]
        v = random_complex(rng, 9)[:, :1]
        X = u @ v.conj().T
        tol = operator_norm(X) / factor
        assert norm_exceeds(X, tol) == (factor > 1)
        assert norm_exceeds(X, tol) == _reference_exceeds(X, tol)

    @pytest.mark.parametrize("scale", [0.3, 1.0, 100.0])
    def test_scale_below_and_above_one(self, rng, scale):
        A = scale * random_unitary(rng, 8)
        X = random_complex(rng, 8)
        norm = operator_norm(X)
        for tol in (norm / 0.3 / 1.01, norm / 1.01, norm / 100 / 1.01, norm / 100 * 1.01):
            assert norm_exceeds(X, tol, scale_of=A) == _reference_exceeds(X, tol, A)
        # with ||A|| < 1 the max(1, .) keeps the threshold at tol itself
        if scale < 1:
            assert norm_exceeds(X, norm / 1.01, scale_of=A)

    def test_random_property(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 12))
            rank = int(rng.integers(1, n + 1))
            X = random_complex(rng, n)[:, :rank] @ random_complex(rng, n)[:rank, :]
            X *= 10.0 ** rng.uniform(-12, 2)
            A = None if trial % 3 == 0 else random_hermitian(rng, n) * 10.0 ** rng.uniform(-2, 2)
            spec = operator_norm(X)
            fro = float(np.linalg.norm(X))
            scale = 1.0 if A is None else max(1.0, operator_norm(A))
            for target in (spec, fro, (spec + fro) / 2, spec * (1 + 1e-7), spec * (1 - 1e-7)):
                tol = target / scale
                assert norm_exceeds(X, tol, scale_of=A) == _reference_exceeds(X, tol, A)

    def test_tiny_matrix_is_not_lost_to_underflow(self):
        # the squares of these entries underflow, so a Frobenius norm summed
        # without scaling reads 0 and would decide False
        tiny = 1e-170 * np.array([[1.0, 2.0], [2.0, -1.0]])
        assert operator_norm(tiny) > 1e-200
        assert norm_exceeds(tiny, 1e-200)
        assert norm_exceeds(tiny.astype(complex), 1e-200)

    def test_zero_and_empty(self):
        assert not norm_exceeds(np.zeros((4, 4)), 0.0)
        assert not norm_exceeds(np.zeros((0, 0)), 1e-8)

    def test_small_residual_needs_no_spectral_norm(self, rng, monkeypatch):
        import acbott.matkernel as mk

        def no_norm(X):
            raise AssertionError("operator_norm called")

        monkeypatch.setattr(mk, "operator_norm", no_norm)
        A = random_hermitian(rng, 32)
        X = 1e-14 * random_complex(rng, 32)
        assert not norm_exceeds(X, 1e-8, scale_of=A)
        assert not norm_exceeds(X, 1e-8)



I4, I8 = np.eye(4), np.eye(8)
# members of two sizes (or none) that pass every other check, so only the
# size rule can reject them: a sphere triple, a unitary pair, dense and
# 1-D position quadruples (the flips are Hermitian but not diagonal)
TRIPLE = (0.6 * I4, 0.8 * I8, 0 * I4)
DENSE = (np.fliplr(I4), 0 * I4, np.fliplr(I8), 0 * I8)
DIAGONALS = (np.ones(4), np.zeros(4), np.ones(8), np.zeros(8))
SIZE_CONTRACT = {
    "bott_matrix": lambda: bott_matrix(*TRIPLE),
    "bott_index": lambda: bott_index(*TRIPLE),
    "pf_bott_index": lambda: pf_bott_index(*TRIPLE),
    "sphere_residual": lambda: sphere_residual(*TRIPLE),
    "torus_to_sphere": lambda: torus_to_sphere(I4, I8),
    "bott_index_unitaries": lambda: bott_index_unitaries(I4, I8),
    "pf_bott_unitaries": lambda: pf_bott_unitaries(I4, I8),
    "torus2_residual": lambda: torus2_residual(I4, I8),
    "torus4_residual_dense": lambda: torus4_residual(*DENSE),
    "torus4_residual_1d": lambda: torus4_residual(*DIAGONALS),
    "disk_residual": lambda: disk_residual(I4, I8),
    "compress_positions": lambda: compress_positions(I4[:, :2], DIAGONALS),
    "selfdual_double": lambda: selfdual_double(I4, I8),
    "chi_embed": lambda: chi_embed(I4, I8),
    "spread": lambda: spread([I4, I8], I4[:, :1]),
    "eigenbasis_commuting": lambda: eigenbasis_commuting([I4, I8]),
    "extract_symmetric": lambda: commuting_pair_from_sphere(*TRIPLE, SymmetryClass.SYMMETRIC),
    "extract_selfdual": lambda: commuting_pair_from_sphere(*TRIPLE, SymmetryClass.SELF_DUAL),
    "spread_empty": lambda: spread([], I4[:, :1]),
    "eigenbasis_commuting_empty": lambda: eigenbasis_commuting([]),
}


@pytest.mark.parametrize("case", SIZE_CONTRACT)
def test_size_contract(case):
    """Every entry point taking a matrix tuple raises ShapeMismatch for two sizes."""
    with pytest.raises(errors.ShapeMismatch):
        SIZE_CONTRACT[case]()


Z0 = np.zeros((0, 0))
EMPTY_CONTRACT = {
    "bott_index": (lambda: bott_index(Z0, Z0, Z0), errors.ShapeMismatch),
    "pf_bott_index": (lambda: pf_bott_index(Z0, Z0, Z0), errors.ShapeMismatch),
    "bott_index_unitaries": (lambda: bott_index_unitaries(Z0, Z0), errors.ShapeMismatch),
    "pf_bott_unitaries": (lambda: pf_bott_unitaries(Z0, Z0), errors.ShapeMismatch),
    "torus4_residual_dense": (lambda: torus4_residual(Z0, Z0, Z0, Z0), errors.ShapeMismatch),
    "torus4_residual_1d": (lambda: torus4_residual(*[np.zeros(0)] * 4), errors.ShapeMismatch),
    "k2_twisted_witness": (lambda: k2_twisted_witness(Z0), errors.BadDimension),
    "k2_real_witness": (lambda: k2_real_witness(Z0), errors.BadDimension),
    "k2_quaternion_witness": (lambda: k2_quaternion_witness(Z0), errors.BadDimension),
    "polar_product_check": (lambda: polar_product_check(Z0, Z0), errors.HypothesisFailed),
    "signature": (lambda: signature(Z0), errors.ShapeMismatch),
    "herm_eig": (lambda: herm_eig(Z0), errors.ShapeMismatch),
    "polar": (lambda: polar(Z0), errors.ShapeMismatch),
    "sqrt_psd": (lambda: sqrt_psd(Z0), errors.ShapeMismatch),
    "real_skew_canonical": (lambda: real_skew_canonical(Z0), errors.BadDimension),
    "diag_anti_selfdual": (lambda: diag_anti_selfdual(Z0), errors.BadDimension),
    "skew_representative": (lambda: skew_representative(0), errors.BadDimension),
}


@pytest.mark.parametrize("case", EMPTY_CONTRACT)
def test_empty_input_is_bad_input(case, capfd):
    """Empty matrices are malformed input (ValidationError, CLI exit 2),
    never an obstruction read from an empty spectrum, and reach no LAPACK
    routine that would complain on stderr."""
    call, error = EMPTY_CONTRACT[case]
    with pytest.raises(error, match="nonempty|positive multiple of 4"):
        call()
    assert capfd.readouterr().err == ""


def _read_config_line_without_equals(tmp):
    (tmp / "c.cfg").write_text("L = 4\nflux\n")
    return read_config(tmp / "c.cfg")


# validation rules that no other test reaches, each with the error it raises
ERROR_CONTRACT = {
    "compress_positions_three": (
        lambda tmp: compress_positions(I4[:, :2], (np.ones(4),) * 3), errors.ShapeMismatch),
    "as_square_non_finite": (
        lambda tmp: as_square([[1.0, np.nan], [0.0, 1.0]]), errors.ValidationError),
    "read_config_no_equals": (_read_config_line_without_equals, errors.ValidationError),
    "pfaffian_combinatorial_odd": (
        lambda tmp: pfaffian_combinatorial(np.zeros((3, 3))), errors.OddDimension),
    "pfaffian_combinatorial_not_skew": (lambda tmp: pfaffian_combinatorial(I4), errors.NotSkew),
    "time_reversal_odd": (lambda tmp: time_reversal(np.ones(3)), errors.OddDimension),
    "symplectic_form_zero": (lambda tmp: symplectic_form(0), errors.BadDimension),
    "voiculescu_one": (lambda tmp: voiculescu(1), errors.ValidationError),
    "write_matrix_3d": (
        lambda tmp: write_matrix(tmp / "m.json", np.zeros((2, 2, 2))), errors.ValidationError),
    "lattice_spec_float_L": (lambda tmp: LatticeSpec(L=2.5), errors.ValidationError),
    "lattice_spec_bool_orbitals": (
        lambda tmp: LatticeSpec(L=4, orbitals=True), errors.ValidationError),
    # each seed case is a call that succeeds at seed=0
    "compressed_index_negative_seed": (
        lambda tmp: compressed_index(I4, torus_positions(LatticeSpec(L=2)), seed=-1),
        errors.ValidationError),
    "compressed_index_float_seed": (
        lambda tmp: compressed_index(I4, torus_positions(LatticeSpec(L=2)), seed=1.5),
        errors.ValidationError),
    "extract_negative_seed": (
        lambda tmp: commuting_pair_from_sphere(I4, 0 * I4, 0 * I4, seed=-1),
        errors.ValidationError),
    "eigenbasis_commuting_bool_seed": (
        lambda tmp: eigenbasis_commuting([I4], seed=True), errors.ValidationError),
}


@pytest.mark.parametrize("case", ERROR_CONTRACT)
def test_error_contract(case, tmp_path):
    """Each validation rule raises its named ValidationError subclass."""
    call, error = ERROR_CONTRACT[case]
    with pytest.raises(error):
        call(tmp_path)
