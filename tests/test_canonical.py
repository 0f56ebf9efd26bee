import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack

from acbott import canonical, errors, matkernel
from acbott.canonical import (
    commuting_pair_from_sphere,
    diag_anti_selfdual,
    k2_quaternion_witness,
    k2_real_witness,
    k2_twisted_witness,
    polar_product_check,
    real_skew_canonical,
    skew_representative,
    sqrt_psd,
)
from acbott.invariants import bott_matrix, compressed_index, torus_to_sphere
from acbott.matkernel import (
    operator_norm,
    pfaffian_combinatorial,
    pfaffian_real_skew,
    polar,
)
from acbott.models import (
    LatticeSpec, gap_levels, harper_projection, selfdual_double, torus_positions, voiculescu,
)
from acbott.symmetry import (
    SymmetryClass, dual, phi_conjugate, phi_inverse, sharp_sharp, tau_residual,
)
from conftest import (
    commuting_selfdual_triple,
    commuting_symmetric_triple,
    random_antiselfdual_hermitian,
    random_complex,
    random_coupled_unitary,
    random_hermitian,
    random_real_orthogonal,
    random_real_symmetric,
    random_selfdual_hermitian,
    random_symplectic_unitary,
    random_unitary,
    skew_case,
    skew_from_blocks,
)


def mirror_pair(half):
    """diag(I, -I), the trivial class representative, as a dense matrix."""
    return np.diag(np.repeat([1.0, -1.0], half))


def reconstruct_antidual(W, D):
    full = np.diag(np.concatenate([D, -D]))
    return W @ full @ W.conj().T


def symplectic_residual(W):
    return max(
        operator_norm(W @ W.conj().T - np.eye(W.shape[0])),
        operator_norm(dual(W) - W.conj().T),
    )


class TestDiagAntiSelfdual:
    def test_zero_matrix(self):
        # all of C^6 is kernel: any symplectic unitary W is a valid answer
        X = np.zeros((6, 6))
        W, D = diag_anti_selfdual(X)
        assert np.array_equal(D, np.zeros(3))
        assert symplectic_residual(W) <= 1e-12
        assert np.array_equal(reconstruct_antidual(W, D), X)

    def test_two_by_two(self):
        X = np.array([[0.0, 1j], [-1j, 0.0]])
        W, D = diag_anti_selfdual(X)
        assert D == pytest.approx([1.0])
        assert operator_norm(X - reconstruct_antidual(W, D)) <= 1e-12

    def test_random_instances(self, rng):
        for half in (2, 4, 6):
            X = random_antiselfdual_hermitian(rng, half)
            W, D = diag_anti_selfdual(X)
            assert np.all(D >= 0)
            assert operator_norm(X - reconstruct_antidual(W, D)) <= 1e-9
            assert symplectic_residual(W) <= 1e-10

    def test_with_kernel(self, rng):
        X = random_antiselfdual_hermitian(rng, 4)
        w, V = np.linalg.eigh(X)
        w[3] = w[4] = 0.0  # symmetric pair squashed to zero
        X2 = (V * w) @ V.conj().T
        X2 = (X2 - dual(X2)) / 2
        X2 = (X2 + X2.conj().T) / 2
        W, D = diag_anti_selfdual(X2)
        assert operator_norm(X2 - reconstruct_antidual(W, D)) <= 1e-9
        assert symplectic_residual(W) <= 1e-10

    def test_wrong_symmetry(self, rng):
        with pytest.raises(errors.WrongSymmetry):
            diag_anti_selfdual(random_complex(rng, 6))

    @pytest.mark.parametrize("upper, lower, d", [(1.2e-10, -0.8e-10, 1.2e-10),
                                                 (0.8e-10, -1.2e-10, 0.0)])
    def test_pair_straddling_kernel_tol(self, rng, upper, lower, d):
        # partners on either side of KERNEL_TOL = 1e-10: the upper-half
        # index decides, so the pair is one D entry or a paired kernel
        W0, _ = diag_anti_selfdual(random_antiselfdual_hermitian(rng, 3))
        A = reconstruct_antidual(W0, np.array([1.0, 0.5, 0.0]))
        w = np.array([-1.0, -0.5, lower, upper, 0.5, 1.0])
        V = W0[:, [3, 4, 5, 2, 1, 0]]  # T v_i carries -D_i
        W, D = canonical._symplectic_basis(A, w, V)
        assert np.array_equal(D, [1.0, 0.5, d])
        assert symplectic_residual(W) <= 1e-12
        assert operator_norm(A - reconstruct_antidual(W, D)) <= 1e-9

    def test_kernel_not_closed_under_time_reversal(self):
        # the kernel block e_1, e_2 of (w, V) is sent by T onto e_3, e_0
        w = np.array([-1.0, 0.0, 0.0, 1.0])
        with pytest.raises(errors.PairingFailure, match="time reversal"):
            canonical._symplectic_basis(np.zeros((4, 4)), w, np.eye(4, dtype=complex))

    def test_large_norm_kernel_within_gate(self, rng):
        # ||X|| = 100 with a 2-dim kernel; a self-dual coupling between the
        # kernel and the rest leaves X anti-self-dual only to 0.4 of the
        # relative gate, and turns the kernel span by about 1e-7
        W, _ = diag_anti_selfdual(random_antiselfdual_hermitian(rng, 4))
        D = np.array([100.0, 50.0, 1.0, 0.0])
        X = reconstruct_antidual(W, D)
        Pk = W[:, [3, 7]] @ W[:, [3, 7]].conj().T
        E = Pk @ random_selfdual_hermitian(rng, 4) @ (np.eye(8) - Pk)
        E = E + E.conj().T
        X = X + E * (0.4e-6 / operator_norm(dual(E) + E))
        W2, D2 = diag_anti_selfdual(X)
        assert D2 == pytest.approx(D, abs=1e-6)
        # W is symplectic unitary only to about the anti-self-duality defect
        assert operator_norm(X - reconstruct_antidual(W2, D2)) <= 1e-5
        assert symplectic_residual(W2) <= 1e-6


def scaled_antidual_involution(rng, half, spread):
    """Anti-self-dual Hermitian S with ||S^2 - I|| = spread, built by
    scaling the eigenvalues of an exact involution."""
    X = random_antiselfdual_hermitian(rng, half)
    W, _ = diag_anti_selfdual(X)
    top = 1.0 + spread
    d = np.sqrt(np.linspace(max(1.0 - spread, 0.0), top, half))
    return reconstruct_antidual(W, d), W


class TestQuaternionWitness:
    def test_exact_mirror(self):
        S = mirror_pair(4)
        rep = k2_quaternion_witness(S)
        assert rep.bound <= 1e-12
        assert rep.certified

    def test_polar_of_symmetric_bott_matrix(self, rng):
        Hs = commuting_symmetric_triple(rng, 8)
        noisy = []
        for H in Hs:
            G = rng.standard_normal((8, 8))
            G = (G + G.T) / 2
            noisy.append(H + 0.05 * G / operator_norm(G))
        S = polar(bott_matrix(*noisy))
        S = (S + S.conj().T) / 2
        rep = k2_quaternion_witness(S)
        assert rep.certified
        assert symplectic_residual(rep.witness) <= 1e-10

    def test_bound_tracks_norm_condition(self, rng):
        S, _ = scaled_antidual_involution(rng, 5, 0.5)
        rep = k2_quaternion_witness(S)
        assert rep.norm_condition == pytest.approx(0.5, abs=1e-9)
        assert rep.bound <= 0.5 + 1e-8

    def test_norm_condition_failure(self, rng):
        S, _ = scaled_antidual_involution(rng, 4, 1.5)
        with pytest.raises(errors.NormConditionFailed):
            k2_quaternion_witness(S)


class TestRealSkewCanonical:
    def test_already_canonical(self):
        a, b = 2.0, 0.5
        R = np.zeros((4, 4))
        R[0, 1], R[1, 0] = a, -a
        R[2, 3], R[3, 2] = b, -b
        U, vals = real_skew_canonical(R)
        assert sorted(np.abs(vals)) == pytest.approx([b, a])
        D = np.zeros((4, 4))
        for i, v in enumerate(vals):
            D[2 * i, 2 * i + 1], D[2 * i + 1, 2 * i] = v, -v
        assert operator_norm(R - U @ D @ U.T) <= 1e-12
        assert np.linalg.det(U) == pytest.approx(1.0)

    def test_trivial_representative_sign_layout(self):
        for n in (1, 2, 3):
            R = (-1j * skew_representative(4 * n)).real
            U, vals = real_skew_canonical(R)
            assert np.abs(vals) == pytest.approx(np.ones(2 * n))
            assert np.sign(np.prod(vals)) == (-1) ** n
            assert np.all(vals[1:] > 0)
            assert np.sign(vals[0]) == (-1) ** n

    def test_skew_representative_blocks(self):
        block = np.array([[0.0, 1j], [-1j, 0.0]])
        for n in (1, 2, 3, 4, 16):
            expected = sla.block_diag((-1) ** n * block, *[block] * (2 * n - 1))
            assert np.array_equal(skew_representative(4 * n), expected)

    def test_pfaffian_identity(self, rng):
        M = rng.standard_normal((8, 8))
        R = M - M.T
        U, vals = real_skew_canonical(R)
        assert pfaffian_real_skew(R) == pytest.approx(
            np.linalg.det(U) * np.prod(vals), rel=1e-8
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_pivot_is_rank_deficient(self, seed):
        # Pf R = 0 exactly, yet at this scale the bidiagonal SVD can leave
        # every |a_i| above RANK_TOL; the reduction's zero pivot gives the
        # orientation sign 0, and the sign split is undefined
        e = np.random.default_rng(seed).uniform(0.5, 2.0, 7) * 1e8
        e[0] = 0.0
        R = np.diag(e, 1)
        with pytest.raises(errors.RankDeficient):
            real_skew_canonical(R - R.T)

    def test_rejections(self, rng):
        with pytest.raises(errors.NotRealSkew):
            real_skew_canonical(np.eye(4))
        with pytest.raises(errors.RankDeficient):
            R = np.zeros((4, 4))
            R[0, 1], R[1, 0] = 1.0, -1.0
            real_skew_canonical(R)


    @pytest.mark.parametrize("kind", ["generic", "repeated", "clustered"])
    @pytest.mark.parametrize("n", [4, 8, 12, 16, 64, 512])
    def test_normalized_form_against_pfaffian(self, n, kind):
        rng = np.random.default_rng(1710 + n)
        R = skew_case(rng, kind, n)
        U, vals = real_skew_canonical(R)
        assert np.linalg.det(U) == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals[1:] > 0)
        pf = pfaffian_combinatorial(R).real if n <= 12 else pfaffian_real_skew(R)
        assert np.prod(vals) == pytest.approx(pf, rel=1e-10)

    @pytest.mark.parametrize("n", [16, 64])
    def test_rank_deficient_below_rank_tol(self, rng, n):
        a = rng.uniform(0.5, 2.0, n // 2)
        a[n // 4] = 0.1 * canonical.RANK_TOL
        with pytest.raises(errors.RankDeficient):
            real_skew_canonical(skew_from_blocks(rng, a))
        with pytest.raises(errors.RankDeficient):
            real_skew_canonical(skew_case(rng, "zero-blocks", n))


def conjugated_representative(rng, n_blocks_half, spread=0.2, flip_block=None):
    """Hermitian antisymmetric S of size 4*n built from scaled canonical
    blocks conjugated by a rotation; flip_block switches one block's sign
    (flipping the Pfaffian)."""
    size = 4 * n_blocks_half
    Q = random_real_orthogonal(rng, size)
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]  # keep the conjugation in SO(4n)
    scale = 1 + spread * (rng.random(size // 2) - 0.5)
    D = np.zeros((size, size))
    for i, s in enumerate(scale):
        D[2 * i, 2 * i + 1], D[2 * i + 1, 2 * i] = s, -s
    D[0, 1] *= (-1) ** n_blocks_half
    D[1, 0] *= (-1) ** n_blocks_half
    if flip_block is not None:
        D[2 * flip_block, 2 * flip_block + 1] *= -1
        D[2 * flip_block + 1, 2 * flip_block] *= -1
    X = Q @ D @ Q.T
    S = 1j * X
    return (S + S.conj().T) / 2


class TestRealWitness:
    def test_fixed_representative(self):
        rep = k2_real_witness(skew_representative(8))
        assert rep.bound <= 1e-12
        assert rep.certified

    def test_flipped_block_is_nontrivial(self):
        S0 = skew_representative(8)
        S = S0.copy()
        S[2, 3] *= -1
        S[3, 2] *= -1
        with pytest.raises(errors.NontrivialClass):
            k2_real_witness(S)

    def test_random_trivial_instances_certified(self, rng):
        for _ in range(5):
            S = conjugated_representative(rng, 2)
            rep = k2_real_witness(S)
            assert rep.certified
            W = rep.witness
            assert np.abs(W.imag).max() <= 1e-12
            assert operator_norm(W @ W.conj().T - np.eye(8)) <= 1e-10
            assert np.linalg.det(W.real) == pytest.approx(1.0, abs=1e-9)

    def test_dichotomy_matches_independent_pfaffian(self, rng):
        hits = {"trivial": 0, "nontrivial": 0}
        for trial in range(20):
            flip = 1 if trial % 2 else None
            S = conjugated_representative(rng, 2, flip_block=flip)
            pf_oracle = pfaffian_combinatorial(S).real
            try:
                k2_real_witness(S)
                assert pf_oracle > 0
                hits["trivial"] += 1
            except errors.NontrivialClass:
                assert pf_oracle < 0
                hits["nontrivial"] += 1
        assert hits["trivial"] and hits["nontrivial"]


class TestTwistedWitness:
    def test_mirror_is_certified(self):
        rep = k2_twisted_witness(mirror_pair(4))
        assert rep.bound <= 1e-10
        assert rep.certified
        W = rep.witness
        assert operator_norm(sharp_sharp(W) - W.conj().T) <= 1e-9

    def test_doubled_voiculescu_polar_is_nontrivial(self):
        V1, V2 = selfdual_double(*voiculescu(16))
        S = polar(bott_matrix(*torus_to_sphere(V1, V2)))
        S = (S + S.conj().T) / 2
        with pytest.raises(errors.NontrivialClass):
            k2_twisted_witness(S)

    def test_commuting_selfdual_polar_is_certified(self, rng):
        Hs = commuting_selfdual_triple(rng, 4)
        S = polar(bott_matrix(*Hs))
        S = (S + S.conj().T) / 2
        rep = k2_twisted_witness(S)
        assert rep.certified
        W = rep.witness
        n = W.shape[0]
        assert operator_norm(W @ W.conj().T - np.eye(n)) <= 1e-9
        assert operator_norm(sharp_sharp(W) - W.conj().T) <= 1e-9

    def test_anti_fixed_condition_is_checked_once(self, rng, monkeypatch):
        # ||Phi(S) + Phi(S)^T|| = ||S## + S||, so Phi(S) is not checked again;
        # S is exactly Hermitian, so the Hermitian gate computes no norm
        S = noisy_bott_matrix(rng, SymmetryClass.SELF_DUAL, 4)
        shapes = []
        for module in (canonical, matkernel):
            real = module.norm_exceeds

            def counting(X, *args, real=real, **kwargs):
                shapes.append(np.shape(X))
                return real(X, *args, **kwargs)

            monkeypatch.setattr(module, "norm_exceeds", counting)
        assert k2_twisted_witness(S).certified
        assert shapes.count(S.shape) == 1

    def test_witness_is_the_complex_pullback(self, rng):
        """The pullback of a real W2 W1^T equals that of its complex copy,
        W2 being the real witness of Phi(S)."""
        S = noisy_bott_matrix(rng, SymmetryClass.SELF_DUAL, 6)
        W2 = k2_real_witness(phi_conjugate(S)).witness
        cols, phases = canonical._reference_map(S.shape[0])
        assert np.array_equal(k2_twisted_witness(S).witness, phi_inverse(W2[:, cols] * phases))

    def test_memory_rise(self, rng):
        # S of size 512 (an extraction at n = 256); a pullback through a
        # complex copy of the real W2 W1^T rises 4.0 S.nbytes
        S = noisy_bott_matrix(rng, SymmetryClass.SELF_DUAL, 128)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            k2_twisted_witness(S)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rise < 3.75 * S.nbytes

    def test_reference_is_exact(self):
        """W1, the signed permutation behind W2 W1^T = W2[:, cols] * phases,
        carries S0 to Phi(diag(I, -I)) exactly, for both parities of N."""
        for N in (*range(1, 9), 128):
            n = 4 * N
            cols, phases = canonical._reference_map(n)
            W1 = (np.eye(n)[:, cols] * phases).T
            assert np.array_equal(W1 @ skew_representative(n) @ W1.T,
                                  phi_conjugate(mirror_pair(2 * N)))


def gram_norm_condition(S):
    """||S^2 - I|| by the Gram route: sqrt(lambda_max(E* E)), E = S^2 - I."""
    E = S @ S - np.eye(S.shape[0])
    return float(np.sqrt(np.linalg.eigvalsh(E.conj().T @ E)[-1]))


def noisy_bott_matrix(rng, symmetry, half, eta=5e-2):
    """Doubled matrix (size 4*half) of a commuting symmetric or self-dual
    sphere triple of size 2*half with structured noise of norm eta."""
    if symmetry is SymmetryClass.SYMMETRIC:
        exact = commuting_symmetric_triple(rng, 2 * half)
        noise = [random_real_symmetric(rng, 2 * half) for _ in range(3)]
    else:
        exact = commuting_selfdual_triple(rng, half)
        noise = [random_selfdual_hermitian(rng, half) for _ in range(3)]
    return bott_matrix(*(H + eta * G / operator_norm(G) for H, G in zip(exact, noise)))


class TestNormConditionFromSpectrum:
    """Each witness reads ||S^2 - I|| from the spectrum it computes anyway
    (eigh for the quaternion witness, the real canonical form for the real
    and twisted ones), still before any symmetry, pairing, rank or class
    error."""

    def test_quaternion(self, rng):
        for S in (scaled_antidual_involution(rng, 5, 0.5)[0],
                  noisy_bott_matrix(rng, SymmetryClass.SYMMETRIC, 8)):
            rep = k2_quaternion_witness(S)
            assert rep.norm_condition > 1e-3
            assert abs(rep.norm_condition - gram_norm_condition(S)) <= 1e-12

    def test_real(self, rng):
        for _ in range(3):
            S = conjugated_representative(rng, 2, spread=0.6)
            rep = k2_real_witness(S)
            assert rep.norm_condition > 1e-3
            assert abs(rep.norm_condition - gram_norm_condition(S)) <= 1e-12

    def test_twisted(self, rng):
        for half in (4, 8):
            S = noisy_bott_matrix(rng, SymmetryClass.SELF_DUAL, half)
            rep = k2_twisted_witness(S)
            assert rep.norm_condition > 1e-3
            assert abs(rep.norm_condition - gram_norm_condition(S)) <= 1e-12

    def test_quaternion_condition_before_symmetry(self, rng):
        H = random_hermitian(rng, 8)
        S = 3.0 * H / operator_norm(H)
        assert operator_norm(dual(S) + S) > 1.0  # not anti-self-dual
        with pytest.raises(errors.NormConditionFailed):
            k2_quaternion_witness(S)

    def test_twisted_condition_before_class(self):
        V1, V2 = selfdual_double(*voiculescu(16))
        S = polar(bott_matrix(*torus_to_sphere(V1, V2)))
        S = (S + S.conj().T) / 2
        with pytest.raises(errors.NontrivialClass):
            k2_twisted_witness(S)
        with pytest.raises(errors.NormConditionFailed):
            k2_twisted_witness(2.5 * S)  # ||S^2 - I|| = 5.25, Pf still negative

    def test_real_condition_before_rank(self, rng):
        S = conjugated_representative(rng, 2)
        w, V = np.linalg.eigh(S)
        w[np.argsort(np.abs(w))[:2]] = 0.0  # one zero block: rank deficient
        S = (V * w) @ V.conj().T
        S = (S - S.T) / 2
        S = (S + S.conj().T) / 2
        with pytest.raises(errors.NormConditionFailed):
            k2_real_witness(S)
        with pytest.raises(errors.RankDeficient):
            real_skew_canonical((-1j * S).real)


class TestWitnessBoundRoute:
    """The bound ||A - W T W*|| is one eigenvalue solve, with no dense form
    of the fixed target T, diag(I, -I) or S0; the dense T appears only
    here, as the reference."""

    @pytest.mark.parametrize(
        "witness", [k2_quaternion_witness, k2_real_witness, k2_twisted_witness]
    )
    def test_bound_matches_dense_target(self, rng, witness, monkeypatch):
        if witness is k2_real_witness:
            S, target = conjugated_representative(rng, 8), skew_representative(32)
        else:
            symmetry = (SymmetryClass.SYMMETRIC if witness is k2_quaternion_witness
                        else SymmetryClass.SELF_DUAL)
            S, target = noisy_bott_matrix(rng, symmetry, 8), mirror_pair(16)
        shapes = []
        real = np.linalg.eigvalsh

        def eigvalsh(A, *args, **kwargs):
            shapes.append(A.shape)
            return real(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        rep = witness(S)
        assert shapes == [(32, 32)]  # the bound; the norm condition takes none
        W = rep.witness
        A = (S + S.conj().T) / 2
        dense = np.linalg.norm(A - W @ target @ W.conj().T, 2)
        assert rep.bound == pytest.approx(dense, rel=1e-10)


def complex_bound(A, W, cols, phases):
    """Reference ||A - W T W*|| on the complex route: T a signed
    permutation applied as its column map, W T = W[:, cols] * phases, and
    the norm of the Hermitian part of the difference."""
    E = A - (W[:, cols] * phases) @ W.conj().T
    return operator_norm((E + E.conj().T) / 2)


class TestRealPictureBounds:
    """The real and twisted witnesses take their bound in the real picture,
    the quaternion witness from the half-width basis; each equals the
    complex ||A - W T W*|| up to rounding."""

    @pytest.mark.parametrize("size", [4, 8, 12, 24, 40, 64])
    def test_real_witness(self, rng, size):
        S = conjugated_representative(rng, size // 4, spread=0.3)
        rep = k2_real_witness(S)
        A = (S + S.conj().T) / 2
        ref = complex_bound(A, rep.witness, *canonical._skew_map(size))
        assert abs(rep.bound - ref) <= 1e-12 * max(1.0, operator_norm(A))
        assert rep.bound > 1e-3  # a bound of the noise, not of rounding

    @pytest.mark.parametrize("size", [4, 8, 12, 24, 40, 64])
    @pytest.mark.parametrize("witness", [k2_quaternion_witness, k2_twisted_witness])
    def test_mirror_target_witnesses(self, rng, size, witness):
        symmetry = (SymmetryClass.SYMMETRIC if witness is k2_quaternion_witness
                    else SymmetryClass.SELF_DUAL)
        S = noisy_bott_matrix(rng, symmetry, size // 4)
        rep = witness(S)
        A = (S + S.conj().T) / 2
        ref = complex_bound(A, rep.witness, slice(None), np.repeat([1.0, -1.0], size // 2))
        assert abs(rep.bound - ref) <= 1e-12 * max(1.0, operator_norm(A))
        assert rep.bound > 1e-3

    def test_twisted_bound_is_the_real_witness_bound_of_phi(self, rng):
        S = noisy_bott_matrix(rng, SymmetryClass.SELF_DUAL, 6)
        assert k2_twisted_witness(S).bound == pytest.approx(
            k2_real_witness(phi_conjugate(S)).bound, rel=1e-12)


class TestMrrrWitness:
    """The quaternion witness takes its eigendecomposition from one MRRR
    solve (zheevr), orthonormal to about 1e-13 where divide and conquer
    reaches 1e-15.  At order 512, on an extraction-style doubled matrix and
    on an exact mirror (eigenvalues +-1, each of multiplicity 256), the
    witness stays unitary to 1e-11 and its bound is the complex one."""

    @pytest.mark.parametrize("case", ["extraction", "exact mirror"])
    def test_order_512(self, rng, case):
        if case == "extraction":
            S = noisy_bott_matrix(rng, SymmetryClass.SYMMETRIC, 128, eta=1e-2)
        else:
            E = random_symplectic_unitary(rng, 256)
            S = (E * np.repeat([1.0, -1.0], 256)) @ E.conj().T
        rep = k2_quaternion_witness(S)
        W = rep.witness
        assert operator_norm(W @ W.conj().T - np.eye(512)) <= 1e-11
        A = (S + S.conj().T) / 2
        ref = complex_bound(A, W, slice(None), np.repeat([1.0, -1.0], 256))
        assert abs(rep.bound - ref) <= 1e-12 * max(1.0, operator_norm(A))
        assert rep.certified


class TestMrrrRoute:
    """Only the quaternion witness takes MRRR: one SYMMETRIC extraction
    runs exactly one MRRR solve (scipy.linalg.eigh with driver "evr", that
    is zheevr), of the doubled size 2n, and no divide and conquer eigh of
    that size; a SELF_DUAL extraction and compressed_index run none."""

    @staticmethod
    def _record(monkeypatch, calls, module, name):
        original = getattr(module, name)

        def recording(A, *args, **kwargs):
            label = "mrrr" if kwargs.get("driver") == "evr" else name
            calls.append((label, np.shape(A)))
            return original(A, *args, **kwargs)

        monkeypatch.setattr(module, name, recording)

    def test_symmetric_extraction_runs_one_mrrr_solve(self, rng, monkeypatch):
        Hs = TestSpectralNormCount._noisy(commuting_symmetric_triple(rng, 24),
                                          lambda: random_real_symmetric(rng, 24))
        calls = []
        self._record(monkeypatch, calls, sla, "eigh")
        self._record(monkeypatch, calls, np.linalg, "eigh")
        commuting_pair_from_sphere(*Hs, SymmetryClass.SYMMETRIC)
        assert [c for c in calls if c[0] == "mrrr"] == [("mrrr", (48, 48))]
        assert ("eigh", (48, 48)) not in calls

    def test_selfdual_extraction_and_compressed_index_run_none(self, rng, monkeypatch):
        calls = []
        self._record(monkeypatch, calls, sla, "eigh")
        Hs = TestSpectralNormCount._noisy(commuting_selfdual_triple(rng, 12),
                                          lambda: random_selfdual_hermitian(rng, 12))
        commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)
        for orbitals, cls in ((1, SymmetryClass.COMPLEX), (2, SymmetryClass.SELF_DUAL)):
            spec = LatticeSpec(L=12, flux=1 / 3, fermi_level=gap_levels(12, 1 / 3, [1 / 3])[0],
                               orbitals=orbitals)
            P, _ = harper_projection(spec)
            assert compressed_index(P, torus_positions(spec), cls, comm_tol=0.5).value == -1
        assert calls == []


class TestCommutingPairExtraction:
    def test_exact_symmetric_triple(self, rng):
        Hs = commuting_symmetric_triple(rng, 10)
        result = commuting_pair_from_sphere(*Hs, SymmetryClass.SYMMETRIC)
        assert result.residuals["commutator"] <= 1e-7
        assert result.residuals["tau"] <= 1e-7
        assert result.residuals["reconstruction"] <= 1e-7
        U = result.U
        assert operator_norm(U @ U.conj().T - np.eye(10)) <= 1e-9

    def test_noise_shrinks_residuals(self, rng):
        Hs = commuting_symmetric_triple(rng, 10)
        res = {}
        for eta in (1e-1, 1e-3):
            noisy = []
            for H in Hs:
                G = rng.standard_normal((10, 10))
                G = (G + G.T) / 2
                noisy.append(H + eta * G / operator_norm(G))
            r = commuting_pair_from_sphere(*noisy, SymmetryClass.SYMMETRIC)
            res[eta] = r.residuals
            # whenever the extraction returns, U is a tau-fixed unitary
            assert operator_norm(r.U @ r.U.conj().T - np.eye(10)) <= 1e-9
            assert r.residuals["tau"] <= 1e-8
        assert res[1e-3]["commutator"] <= res[1e-1]["commutator"] + 1e-9
        assert res[1e-3]["reconstruction"] <= res[1e-1]["reconstruction"] + 1e-9

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps a call's "
                        "arguments on the caller's stack until the call returns")
    def test_selfdual_memory_rise(self, rng):
        # n = 256, so S = B(H1, H2, H3) is 512 x 512: the twisted witness
        # takes S over from the extraction and frees it once Im Phi(S)
        # exists; an extraction that held S through the witness rose 4.5
        # S.nbytes
        exact = commuting_selfdual_triple(rng, 128)
        Hs = TestSpectralNormCount._noisy(exact, lambda: random_selfdual_hermitian(rng, 128))
        S_nbytes = 16 * 512 ** 2
        commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)  # warm-up
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rise < 4 * S_nbytes

    def test_selfdual_obstructed_example(self):
        V1, V2 = selfdual_double(*voiculescu(16))
        Hs = torus_to_sphere(V1, V2)
        with pytest.raises(errors.NontrivialClass):
            commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)

    def test_selfdual_trivial_example(self, rng):
        Hs = commuting_selfdual_triple(rng, 4)
        result = commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)
        assert result.residuals["commutator"] <= 1e-7
        assert result.residuals["tau"] <= 1e-7

    def test_selfdual_gate_names_the_member(self, rng):
        Hs = list(commuting_selfdual_triple(rng, 4))
        Hs[1] = random_hermitian(rng, 8)
        with pytest.raises(errors.WrongSymmetry, match="^H2 is not self-dual$"):
            commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)

    @pytest.mark.parametrize("bad", ["symmetric", "selfdual", None])
    def test_non_member_class_rejected(self, rng, bad):
        Hs = commuting_symmetric_triple(rng, 6)
        with pytest.raises(errors.WrongSymmetry, match="SYMMETRIC or SELF_DUAL"):
            commuting_pair_from_sphere(*Hs, bad)

    def test_wrong_class_rejected(self, rng):
        Hs = commuting_symmetric_triple(rng, 6)
        with pytest.raises(errors.WrongSymmetry):
            commuting_pair_from_sphere(*Hs, SymmetryClass.COMPLEX)

    @pytest.mark.parametrize("bad", [SymmetryClass.COMPLEX, "symmetric"])
    def test_class_checked_before_the_input_residual(self, rng, monkeypatch, bad):
        # the input residual is O(n^3); a class no witness serves costs none
        calls = []
        real = canonical.max_norm
        monkeypatch.setattr(canonical, "max_norm", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(errors.WrongSymmetry):
            commuting_pair_from_sphere(*commuting_symmetric_triple(rng, 6), bad)
        assert calls == []

    @pytest.mark.parametrize("symmetry", [SymmetryClass.SYMMETRIC, SymmetryClass.SELF_DUAL])
    def test_retry_moves_singular_blocks(self, monkeypatch, symmetry):
        # sphere points at the poles make a witness block singular, so the
        # extraction rotates the witness inside its structured group
        pts = np.array([(0, 0, 1), (0, 0, -1), (1, 0, 0), (0, 1, 0),
                        (0.6, 0, 0.8), (0, 0.6, -0.8)], dtype=float)
        Hs = [np.diag(pts[:, r]) for r in range(3)]
        if symmetry is SymmetryClass.SELF_DUAL:
            Hs = [sla.block_diag(H, H) for H in Hs]
        n = Hs[0].shape[0]
        rotations = []
        real = canonical._structured_rotation

        def counted(*args):
            rotations.append(1)
            return real(*args)

        monkeypatch.setattr(canonical, "_structured_rotation", counted)
        res = commuting_pair_from_sphere(*Hs, symmetry)
        assert 1 <= len(rotations) <= canonical.MAX_RETRIES
        assert res.residuals["input"] == 0.0
        assert operator_norm(res.U @ res.U.conj().T - np.eye(n)) <= 1e-12
        # each rotation moves U by about its step, eps ~ 1e-7
        assert res.residuals["commutator"] <= 1e-6
        assert res.residuals["reconstruction"] <= 1e-6
        # self-dual: the retry stops once the smallest block singular value
        # passes BLOCK_SIGMA_MIN_TOL (about 1.5e-8 here), and the polar parts
        # of such blocks keep the tau symmetry only to about 6e-8, which the
        # polar part of (U + U^tau)/2 restores; without the retry the
        # twisted witness's U is not tau-fixed at all
        assert res.residuals["tau"] <= 1e-12
        if symmetry is SymmetryClass.SELF_DUAL:
            monkeypatch.setattr(canonical, "BLOCK_SIGMA_MIN_TOL", 0.0)
            assert commuting_pair_from_sphere(*Hs, symmetry).residuals["tau"] > 0.5

    @pytest.mark.parametrize("noise", [0.0, 1e-2])
    @pytest.mark.parametrize("symmetry", [SymmetryClass.SYMMETRIC, SymmetryClass.SELF_DUAL])
    def test_u_is_the_polar_product_of_the_witness_blocks(self, rng, symmetry, noise):
        # U = polar(A* B) from one SVD equals polar(A)* polar(B), since the
        # blocks are rows of the unitary W*, so A A* + B B* = I
        if symmetry is SymmetryClass.SYMMETRIC:
            exact, witness = commuting_symmetric_triple(rng, 24), k2_quaternion_witness
            Hs = TestSpectralNormCount._noisy(exact, lambda: random_real_symmetric(rng, 24), noise)
        else:
            exact, witness = commuting_selfdual_triple(rng, 12), k2_twisted_witness
            Hs = TestSpectralNormCount._noisy(exact, lambda: random_selfdual_hermitian(rng, 12), noise)
        n = 24
        Wp = witness(bott_matrix(*Hs)).witness.conj().T
        expected = polar(Wp[:n, :n]).conj().T @ polar(Wp[:n, n:])
        result = commuting_pair_from_sphere(*Hs, symmetry)
        assert operator_norm(result.U - expected) <= 1e-12
        assert result.residuals["tau"] <= 1e-10

    @pytest.mark.parametrize("symmetry", [SymmetryClass.SYMMETRIC, SymmetryClass.SELF_DUAL])
    def test_empty_triple_is_shape_mismatch(self, symmetry):
        Z = np.zeros((0, 0))
        with pytest.raises(errors.ShapeMismatch, match="nonempty"):
            commuting_pair_from_sphere(Z, Z, Z, symmetry)

    def test_blocks_staying_singular_is_no_convergence(self, rng, monkeypatch):
        # no retry, and a floor above every singular value of a unitary's block
        monkeypatch.setattr(canonical, "MAX_RETRIES", 0)
        monkeypatch.setattr(canonical, "BLOCK_SIGMA_MIN_TOL", 10.0)
        Hs = commuting_symmetric_triple(rng, 6)
        with pytest.raises(errors.NoConvergence):
            commuting_pair_from_sphere(*Hs, SymmetryClass.SYMMETRIC)


class TestSpectralNormCount:
    """Threshold gates are decided Frobenius-first: the spectral norms left
    in one extraction (counted as eigvalsh calls) are the reported values:
    the input residual's largest term (max_norm skips the others by their
    Frobenius norms or a Cholesky certificate), the witness bound (the norm
    condition comes from the witness's own spectrum) and the three output
    residuals.  The self-dual bound is
    a real eigvalsh, in the real picture.  The twisted witness reads its
    real witness's norm condition as its own, since Phi is a unitary
    conjugation, and its fixed reference W1 is a signed column permutation,
    so a self-dual extraction runs one Householder reduction (its real
    canonical form) and no general real Schur form, already on its first
    call at a size.  Each witness attempt takes one polar SVD, of A* B,
    which gives both the smallest singular value and U = polar(A* B)."""

    @staticmethod
    def _noisy(Hs, noise, eta=1e-2):
        noisy = []
        for H in Hs:
            G = noise()
            noisy.append(H + eta * G / operator_norm(G))
        return noisy

    @staticmethod
    def _count(monkeypatch, call, name="eigvalsh"):
        """The (shape, dtype kind) of each array the call passes to np.linalg.<name>."""
        calls = []
        original = getattr(np.linalg, name)

        def counting(A, *args, **kwargs):
            calls.append((np.shape(A), np.asarray(A).dtype.kind))
            return original(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
        call()
        return calls

    def test_symmetric_extraction(self, rng, monkeypatch):
        exact = commuting_symmetric_triple(rng, 32)
        Hs = self._noisy(exact, lambda: random_real_symmetric(rng, 32))
        calls = self._count(
            monkeypatch, lambda: commuting_pair_from_sphere(*Hs, SymmetryClass.SYMMETRIC)
        )
        assert len(calls) <= 8

    def test_selfdual_extraction(self, rng, monkeypatch):
        exact = commuting_selfdual_triple(rng, 16)
        Hs = self._noisy(exact, lambda: random_selfdual_hermitian(rng, 16))
        calls = self._count(
            monkeypatch, lambda: commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)
        )
        assert len(calls) <= 8
        # the twisted bound is a real solve: no complex eigvalsh of size 2n
        assert ((64, 64), "c") not in calls
        assert ((64, 64), "f") in calls

    @pytest.mark.parametrize("symmetry", [SymmetryClass.SYMMETRIC, SymmetryClass.SELF_DUAL])
    def test_one_svd_per_witness_block(self, rng, monkeypatch, symmetry):
        if symmetry is SymmetryClass.SYMMETRIC:
            exact = commuting_symmetric_triple(rng, 32)
            Hs = self._noisy(exact, lambda: random_real_symmetric(rng, 32))
        else:
            exact = commuting_selfdual_triple(rng, 16)
            Hs = self._noisy(exact, lambda: random_selfdual_hermitian(rng, 16))
        # the real canonical form's half-size bidiagonal SVD is a separate
        # factorization, so the witness blocks' SVDs are counted as such
        calls = []
        real = canonical._polar_svd

        def counting(X):
            calls.append(X.shape)
            return real(X)

        monkeypatch.setattr(canonical, "_polar_svd", counting)
        commuting_pair_from_sphere(*Hs, symmetry)
        assert len(calls) == 1

    def test_selfdual_extraction_runs_no_schur_and_one_dgehrd(self, rng, monkeypatch):
        exact = commuting_selfdual_triple(rng, 11)  # a size no other test uses
        Hs = self._noisy(exact, lambda: random_selfdual_hermitian(rng, 11))
        calls = {"schur": [], "dgehrd": []}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(A, *args, **kwargs):
                calls[name].append(A.shape)
                return real(A, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(sla, "schur", counting(sla, "schur"))
        monkeypatch.setattr(lapack, "dgehrd", counting(lapack, "dgehrd"))
        commuting_pair_from_sphere(*Hs, SymmetryClass.SELF_DUAL)
        assert calls["schur"] == []
        assert calls["dgehrd"] == [(44, 44)]


class TestPolarProductCheck:
    def test_balanced_scalars(self):
        a = np.eye(4) / np.sqrt(2)
        assert polar_product_check(a, a) <= 1e-12

    def test_blocks_of_symplectic_unitary(self, rng):
        n = 4
        W = random_symplectic_unitary(rng, n)
        A, B = W[:n, :n], W[:n, n:]
        assert polar_product_check(A, B) <= 1e-9
        # the product is fixed by the transpose per the symmetry lemma
        U = polar(A.conj().T @ B)
        assert tau_residual(U, SymmetryClass.SYMMETRIC) <= 1e-9

    def test_blocks_of_coupled_unitary(self, rng):
        q = 2
        W = random_coupled_unitary(rng, q)
        h = 2 * q
        A, B = W[:h, :h], W[:h, h:]
        assert polar_product_check(A, B) <= 1e-9
        U = polar(A.conj().T @ B)
        assert tau_residual(U, SymmetryClass.SELF_DUAL) <= 1e-9

    def test_scaled_unitaries(self, rng):
        t = 0.7
        U = random_unitary(rng, 5) * np.cos(t)
        V = random_unitary(rng, 5) * np.sin(t)
        assert polar_product_check(U, V) <= 1e-9

    def test_hypothesis_failure(self, rng):
        with pytest.raises(errors.HypothesisFailed):
            polar_product_check(np.eye(3), np.eye(3))


class TestSqrtPsd:
    def test_square_root(self, rng):
        G = random_complex(rng, 5)
        M = G @ G.conj().T
        R = sqrt_psd(M)
        assert operator_norm(R @ R - M) <= 1e-9 * max(1.0, operator_norm(M))
        assert R.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_exactly_real_input_has_a_real_root(self, rng, dtype):
        G = rng.standard_normal((6, 6))
        M = (G @ G.T).astype(dtype)
        R = sqrt_psd(M)
        assert R.dtype == np.float64
        assert operator_norm(R @ R - M) <= 1e-12 * max(1.0, operator_norm(M))


_HERM_NOT_SYMMETRIC = np.array([[0.0, 1j], [-1j, 0.0]])  # Hermitian, antisymmetric


@pytest.mark.parametrize("call, error, match", [
    (lambda: diag_anti_selfdual(np.eye(4)), errors.WrongSymmetry, "not anti-self-dual"),
    (lambda: k2_quaternion_witness(np.diag([1.0, -1.0, 1.0, -1.0])), errors.WrongSymmetry,
     "^S is not anti-self-dual$"),
    (lambda: k2_real_witness(np.eye(8)), errors.WrongSymmetry, "not antisymmetric"),
    (lambda: k2_real_witness(sla.block_diag(*[_HERM_NOT_SYMMETRIC] * 3)),
     errors.WrongSymmetry, "size 6 is not a multiple of 4"),
    (lambda: k2_twisted_witness(np.eye(8)), errors.WrongSymmetry, "not anti-fixed"),
    (lambda: real_skew_canonical(np.zeros((6, 6))), errors.NotRealSkew, "multiple of 4"),
    (lambda: skew_representative(6), errors.NotRealSkew, "multiple of 4"),
    (lambda: sqrt_psd(np.triu(np.ones((3, 3)))), errors.NonHermitian, "not Hermitian"),
    (lambda: commuting_pair_from_sphere(_HERM_NOT_SYMMETRIC, np.zeros((2, 2)), np.zeros((2, 2))),
     errors.WrongSymmetry, "H1 is not complex symmetric"),
    (lambda: polar_product_check(np.eye(3), np.eye(4)), errors.HypothesisFailed, "differ in size"),
    (lambda: polar_product_check(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
     errors.HypothesisFailed, "a is singular"),
], ids=["diag-anti-selfdual", "quaternion-anti-selfdual", "real-antisymmetry", "real-size",
        "twisted-anti-fixed", "canonical-size", "representative-size", "sqrt-psd-hermitian",
        "extraction-tau-fixed", "polar-check-size", "polar-check-singular"])
def test_error_contract(call, error, match):
    with pytest.raises(error, match=match):
        call()
