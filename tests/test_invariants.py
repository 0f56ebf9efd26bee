import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import lapack

from acbott import errors, invariants
from acbott.invariants import (
    RESIDUAL_GATE,
    _evaluate,
    bott_index,
    bott_index_unitaries,
    bott_matrix,
    compressed_index,
    pf_bott_index,
    pf_bott_unitaries,
    torus_to_sphere,
)
from acbott.matkernel import DEFAULT_GAP_TOL, operator_norm, pfaffian_combinatorial, polar
from acbott.models import (
    LatticeSpec,
    gap_levels,
    harper_isometry,
    harper_projection,
    selfdual_double,
    torus_positions,
    voiculescu,
)
from acbott.relations import sphere_residual
from acbott.symmetry import SymmetryClass, phi_conjugate, sharp_sharp, symmetrize, tau_residual
from conftest import (
    commuting_selfdual_triple,
    commuting_sphere_triple,
    random_hermitian,
    random_selfdual_hermitian,
    random_symplectic_unitary,
    random_unitary,
    selfdual_direct_sum,
)

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1j], [-1j, 0.0]]),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def lift_reference(U1, Q, theta):
    """The lift by its spectral definition, U2 = Q diag(e^{i theta}) Q*:
    f(U2) = Q cos(theta) Q*, and likewise g and h, then the anticommutators."""
    def fn(values):
        return (Q * values) @ Q.conj().T

    f = fn(np.cos(theta))
    g = fn(np.maximum(-np.sin(theta), 0.0))
    h = fn(np.maximum(np.sin(theta), 0.0))

    def anti(X, Y):
        return X @ Y + Y @ X

    U1s = U1.conj().T
    return f, g + anti(h, U1s) / 4 + anti(h, U1) / 4, 0.25j * anti(h, U1s) - 0.25j * anti(h, U1)


def circle_functions(theta):
    """f, g, h at the angles theta, read off the lift: for U1 = i I and
    U2 = diag(e^{i theta}) the triple is (f(U2), g(U2), h(U2))."""
    n = len(theta)
    Hs = torus_to_sphere(1j * np.eye(n), np.diag(np.exp(1j * theta)))
    return [np.real(np.diagonal(H)) for H in Hs]


class TestCircleFunctions:
    def test_anchor_points(self):
        f, g, h = circle_functions(np.array([0.0, np.pi / 2]))
        assert (f[0], g[0], h[0]) == (1.0, 0.0, 0.0)
        assert (f[1], g[1], h[1]) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)

    def test_pointwise_invariants_on_grid(self, rng):
        # exactly commuting diagonal unitaries lift to a commuting triple on
        # the sphere: f^2 + g^2 + h^2 = 1 and g h = 0 at every angle
        theta = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        U1 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, theta.size)))
        U2 = np.diag(np.exp(1j * theta))
        assert sphere_residual(*torus_to_sphere(U1, U2)).delta <= 1e-12
        f, g, h = circle_functions(theta)
        assert np.max(np.abs(f * f + g * g + h * h - 1.0)) <= 1e-12
        assert np.max(np.abs(g * h)) <= 1e-12

    def test_g_and_h_nonnegative(self):
        _, g, h = circle_functions(np.linspace(0, 2 * np.pi, 1000))
        assert np.all(g >= 0)
        assert np.all(h >= 0)


class TestBottMatrix:
    def test_third_axis(self):
        I, Z = np.eye(3), np.zeros((3, 3))
        B = bott_matrix(Z, Z, I)
        assert np.allclose(B, np.diag([1, 1, 1, -1, -1, -1]))

    def test_first_axis(self):
        I, Z = np.eye(3), np.zeros((3, 3))
        B = bott_matrix(I, Z, Z)
        assert np.allclose(B, np.block([[Z, I], [I, Z]]))

    def test_equals_pauli_tensor_sum(self, rng):
        Hs = commuting_sphere_triple(rng, 4)
        B = bott_matrix(*Hs)
        ref = sum(np.kron(sigma, H) for H, sigma in zip(Hs, PAULI))
        assert operator_norm(B - ref) <= 1e-13

    def test_selfdual_triple_antifixed_by_coupled_dual(self, rng):
        Hs = [random_selfdual_hermitian(rng, 3) for _ in range(3)]
        B = bott_matrix(*Hs)
        assert operator_norm(sharp_sharp(B) + B) <= 1e-12 * operator_norm(B)

    def test_hermitian_output(self, rng):
        Hs = commuting_sphere_triple(rng, 5)
        B = bott_matrix(*Hs)
        assert operator_norm(B - B.conj().T) <= 1e-13

    @pytest.mark.parametrize("exact", [True, False])
    def test_members_enter_as_their_hermitian_parts(self, rng, exact):
        # an exactly Hermitian member is its own Hermitian part bit for bit,
        # so it enters unchanged; any other member enters as (H + H*)/2
        Hs = [random_hermitian(rng, 6) for _ in range(3)]
        if not exact:
            Q = random_unitary(rng, 6)
            Hs = [(Q @ H) @ Q.conj().T for H in Hs]
            assert not any(np.array_equal(H, H.conj().T) for H in Hs)
        A, Bm, C = ((H + H.conj().T) / 2 for H in Hs)
        B = bott_matrix(*Hs)
        assert np.array_equal(B, np.block([[C, A + 1j * Bm], [A - 1j * Bm, -C]]))
        if exact:
            assert np.array_equal(B[:6, :6], Hs[2])


class TestBottIndex:
    def test_commuting_triple_is_trivial(self, rng):
        H1, H2, H3 = commuting_sphere_triple(rng, 8)
        rep = bott_index(H1, H2, H3)
        assert rep.value == 0
        assert rep.gap > 0
        assert rep.input_residual <= 1e-12

    def test_voiculescu_lift_direct(self):
        # n large enough that the lifted triple passes the 1/4 gate
        A, B = voiculescu(32)
        rep = bott_index(*torus_to_sphere(A, B))
        assert rep.value == 1

    def test_transpose_pair_flips_sign(self):
        A, B = voiculescu(32)
        rep = bott_index(*torus_to_sphere(A.T, B.T))
        assert rep.value == -1

    def test_residual_gate(self):
        Z = np.zeros((4, 4))
        with pytest.raises(errors.ResidualTooLarge):
            bott_index(Z, Z, Z)

    def test_unitary_conjugation_invariance(self, rng):
        A, B = voiculescu(16)
        H = torus_to_sphere(A, B)
        base = bott_index_unitaries(A, B).value
        for _ in range(3):
            U = random_unitary(rng, 16)
            rep = bott_index_unitaries(U @ A @ U.conj().T, U @ B @ U.conj().T)
            assert rep.value == base

    def test_orientation_reversal_flips_index(self):
        A, B = voiculescu(32)
        H1, H2, H3 = torus_to_sphere(A, B)
        assert bott_index(H1, H2, H3).value == -bott_index(H1, -H2, H3).value


class TestPfBottIndex:
    def test_commuting_selfdual_triple(self, rng):
        Hs = commuting_selfdual_triple(rng, 4)
        rep = pf_bott_index(*Hs)
        assert rep.value == 1
        assert rep.symmetry is SymmetryClass.SELF_DUAL

    def test_third_axis_trivial(self):
        n = 6
        Z = np.zeros((n, n))
        rep = pf_bott_index(Z, Z, np.eye(n))
        assert rep.value == 1
        assert rep.gap == pytest.approx(1.0)

    def test_doubled_voiculescu_lift_direct(self):
        V1, V2 = selfdual_double(*voiculescu(32))
        Hs = torus_to_sphere(V1, V2)
        rep = pf_bott_index(*Hs)
        assert rep.value == -1

    def test_doubled_matrix_read_once(self, monkeypatch):
        # gap, sign and the log-modulus certificate come from one Householder
        # reduction of the doubled matrix and one LU: no eigenvalue solve of
        # it, no eigenvectors and no polar part
        Hs = torus_to_sphere(*selfdual_double(*voiculescu(32)))
        calls = {"eigvalsh": [], "eigh": [], "svd": [], "dgehrd": [], "dgetrf": []}

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(A, *args, **kwargs):
                calls[name].append(A.shape)
                return real(A, *args, **kwargs)

            return wrapper

        for name in ("eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(np.linalg, name))
        for name in ("dgehrd", "dgetrf"):
            monkeypatch.setattr(lapack, name, counting(lapack, name))
        assert pf_bott_index(*Hs).value == -1
        assert calls["eigvalsh"].count((128, 128)) == 0
        assert calls["dgehrd"] == [(128, 128)]
        assert calls["dgetrf"] == [(128, 128)]
        assert calls["eigh"] == []
        assert calls["svd"] == []

    def test_logdet_certificate(self):
        rep = pf_bott_index(*torus_to_sphere(*selfdual_double(*voiculescu(32))))
        assert rep.details["pfaffian"] in (-1.0, 1.0)
        assert rep.details["logdet_defect"] <= 1e-12

    @pytest.mark.parametrize("faulty", [
        lambda sign, log_abs, e: (sign, log_abs + 1.0, e),
        lambda sign, log_abs, e: (0.0, -np.inf, e),
    ], ids=["wrong_modulus", "zero_pivot"])
    def test_logdet_gate(self, monkeypatch, faulty):
        real = invariants._pfaffian_reduction
        monkeypatch.setattr(invariants, "_pfaffian_reduction", lambda A: faulty(*real(A)))
        with pytest.raises(errors.NoConvergence):
            pf_bott_index(*torus_to_sphere(*selfdual_double(*voiculescu(32))))

    def test_gap_below_sigma_floor(self, monkeypatch):
        # the self-dual route also floors the gap of the doubled matrix at
        # DEFAULT_SIGMA_MIN_TOL (NearSingular); the COMPLEX class has no such
        # floor, only gap_tol
        monkeypatch.setattr(invariants, "DEFAULT_SIGMA_MIN_TOL", 1.0)
        with pytest.raises(errors.NearSingular, match="gap 7.894e-01 < 1.000e"):
            pf_bott_unitaries(*selfdual_double(*voiculescu(16)), gap_tol=1e-12)
        assert bott_index_unitaries(*voiculescu(16), gap_tol=1e-12).value == 1

    def test_not_selfdual_rejected(self, rng):
        H1, H2, H3 = commuting_sphere_triple(rng, 6)
        with pytest.raises(errors.NotSelfDual):
            pf_bott_index(H1, H2, H3)

    def test_symplectic_conjugation_invariance(self, rng):
        Hs = commuting_selfdual_triple(rng, 3)
        base = pf_bott_index(*Hs).value
        for _ in range(3):
            V = random_symplectic_unitary(rng, 3)
            rep = pf_bott_index(*(V @ H @ V.conj().T for H in Hs))
            assert rep.value == base


def _doubled(H):
    """blockdiag(H, H^T), exactly self-dual (as in selfdual_double)."""
    O = np.zeros_like(H)
    return np.block([[H, O], [O, H.T]])


def _spin_triple(j2):
    """Spin-j matrices, j = j2/2, scaled so that H1^2 + H2^2 + H3^2 = I."""
    j = j2 / 2
    m = j - np.arange(j2 + 1)
    up = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    c = 1 / np.sqrt(j * (j + 1))
    return c * (up + up.T) / 2, c * (up - up.T) / 2j, c * np.diag(m).astype(complex)


def _selfdual_case(family, k, rng):
    """A self-dual triple whose doubled matrix is at most 12 x 12, with its
    known Pf-Bott value."""
    if family == "spin":  # a doubled spin-k/2 triple: odd Bott index doubles to -1
        return [_doubled(H) for H in _spin_triple(k)], -1
    if family == "lift":  # the doubled shift/clock lift at n = k, trivial this small
        return list(torus_to_sphere(*selfdual_double(*voiculescu(k)))), 1
    return list(commuting_selfdual_triple(rng, k)), 1


@example(case=("spin", 2), seed=0, noise=0.45)
@example(case=("lift", 2), seed=0, noise=0.45)
@example(case=("lift", 3), seed=0, noise=0.45)
@given(
    case=st.sampled_from([("spin", 1), ("spin", 2), ("lift", 2), ("lift", 3),
                          ("commuting", 1), ("commuting", 2), ("commuting", 3)]),
    seed=st.integers(0, 2**32 - 1),
    noise=st.floats(0.0, 0.45),
)
def test_sign_from_doubled_matrix_equals_polar_sign(case, seed, noise):
    """The evaluate step's sign of Pf(-i Phi(B)) equals the oracle's sign of
    Pf(-i Phi(polar B)) after symplectic conjugation and self-dual noise below
    half the gap.  The sphere gate of pf_bott_index rejects the nontrivial
    triples drawn here, so it is checked only where the triple passes."""
    rng = np.random.default_rng(seed)
    Hs, expected = _selfdual_case(*case, rng)
    half = Hs[0].shape[0] // 2
    W = random_symplectic_unitary(rng, half)
    Hs = [W @ H @ W.conj().T for H in Hs]
    gap = np.min(np.abs(np.linalg.eigvalsh(bott_matrix(*Hs))))
    for r in range(3):  # ||B(E1, E2, E3)|| <= noise * gap < gap / 2
        E = random_selfdual_hermitian(rng, half)
        Hs[r] = symmetrize(Hs[r] + noise * gap / 3 * E / operator_norm(E), SymmetryClass.SELF_DUAL)
    B = bott_matrix(*Hs)
    pf = pfaffian_combinatorial(-1j * phi_conjugate(polar(B))).real
    oracle = int(np.sign(pf)) * (-1) ** (B.shape[0] // 4)
    value, _, details = _evaluate(Hs, SymmetryClass.SELF_DUAL, DEFAULT_GAP_TOL)
    assert value == oracle == expected
    assert details["logdet_defect"] <= 1e-12
    if sphere_residual(*Hs).delta < RESIDUAL_GATE:
        assert pf_bott_index(*Hs).value == value


@example(case=("spin", 2), seed=0)
@example(case=("lift", 3), seed=0)
@given(
    case=st.sampled_from([("spin", 1), ("spin", 2), ("lift", 2), ("lift", 3),
                          ("commuting", 1), ("commuting", 2), ("commuting", 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_reduction_gap_equals_doubled_matrix_gap(case, seed):
    """The gap read from the Householder reduction's tridiagonal is the
    smallest |eigenvalue| of the doubled matrix, and the LU check of
    log |Pf| is tight."""
    rng = np.random.default_rng(seed)
    Hs, expected = _selfdual_case(*case, rng)
    half = Hs[0].shape[0] // 2
    W = random_symplectic_unitary(rng, half)
    Hs = [W @ H @ W.conj().T for H in Hs]
    w = np.linalg.eigvalsh(bott_matrix(*Hs))
    value, gap, details = _evaluate(Hs, SymmetryClass.SELF_DUAL, DEFAULT_GAP_TOL)
    assert value == expected
    assert abs(gap - np.min(np.abs(w))) <= 1e-12 * max(1.0, np.abs(w).max())
    assert details["logdet_defect"] <= 1e-12


class TestTorusToSphere:
    def test_polar_parts_are_lifted_without_a_unitarity_check(self, monkeypatch):
        # the torus path lifts polar parts, unitary by construction, and
        # never runs the public entry's unitarity product
        def fail(*args, **kwargs):
            raise AssertionError("torus_to_sphere called")

        U1, U2 = voiculescu(12)
        expected = bott_index_unitaries(U1, U2)
        V1, V2 = (polar(U) for U in (U1, U2))
        for H, ref in zip(invariants._lift(V1, V2), torus_to_sphere(V1, V2)):
            assert np.array_equal(H, ref)
        monkeypatch.setattr(invariants, "torus_to_sphere", fail)
        monkeypatch.setattr(invariants, "norm_exceeds", fail)
        rep = bott_index_unitaries(U1, U2)
        assert (rep.value, rep.gap) == (expected.value, expected.gap)

    def test_identity_second_unitary(self, rng):
        n = 5
        U1 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        H1, H2, H3 = torus_to_sphere(U1, np.eye(n))
        assert operator_norm(H1 - np.eye(n)) <= 1e-12
        assert operator_norm(H2) <= 1e-12
        assert operator_norm(H3) <= 1e-12

    def test_sphere_residual_decreases(self):
        deltas = [
            sphere_residual(*torus_to_sphere(*voiculescu(n))).delta
            for n in (8, 16, 32, 64)
        ]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_hermitian_outputs(self):
        A, B = voiculescu(12)
        for H in torus_to_sphere(A, B):
            assert operator_norm(H - H.conj().T) <= 1e-10

    def test_symmetric_inputs_give_symmetric_outputs(self, rng):
        # complex symmetric unitaries: U = exp(i S) with S real symmetric
        n = 6
        S1 = rng.standard_normal((n, n))
        S1 = (S1 + S1.T) / 2
        S2 = rng.standard_normal((n, n))
        S2 = (S2 + S2.T) / 2
        w1, V1 = np.linalg.eigh(S1)
        w2, V2 = np.linalg.eigh(S2)
        U1 = (V1 * np.exp(1j * w1)) @ V1.T
        U2 = (V2 * np.exp(1j * w2)) @ V2.T
        for H in torus_to_sphere(U1, U2):
            assert tau_residual(H, SymmetryClass.SYMMETRIC) <= 1e-10

    def test_selfdual_inputs_give_selfdual_outputs(self):
        V1, V2 = selfdual_double(*voiculescu(8))
        for H in torus_to_sphere(V1, V2):
            assert tau_residual(H, SymmetryClass.SELF_DUAL) <= 1e-10

    def test_non_unitary_rejected(self, rng):
        with pytest.raises(errors.NotUnitary):
            torus_to_sphere(np.eye(4), 2 * np.eye(4))

    def test_matches_spectral_definition(self, rng):
        # repeated +-theta, the pair theta and pi - theta (equal sin), and
        # theta = 0 and pi (sin 0) give degenerate spectra of Im U2
        t = 0.7
        theta = np.array([t, t, -t, -t, np.pi - t, 0.0, 0.0, np.pi, np.pi, 2.1])
        Q = random_unitary(rng, theta.size)
        U1 = random_unitary(rng, theta.size)
        U2 = (Q * np.exp(1j * theta)) @ Q.conj().T
        for H, ref in zip(torus_to_sphere(U1, U2), lift_reference(U1, Q, theta)):
            assert np.array_equal(H, H.conj().T)
            assert operator_norm(H - ref) <= 1e-12


class TestUnitaryIndices:
    def test_voiculescu_bott_one(self):
        for n in (4, 16, 64):
            A, B = voiculescu(n)
            assert bott_index_unitaries(A, B).value == 1

    def test_commuting_unitaries_trivial(self, rng):
        n = 8
        U1 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        U2 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        assert bott_index_unitaries(U1, U2).value == 0

    def test_doubled_pair(self):
        V1, V2 = selfdual_double(*voiculescu(16))
        assert pf_bott_unitaries(V1, V2).value == -1
        assert bott_index_unitaries(V1, V2).value == 0

    def test_near_unitary_polar_correction(self, rng):
        A, B = voiculescu(16)
        A = A * 1.05  # 5 percent off unitary, within the admissible band
        assert bott_index_unitaries(A, B).value == 1

    def test_far_from_unitary_rejected(self):
        A, B = voiculescu(8)
        with pytest.raises(errors.NotUnitary):
            bott_index_unitaries(1.5 * A, B)

    def test_bott_additive_under_direct_sum(self):
        A1, B1 = voiculescu(16)
        A2, B2 = voiculescu(24)

        def dsum(X, Y):
            n, m = X.shape[0], Y.shape[0]
            out = np.zeros((n + m, n + m), dtype=complex)
            out[:n, :n] = X
            out[n:, n:] = Y
            return out

        combined = bott_index_unitaries(dsum(A1, A2), dsum(B1, B2))
        assert combined.value == 2  # 1 + 1

    def test_pf_bott_multiplicative_under_direct_sum(self, rng):
        V1, V2 = selfdual_double(*voiculescu(8))  # class -1
        T1, T2 = (np.eye(8, dtype=complex), np.eye(8, dtype=complex))  # class +1
        W1 = selfdual_direct_sum(V1, T1)
        W2 = selfdual_direct_sum(V2, T2)
        assert tau_residual(W1, SymmetryClass.SELF_DUAL) <= 1e-12
        rep = pf_bott_unitaries(W1, W2)
        assert rep.value == -1  # (-1) * (+1)
        both = pf_bott_unitaries(selfdual_direct_sum(V1, V1), selfdual_direct_sum(V2, V2))
        assert both.value == 1  # (-1) * (-1)

    @pytest.mark.parametrize("gap_tol", ["abc", None, 1j])
    def test_non_numeric_gap_tol_is_a_validation_error(self, gap_tol):
        A, B = voiculescu(4)
        with pytest.raises(errors.ValidationError, match="gap_tol must be finite and positive"):
            bott_index_unitaries(A, B, gap_tol=gap_tol)

    def test_selfdual_gate_names_the_polar_corrected_member(self, rng):
        V1, V2 = selfdual_double(*voiculescu(8))
        U1 = np.linalg.qr(random_hermitian(rng, 16) + 1j * np.eye(16))[0]  # unitary, not self-dual
        with pytest.raises(errors.NotSelfDual, match="U1 is not self-dual after polar correction"):
            pf_bott_unitaries(U1, V2)


class TestCompressedIndex:
    def test_symmetry_must_be_a_class_member(self):
        # taken for a class, "selfdual" would run the COMPLEX route (value 0
        # where the class gives -1) and leave a report without a class
        spec = LatticeSpec(L=12, flux=1 / 3, orbitals=2)
        W, _ = harper_isometry(spec, 1 / 3)
        Xs = torus_positions(spec)
        assert compressed_index(W, Xs, SymmetryClass.SELF_DUAL, comm_tol=0.5).value == -1
        with pytest.raises(errors.ValidationError, match="SymmetryClass member"):
            compressed_index(W, Xs, "selfdual", comm_tol=0.5)

    @pytest.mark.parametrize("comm_tol", [float("nan"), 0.0, -0.5, float("inf")])
    def test_comm_tol_must_be_finite_and_positive(self, comm_tol):
        Xs = torus_positions(LatticeSpec(L=4))
        with pytest.raises(errors.ValidationError, match="finite and positive"):
            compressed_index(np.eye(16), Xs, comm_tol=comm_tol)

    @pytest.mark.parametrize("gap_tol", [float("nan"), 0.0, -1e-6, float("inf")])
    def test_gap_tol_checked_before_any_work(self, gap_tol, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("ran before the gap_tol check")

        for name in ("compress_positions", "_sphere_terms", "_torus2_terms", "torus_to_sphere",
                     "_lift"):
            monkeypatch.setattr(invariants, name, fail)
        Xs = torus_positions(LatticeSpec(L=4))
        U1, U2 = voiculescu(4)
        calls = [
            lambda: compressed_index(np.eye(16), Xs, gap_tol=gap_tol),
            lambda: bott_index(*PAULI, gap_tol=gap_tol),
            lambda: pf_bott_index(*PAULI, gap_tol=gap_tol),
            lambda: bott_index_unitaries(U1, U2, gap_tol=gap_tol),
            lambda: pf_bott_unitaries(U1, U2, gap_tol=gap_tol),
        ]
        for call in calls:
            with pytest.raises(errors.ValidationError, match="gap_tol must be finite and positive"):
                call()

    def test_full_projection_matches_uncompressed(self, rng):
        spec = LatticeSpec(L=4)
        Xs = torus_positions(spec)
        n = Xs[0].shape[0]
        rep = compressed_index(np.eye(n), Xs, seed=3)
        U1 = np.diag(Xs[0]) + 1j * np.diag(Xs[1])
        U2 = np.diag(Xs[2]) + 1j * np.diag(Xs[3])
        direct = bott_index_unitaries(U1, U2)
        assert rep.value == direct.value == 0

    def test_seed_independence(self):
        fermi = gap_levels(12, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=12, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        reports = [compressed_index(P, Xs, comm_tol=0.5, seed=s) for s in (1, 2, 5)]
        assert len({rep.value for rep in reports}) == 1
        for rep in reports:
            # the compressed tuple is a soft-torus representation at 2 delta
            assert rep.input_residual <= 2 * rep.details["delta_commutator"] + 1e-9

    def test_projection_perturbation_stability(self):
        fermi = gap_levels(12, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=12, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        base = compressed_index(P, Xs, comm_tol=0.5).value
        rng = np.random.default_rng(4)
        noise = rng.standard_normal(P.shape) + 1j * rng.standard_normal(P.shape)
        noise = (noise + noise.conj().T) / 2
        noise *= 1e-3 / operator_norm(noise)
        w, V = np.linalg.eigh(P + noise)
        occ = V[:, w > 0.5]
        P2 = occ @ occ.conj().T  # reprojected
        assert compressed_index(P2, Xs, comm_tol=0.5).value == base

    def test_commutator_gate(self):
        fermi = gap_levels(12, 1 / 3, [1 / 3])[0]
        spec = LatticeSpec(L=12, flux=1 / 3, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        with pytest.raises(errors.CommutatorTooLarge):
            compressed_index(P, Xs)  # default 1/8 gate; this lattice sits at ~0.32

    def test_not_projection_rejected(self, rng):
        spec = LatticeSpec(L=3)
        Xs = torus_positions(spec)
        bad = np.eye(9) * 0.5
        with pytest.raises(errors.NotProjection):
            compressed_index(bad, Xs)

    @pytest.mark.parametrize("L, flux, orbitals, cls", [
        (9, 1 / 3, 1, SymmetryClass.COMPLEX),
        (12, 1 / 3, 2, SymmetryClass.SELF_DUAL),
    ])
    def test_diagonal_positions_match_dense(self, L, flux, orbitals, cls):
        # 1-D positions and their np.diag matrices give the same report bit for bit
        fermi = gap_levels(L, flux, [flux])[0]
        P, _ = harper_projection(LatticeSpec(L=L, flux=flux, fermi_level=fermi, orbitals=orbitals))
        Xs = torus_positions(LatticeSpec(L=L, orbitals=orbitals))
        assert all(X.ndim == 1 for X in Xs)
        diagonal = compressed_index(P, Xs, cls, comm_tol=0.5, seed=11)
        dense = compressed_index(P, [np.diag(X) for X in Xs], cls, comm_tol=0.5, seed=11)
        assert diagonal.value == dense.value
        assert diagonal.gap == dense.gap
        assert diagonal.input_residual == dense.input_residual
        assert diagonal.details["delta_commutator"] == dense.details["delta_commutator"]

    @pytest.mark.parametrize("flux", [1 / 3, 1 / 4])
    @pytest.mark.parametrize("orbitals, cls", [
        (1, SymmetryClass.COMPLEX), (2, SymmetryClass.SELF_DUAL),
    ])
    def test_isometry_route_matches_projection_route(self, flux, orbitals, cls):
        # the model's W and harper_projection's P = W W* span one band
        spec = LatticeSpec(L=12, flux=flux, orbitals=orbitals)
        W, level = harper_isometry(spec, flux)
        assert level == pytest.approx(gap_levels(12, flux, [flux])[0], abs=1e-13)
        P, _ = harper_projection(LatticeSpec(L=12, flux=flux, fermi_level=level,
                                             orbitals=orbitals))
        Xs = torus_positions(spec)
        for seed in (0, 5):
            square = compressed_index(P, Xs, cls, comm_tol=0.5, seed=seed)
            tall = compressed_index(W, Xs, cls, comm_tol=0.5, seed=seed)
            assert tall.value == square.value
            assert tall.gap == pytest.approx(square.gap, rel=1e-13)
            assert tall.details["delta_commutator"] == pytest.approx(
                square.details["delta_commutator"], rel=1e-13)

    def test_selfdual_projection_route_work(self, monkeypatch):
        # from P, the paired isometry takes one Householder QR (its Kramers
        # pairing); the one eigh is the lift's, of the compressed size
        spec = LatticeSpec(L=12, flux=1 / 3, fermi_level=gap_levels(12, 1 / 3, [1 / 3])[0],
                           orbitals=2)
        P, _ = harper_projection(spec)
        calls = {"qr": [], "eigh": []}

        def counting(name):
            real = getattr(np.linalg, name)

            def wrapper(A, *args, **kwargs):
                calls[name].append(A.shape)
                return real(A, *args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counting(name))
        rep = compressed_index(P, torus_positions(spec), SymmetryClass.SELF_DUAL, comm_tol=0.5)
        assert rep.value == -1
        k = int(round(np.trace(P).real))
        assert len(calls["qr"]) == 1
        assert calls["eigh"] == [(k, k)]

    def test_non_exact_positions_rejected(self, rng):
        Xs = list(torus_positions(LatticeSpec(L=3)))
        Xs[0] = np.diag(Xs[0]) + 0.5 * random_hermitian(rng, 9)
        with pytest.raises(errors.NotExactRepresentation):
            compressed_index(np.eye(9), Xs)
        # the documented exception of compressed_index still catches it
        with pytest.raises(errors.ResidualTooLarge):
            compressed_index(np.eye(9), Xs)


THREAD_SCRIPT = """
import json
from acbott.invariants import compressed_index, pf_bott_unitaries
from acbott.models import (
    LatticeSpec, gap_levels, harper_projection, selfdual_double, torus_positions, voiculescu,
)
from acbott.symmetry import SymmetryClass

def harper(L, flux, fill, orbitals, cls):
    spec = LatticeSpec(L=L, flux=flux, fermi_level=gap_levels(L, flux, [fill])[0],
                       orbitals=orbitals)
    P, _ = harper_projection(spec)
    return compressed_index(P, torus_positions(spec), cls, comm_tol=0.5)

reports = [
    pf_bott_unitaries(*selfdual_double(*voiculescu(32))),
    harper(12, 0.25, 3 / 4, 2, SymmetryClass.SELF_DUAL),
    harper(12, 1 / 3, 1 / 3, 1, SymmetryClass.COMPLEX),
]
print(json.dumps([[r.value, r.gap] for r in reports]))
"""


def test_values_independent_of_blas_threads():
    """The same indices, to 1e-10 in the gap, at one and at two OpenBLAS
    threads (a per-process environment variable)."""
    src = str(Path(invariants.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        runs.append(json.loads(out.stdout))
    one, two = runs
    assert [v for v, _ in one] == [v for v, _ in two]
    for (_, g1), (_, g2) in zip(one, two):
        assert g2 == pytest.approx(g1, rel=1e-10)
