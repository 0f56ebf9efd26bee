import numpy as np
import pytest
from scipy.linalg import block_diag

from acbott import errors
from acbott.invariants import bott_index_unitaries, compressed_index, pf_bott_unitaries
from acbott.matkernel import operator_norm
from acbott.models import (
    LatticeSpec,
    gap_levels,
    harper_hamiltonian,
    harper_isometry,
    harper_projection,
    parse_flux,
    selfdual_double,
    torus_positions,
    voiculescu,
)
from acbott.relations import torus2_residual, torus4_residual
from acbott.symmetry import SymmetryClass, tau_residual, time_reversal


class TestVoiculescu:
    def test_smallest_pair(self):
        A, B = voiculescu(2)
        assert np.allclose(A, [[0, 1], [1, 0]])
        assert np.allclose(B, np.diag([-1, 1]))

    def test_commutator_at_four(self):
        A, B = voiculescu(4)
        assert operator_norm(A @ B - B @ A) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_exactly_unitary(self):
        for n in (2, 5, 16):
            A, B = voiculescu(n)
            assert np.allclose(A @ A.conj().T, np.eye(n))
            assert np.allclose(A @ A.T, np.eye(n))  # permutation
            assert np.allclose(B @ B.conj().T, np.eye(n))


class TestSelfdualDouble:
    def test_selfdual_residual(self):
        V1, V2 = selfdual_double(*voiculescu(8))
        assert tau_residual(V1, SymmetryClass.SELF_DUAL) <= 1e-12
        assert tau_residual(V2, SymmetryClass.SELF_DUAL) <= 1e-12

    def test_doubled_commuting_pair_still_commutes(self, rng):
        n = 5
        D1 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        D2 = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
        V1, V2 = selfdual_double(D1, D2)
        assert torus2_residual(V1, V2).delta <= 1e-14

    def test_index_cancellation(self):
        V1, V2 = selfdual_double(*voiculescu(8))
        assert bott_index_unitaries(V1, V2).value == 0
        assert pf_bott_unitaries(V1, V2).value == -1


class TestTorusPositions:
    def test_smallest_lattice_entries(self):
        Xs = [np.diag(X) for X in torus_positions(LatticeSpec(L=2))]
        # x, y in {0, 1}: cosines are +-1, sines vanish
        assert np.allclose(np.diag(Xs[0]), [1, 1, -1, -1])
        assert np.allclose(np.diag(Xs[1]), 0)
        assert np.allclose(np.diag(Xs[2]), [1, -1, 1, -1])
        assert np.allclose(np.diag(Xs[3]), 0)

    def test_exact_representation(self):
        for L in (2, 5, 8):
            Xs = torus_positions(LatticeSpec(L=L))
            assert torus4_residual(*Xs).delta <= 1e-15

    def test_doubled_layout_selfdual(self):
        Xs = torus_positions(LatticeSpec(L=3, orbitals=2))
        for X in Xs:
            assert tau_residual(np.diag(X), SymmetryClass.SELF_DUAL) <= 1e-15
        assert torus4_residual(*Xs).delta <= 1e-15


class TestHarperProjection:
    def test_projection_certificates(self):
        fermi = gap_levels(6, 1 / 3, [1 / 3])[0]
        P, H = harper_projection(LatticeSpec(L=6, flux=1 / 3, fermi_level=fermi))
        assert operator_norm(P @ P - P) <= 1e-12
        assert operator_norm(P - P.conj().T) <= 1e-12
        assert operator_norm(H - H.conj().T) <= 1e-13

    def test_flux_zero_trivial_band(self):
        L = 10
        w = np.linalg.eigvalsh(harper_hamiltonian(L, 0.0))
        gaps = np.diff(w)
        j = int(np.argmax(gaps[: len(gaps) // 3]))
        fermi = (w[j] + w[j + 1]) / 2
        spec = LatticeSpec(L=L, flux=0.0, fermi_level=fermi)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        # the flat band compresses the pair onto a singular matrix whose
        # polar part is completed arbitrarily; the class stays 0 regardless
        for seed in (0, 3, 7):
            rep = compressed_index(P, Xs, comm_tol=0.6, seed=seed)
            assert rep.value == 0
            assert rep.gap > 0

    def test_flux_third_stable_across_sizes(self):
        values = []
        for L in (12, 15, 18):
            fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
            spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
            P, _ = harper_projection(spec)
            Xs = torus_positions(spec)
            rep = compressed_index(P, Xs, comm_tol=0.5)
            assert rep.gap > 0.1
            values.append(rep.value)
        assert len(set(values)) == 1
        assert values[0] != 0

    def test_doubled_model_selfdual_and_stable(self):
        values = []
        for L in (12, 15):
            fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
            spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi, orbitals=2)
            P, H = harper_projection(spec)
            assert tau_residual(P, SymmetryClass.SELF_DUAL) <= 1e-12
            Xs = torus_positions(spec)
            rep = compressed_index(P, Xs, SymmetryClass.SELF_DUAL, comm_tol=0.5)
            assert rep.value in (-1, 1)
            values.append(rep.value)
        assert len(set(values)) == 1

    def test_commutator_shrinks_with_size(self):
        deltas = []
        for L in (9, 15, 21):
            fermi = gap_levels(L, 1 / 3, [1 / 3])[0]
            spec = LatticeSpec(L=L, flux=1 / 3, fermi_level=fermi)
            P, _ = harper_projection(spec)
            Xs = [np.diag(X) for X in torus_positions(spec)]
            deltas.append(max(operator_norm(P @ X - X @ P) for X in Xs))
        assert deltas[0] > deltas[1] > deltas[2]

    def test_no_gap_rejected(self):
        w = np.linalg.eigvalsh(harper_hamiltonian(6, 1 / 3))
        with pytest.raises(errors.NoGap):
            harper_projection(LatticeSpec(L=6, flux=1 / 3, fermi_level=float(w[3])))
        with pytest.raises(errors.NoGap):
            harper_projection(LatticeSpec(L=6, flux=1 / 3, fermi_level=-99.0))


def _hamiltonian_by_loops(L, flux):
    """Site-by-site reference for harper_hamiltonian, site s = x * L + y."""
    H = np.zeros((L * L, L * L), dtype=complex)
    for x in range(L):
        for y in range(L):
            H[((x + 1) % L) * L + y, x * L + y] -= 1.0
            H[x * L + (y + 1) % L, x * L + y] -= np.exp(2j * np.pi * flux * x)
    return H + H.conj().T


class TestHarperIsometry:
    @pytest.mark.parametrize("L, flux", [(2, 0.5), (3, 1 / 3), (6, 0.25), (9, 0.4)])
    def test_hamiltonian_matches_loop_reference(self, L, flux):
        H = harper_hamiltonian(L, flux)
        assert H.tobytes() == _hamiltonian_by_loops(L, flux).tobytes()

    @pytest.mark.parametrize("orbitals", [1, 2])
    def test_isometry_of_the_projection(self, orbitals):
        W, level = harper_isometry(LatticeSpec(L=6, flux=1 / 3, orbitals=orbitals), 1 / 3)
        assert level == pytest.approx(gap_levels(6, 1 / 3, [1 / 3])[0], abs=1e-13)
        P, H = harper_projection(LatticeSpec(L=6, flux=1 / 3, fermi_level=level,
                                             orbitals=orbitals))
        H1 = harper_hamiltonian(6, 1 / 3)
        assert W.shape == (36 * orbitals, 12 * orbitals)
        assert np.array_equal(H, block_diag(H1, H1.conj()) if orbitals == 2 else H1)
        assert operator_norm(W.conj().T @ W - np.eye(W.shape[1])) <= 1e-12
        assert operator_norm(W @ W.conj().T - P) <= 1e-12
        if orbitals == 2:  # [F, T F] exactly, the self-dual layout
            assert np.array_equal(W[:, 12:], time_reversal(W[:, :12]))

    def test_no_gap_rejected(self):
        w = np.linalg.eigvalsh(harper_hamiltonian(6, 1 / 3))
        for spec, fill in [
            (LatticeSpec(L=6, flux=1 / 3, fermi_level=float(w[3])), None),
            (LatticeSpec(L=6, flux=1 / 3, fermi_level=-99.0), None),
            (LatticeSpec(L=6, flux=1 / 3), 0.0),
            (LatticeSpec(L=12, flux=1 / 4), 0.5),  # the touching middle bands
        ]:
            with pytest.raises(errors.NoGap):
                harper_isometry(spec, fill)


class TestLatticeSpec:
    def test_validation(self):
        with pytest.raises(errors.ValidationError):
            LatticeSpec(L=1)
        with pytest.raises(errors.ValidationError):
            LatticeSpec(L=4, flux=1.5)
        with pytest.raises(errors.ValidationError):
            LatticeSpec(L=4, orbitals=3)

    def test_bad_flux_text(self):
        for text in ("abc", "1/0"):
            with pytest.raises(errors.ValidationError):
                parse_flux(text)
