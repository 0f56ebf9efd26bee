import numpy as np
import pytest
from scipy.linalg import block_diag

from acbott import errors, models
from acbott.canonical import skew_representative
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
from acbott.symmetry import SymmetryClass, symplectic_form, tau_residual, time_reversal

# public size arguments that are not integers of their range, and lattice
# arguments off LatticeSpec's rule: each is a ValidationError (exit 2)
# naming the rule, e.g. never "size True is not a multiple of 4"
BAD_SIZE_ARGUMENTS = {
    "voiculescu_float": (lambda: voiculescu(4.0), "integer"),
    "voiculescu_string": (lambda: voiculescu("8"), "integer"),
    "symplectic_form_float": (lambda: symplectic_form(2.0), "integer"),
    "symplectic_form_bool": (lambda: symplectic_form(True), "integer"),
    "skew_representative_float": (lambda: skew_representative(4.0), "integer"),
    "skew_representative_bool": (lambda: skew_representative(True), "integer"),
    "gap_levels_float_L": (lambda: gap_levels(2.5, 0.0, [0.5]), "integer"),
    "gap_levels_one_site": (lambda: gap_levels(1, 0.0, [0.5]), "integer"),
    "harper_hamiltonian_one_site": (lambda: harper_hamiltonian(1, 0.0), "integer"),
    "harper_hamiltonian_zero_L": (lambda: harper_hamiltonian(0, 0.0), "integer"),
    "harper_hamiltonian_string_flux": (lambda: harper_hamiltonian(4, "0.5"), "flux"),
    "harper_hamiltonian_flux_one": (lambda: harper_hamiltonian(4, 1.0), "flux"),
    "lattice_spec_none_flux": (lambda: LatticeSpec(L=4, flux=None), "flux"),
}


@pytest.mark.parametrize("case", BAD_SIZE_ARGUMENTS)
def test_bad_size_argument_is_validation_error(case):
    call, rule = BAD_SIZE_ARGUMENTS[case]
    with pytest.raises(errors.ValidationError, match=rule):
        call()


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


class TestMomentumSolve:
    """H is solved one y-momentum at a time; each check is against the dense
    solve of :func:`harper_hamiltonian`.  L = 1 is no lattice (LatticeSpec
    needs L >= 2, see BAD_SIZE_ARGUMENTS); flux 1/7 has q dividing none of
    the sizes."""

    @pytest.mark.parametrize("flux", [0.0, 1 / 4, 1 / 3, 2 / 5, 1 / 2, 1 / 7])
    @pytest.mark.parametrize("L", [2, 3, 6, 9, 12])
    def test_matches_the_dense_solve(self, L, flux):
        H = harper_hamiltonian(L, flux)
        w, V = models._momentum_bands(L, flux)
        spectrum = np.sort(w, axis=None)
        assert np.abs(spectrum - np.linalg.eigvalsh(H)).max() <= 1e-12
        W = models._band_columns(w, V, np.inf, flux == 0)  # every state
        assert W.shape == (L * L, L * L)
        assert operator_norm(H @ W - W * spectrum) <= 1e-12
        assert operator_norm(W.conj().T @ W - np.eye(L * L)) <= 1e-12
        if flux == 0:  # standing waves: the real model keeps a real W
            assert not W.imag.any()

    @pytest.mark.parametrize("L, flux, fill", [
        (6, 1 / 3, 1 / 3), (12, 1 / 4, 1 / 4), (15, 2 / 5, 2 / 5), (12, 1 / 7, 3 / 7),
        (14, 1 / 7, 1 / 7), (6, 0.0, 5 / 36),
    ])
    def test_isometry_at_the_gap_level(self, L, flux, fill):
        W, level = harper_isometry(LatticeSpec(L=L, flux=flux), fill)
        assert level == gap_levels(L, flux, [fill])[0]
        H = harper_hamiltonian(L, flux)
        w = np.linalg.eigvalsh(H)
        k = round(fill * L * L)
        assert W.shape == (L * L, k) and w[k - 1] < level < w[k]
        assert operator_norm(H @ W - W * w[:k]) <= 1e-12
        assert operator_norm(W.conj().T @ W - np.eye(k)) <= 1e-12
        if flux == 0:  # five states: E = -4 and the four of E = -3, two +-k pairs
            assert not W.imag.any()

    def test_mid_gap_level_at_scale(self):
        # the dense H of L = 144 would take 6.9 GB; its 144 blocks take 24 MB
        level = gap_levels(144, 1 / 6, [1 / 6])[0]
        w, _ = models._momentum_bands(144, 1 / 6)
        assert int((w < level).sum()) == 144 * 144 // 6
        W, _ = harper_isometry(LatticeSpec(L=48, flux=1 / 6), 1 / 6)
        assert W.shape == (48 * 48, 48 * 48 // 6)
        assert operator_norm(W.conj().T @ W - np.eye(W.shape[1])) <= 1e-12


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


# malformed Fermi inputs: fillings are checked once, in the mid-gap level,
# and fermi_level in LatticeSpec; each is a plain ValidationError (exit 2)
# naming the input, never a bare Python error or a NoGap about the spectrum
BAD_FERMI_INPUTS = {
    "gap_levels_string_fill": lambda: gap_levels(6, 1 / 3, ["x"]),
    "gap_levels_nan_fill": lambda: gap_levels(6, 1 / 3, [float("nan")]),
    "gap_levels_inf_fill": lambda: gap_levels(6, 1 / 3, [float("inf")]),
    "gap_levels_bool_fill": lambda: gap_levels(6, 1 / 3, [True]),
    "gap_levels_none_fill": lambda: gap_levels(6, 1 / 3, [None]),
    "harper_isometry_string_fill": lambda: harper_isometry(LatticeSpec(L=6, flux=1 / 3), "x"),
    "harper_isometry_bool_fill": lambda: harper_isometry(LatticeSpec(L=6, flux=1 / 3), True),
    "harper_projection_string_level": lambda: harper_projection(
        LatticeSpec(L=6, flux=1 / 3, fermi_level="a")),
    "lattice_spec_nan_level": lambda: LatticeSpec(L=6, fermi_level=float("nan")),
    "lattice_spec_inf_level": lambda: LatticeSpec(L=6, fermi_level=-float("inf")),
    "lattice_spec_bool_level": lambda: LatticeSpec(L=6, fermi_level=True),
    "lattice_spec_none_level": lambda: LatticeSpec(L=6, fermi_level=None),
}


@pytest.mark.parametrize("case", BAD_FERMI_INPUTS)
def test_bad_fermi_input_is_validation_error(case):
    with pytest.raises(errors.ValidationError, match="must be a finite real number") as info:
        BAD_FERMI_INPUTS[case]()
    assert info.type is errors.ValidationError


def test_fermi_inputs_of_numpy_type_are_accepted():
    level = gap_levels(6, 1 / 3, [np.float64(1 / 3)])[0]
    assert level == gap_levels(6, 1 / 3, [1 / 3])[0]
    W, _ = harper_isometry(LatticeSpec(L=6, flux=1 / 3, fermi_level=np.float32(level)))
    assert W.shape == (36, 12)
