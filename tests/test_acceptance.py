"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from acbott import errors
from acbott.canonical import (
    commuting_pair_from_sphere,
    diag_anti_selfdual,
    k2_quaternion_witness,
    k2_real_witness,
    polar_product_check,
    skew_representative,
)
from acbott.invariants import bott_index_unitaries, compressed_index, pf_bott_unitaries
from acbott.matkernel import (
    operator_norm,
    pfaffian_combinatorial,
    pfaffian_real_skew,
    polar,
)
from acbott.models import (
    LatticeSpec,
    gap_levels,
    harper_isometry,
    harper_projection,
    selfdual_double,
    torus_positions,
    voiculescu,
)
from acbott.symmetry import SymmetryClass, dual, tau_residual
from acbott.wannier import (
    eigenbasis_commuting,
    projection_isometry,
    spread,
    spread_continuity_check,
)
from conftest import (
    commuting_symmetric_triple,
    random_antiselfdual_hermitian,
    random_coupled_unitary,
    random_hermitian,
    random_symplectic_unitary,
    random_unitary,
)

VOICULESCU_SIZES = (4, 8, 16, 32, 64, 128)
DOUBLED_SIZES = (4, 8, 16, 32, 64)


def announce(num: int, text: str):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_voiculescu_bott_index():
    start = time.monotonic()
    for n in VOICULESCU_SIZES:
        A, B = voiculescu(n)
        report = bott_index_unitaries(A, B)
        assert report.value == 1, f"n={n}: Bott = {report.value}"
        if n >= 8:
            assert report.gap > 0, f"n={n}: gap not positive"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    announce(1, f"Bott(shift, clock) = 1 for n in {VOICULESCU_SIZES} in {elapsed:.2f}s")


def test_criterion_02_commutator_law():
    for n in VOICULESCU_SIZES:
        A, B = voiculescu(n)
        measured = operator_norm(A @ B - B @ A)
        analytic = abs(np.exp(2j * np.pi / n) - 1)
        assert abs(measured - analytic) <= 1e-12, f"n={n}"
    announce(2, "||[A_n, B_n]|| matches |exp(2 pi i / n) - 1| to 1e-12")


def test_criterion_03_doubled_example():
    for n in DOUBLED_SIZES:
        V1, V2 = selfdual_double(*voiculescu(n))
        pf = pf_bott_unitaries(V1, V2)
        bott = bott_index_unitaries(V1, V2)
        assert pf.value == -1, f"n={n}: Pf-Bott = {pf.value}"
        assert bott.value == 0, f"n={n}: Bott = {bott.value}"
    announce(3, f"doubled pair: Pf-Bott = -1 and Bott = 0 for n in {DOUBLED_SIZES}")


def test_criterion_04_pfaffian_oracle_equivalence():
    rng = np.random.default_rng(44)
    worst = 0.0
    for size in (2, 4, 6, 8, 10, 12):
        for _ in range(100):
            M = rng.standard_normal((size, size))
            R = M - M.T
            alg = pfaffian_real_skew(R)
            ref = pfaffian_combinatorial(R).real
            rel = abs(alg - ref) / max(abs(ref), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-10, f"size {size}: rel error {rel:.2e}"
    # the fixed representative: Pf of its real form is (-1)^n, so that
    # Pf(S0) = i^{2n} (-1)^n = 1
    for n in (1, 2, 3):
        S0 = skew_representative(4 * n)
        pf_real = pfaffian_real_skew((-1j * S0).real)
        assert pf_real == pytest.approx((-1.0) ** n, rel=1e-10)
        pf_S0 = ((1j) ** (2 * n) * pf_real).real
        assert pf_S0 == pytest.approx(1.0, rel=1e-10)
    announce(4, f"600 Pfaffian oracle comparisons, worst rel {worst:.2e}; Pf(S0) = 1")


def _random_antidual_involution(rng, half, spread):
    X = random_antiselfdual_hermitian(rng, half)
    W, _ = diag_anti_selfdual(X)
    d = np.sqrt(rng.uniform(max(1.0 - spread, 0.05), 1.0 + spread, half))
    full = np.diag(np.concatenate([d, -d]))
    S = W @ full @ W.conj().T
    return (S + S.conj().T) / 2


def _random_skew_hermitian_instance(rng, blocks, flip):
    """Hermitian antisymmetric S = i Q D Q^T with Q special orthogonal."""
    size = 2 * blocks
    Q, _ = np.linalg.qr(rng.standard_normal((size, size)))
    if np.linalg.det(Q) < 0:
        Q[:, [0, 1]] = Q[:, [1, 0]]
    scale = rng.uniform(0.7, 1.3, blocks)
    if flip:
        scale[rng.integers(blocks)] *= -1.0
    D = np.zeros((size, size))
    for i, s in enumerate(scale):
        D[2 * i, 2 * i + 1], D[2 * i + 1, 2 * i] = s, -s
    S = 1j * (Q @ D @ Q.T)
    return (S + S.conj().T) / 2


def test_criterion_05_witness_bounds_and_dichotomy():
    rng = np.random.default_rng(55)
    for trial in range(200):
        half = int(rng.integers(2, 7))
        S = _random_antidual_involution(rng, half, spread=rng.uniform(0.05, 0.9))
        rep = k2_quaternion_witness(S)
        assert rep.bound <= rep.norm_condition + 1e-8, f"trial {trial}"

    mismatches = 0
    trivial = nontrivial = 0
    for trial in range(200):
        blocks = int(rng.choice([4, 6]))  # sizes 8 and 12: oracle range
        flip = bool(trial % 2)
        S = _random_skew_hermitian_instance(rng, blocks, flip)
        norm_cond = operator_norm(S @ S - np.eye(S.shape[0]))
        if norm_cond >= 1.0:
            S = S / np.sqrt(1.0 + norm_cond / 2)  # pull inside the norm gate
        pf_oracle = pfaffian_combinatorial(S).real
        try:
            rep = k2_real_witness(S)
            trivial += 1
            if pf_oracle <= 0:
                mismatches += 1
            assert rep.bound <= rep.norm_condition + 1e-8, f"trial {trial}"
        except errors.NontrivialClass:
            nontrivial += 1
            if pf_oracle >= 0:
                mismatches += 1
    assert mismatches == 0
    assert trivial and nontrivial
    announce(5, f"400 witness instances: bounds hold; dichotomy {trivial}/{nontrivial} "
                "with 0 Pfaffian mismatches")


def test_criterion_06_polar_lemmas():
    rng = np.random.default_rng(66)
    worst_check = 0.0
    worst_tau = 0.0
    for trial in range(100):
        half = int(rng.integers(2, 6))
        W = random_symplectic_unitary(rng, half)
        A, B = W[:half, :half], W[:half, half:]
        value = polar_product_check(A, B)
        worst_check = max(worst_check, value)
        U = polar(A.conj().T @ B)
        worst_tau = max(worst_tau, tau_residual(U, SymmetryClass.SYMMETRIC))
    for trial in range(100):
        quarter = int(rng.integers(1, 4))
        W = random_coupled_unitary(rng, quarter)
        h = 2 * quarter
        A, B = W[:h, :h], W[:h, h:]
        value = polar_product_check(A, B)
        worst_check = max(worst_check, value)
        U = polar(A.conj().T @ B)
        worst_tau = max(worst_tau, tau_residual(U, SymmetryClass.SELF_DUAL))
    assert worst_check <= 1e-9
    assert worst_tau <= 1e-9
    announce(6, f"200 block pairs: polar product residual <= {worst_check:.2e}, "
                f"tau-fixedness <= {worst_tau:.2e}")


def test_criterion_07_structured_diagonalization():
    rng = np.random.default_rng(77)
    worst_rec = 0.0
    worst_symp = 0.0
    for _ in range(500):
        half = int(rng.integers(1, 17))  # sizes 2..32
        X = random_antiselfdual_hermitian(rng, half)
        W, D = diag_anti_selfdual(X)
        full = np.diag(np.concatenate([D, -D]))
        worst_rec = max(worst_rec, operator_norm(X - W @ full @ W.conj().T))
        worst_symp = max(
            worst_symp,
            operator_norm(W @ W.conj().T - np.eye(2 * half)),
            operator_norm(dual(W) - W.conj().T),
        )
        assert worst_rec <= 1e-9
        assert worst_symp <= 1e-10
    announce(7, f"500 structured diagonalizations: reconstruction <= {worst_rec:.2e}, "
                f"symplectic defect <= {worst_symp:.2e}")


def test_criterion_08_wannier_inequalities():
    rng = np.random.default_rng(88)
    d = 4
    for trial in range(100):
        n = int(rng.integers(6, 14))
        U = random_unitary(rng, n)
        Ys = [(U * rng.uniform(-1, 1, n)) @ U.conj().T for _ in range(d)]
        Ys = [(Y + Y.conj().T) / 2 for Y in Ys]
        Xs = []
        for Y in Ys:
            G = random_hermitian(rng, n)
            X = Y + rng.uniform(0, 0.2) * G / operator_norm(G)
            Xs.append(X / max(1.0, operator_norm(X)))
        k = int(rng.integers(1, n))
        basis = random_unitary(rng, n)[:, :k]
        lhs, rhs = spread_continuity_check(Xs, Ys, basis)
        assert lhs <= rhs + 1e-9, f"continuity trial {trial}"

    for trial in range(100):
        n = int(rng.integers(8, 14))
        k = int(rng.integers(2, n - 2))
        U = random_unitary(rng, n)
        P = U[:, :k] @ U[:, :k].conj().T
        Xs = []
        for _ in range(d):
            H = random_hermitian(rng, n)
            Xs.append(H / operator_norm(H))
        delta = max(operator_norm(P @ X - X @ P) for X in Xs)
        W = projection_isometry(P, SymmetryClass.COMPLEX, rng)
        inner = [W.conj().T @ X @ W for X in Xs]
        m = int(rng.integers(1, k + 1))
        basis = random_unitary(rng, k)[:, :m]
        lhs = spread(Xs, W @ basis).maximum
        rhs = spread(inner, basis).maximum + 8 * d * delta
        assert lhs <= rhs + 1e-9, f"compression trial {trial}"

    for L in (3, 4, 5):
        Xs = torus_positions(LatticeSpec(L=L))
        B = eigenbasis_commuting(Xs)
        assert spread(Xs, B).maximum <= 1e-10
    announce(8, "100 continuity + 100 compression inequalities hold (slack 1e-9); "
                "exact commuting eigenbases spread <= 1e-10")


def _harper_instances():
    """(L, flux, fill, orbitals, comm_tol) grid: 48 instances at the spec's
    own model sizes (gate relaxed, gap-certified) plus 2 at the default
    1/8 gate where the commutator genuinely sits below it."""
    grid = []
    families = {
        12: [("1/3", (1, 2)), ("2/3", (1, 2)), ("1/4", (1, 3)), ("3/4", (1, 3))],
        15: [("1/3", (1, 2)), ("2/3", (1, 2)), ("1/5", (1, 2)), ("4/5", (1, 2))],
        18: [("1/3", (1, 2)), ("2/3", (1, 2)), ("1/6", (1, 2)), ("5/6", (1, 2))],
    }
    for L, fluxes in families.items():
        for flux_text, fills in fluxes:
            for fill in fills:
                for orbitals in (1, 2):
                    grid.append((L, flux_text, fill, orbitals, 0.5))
    grid.append((36, "1/6", 1, 1, 0.125))
    grid.append((36, "5/6", 1, 1, 0.125))
    return grid


def _harper_chern(flux_text: str, fill: int) -> int:
    """Chern number t of the lowest ``fill`` Harper bands at flux p/q
    (Thouless-Kohmoto-Nightingale-den Nijs): the one solution of
    fill = q s + p t with |t| <= q/2.  Two solutions (t = +-q/2) would mark
    the closed middle gap of an even q."""
    from fractions import Fraction

    p, q = Fraction(flux_text).numerator, Fraction(flux_text).denominator
    ts = [t for t in range(-(q // 2), q // 2 + 1) if (fill - p * t) % q == 0]
    assert len(ts) == 1, f"flux {flux_text} fill {fill}: solutions {ts}"
    return ts[0]


def test_criterion_09_compressed_index_well_defined():
    from fractions import Fraction

    checked = 0
    eig_cache = {}
    for L, flux_text, fill, orbitals, comm_tol in _harper_instances():
        flux = float(Fraction(flux_text))
        q = Fraction(flux_text).denominator
        key = (L, flux_text, fill)
        if key not in eig_cache:
            eig_cache[key] = gap_levels(L, flux, [fill / q])[0]
        fermi = eig_cache[key]
        spec = LatticeSpec(L=L, flux=flux, fermi_level=fermi, orbitals=orbitals)
        P, _ = harper_projection(spec)
        Xs = torus_positions(spec)
        cls = SymmetryClass.SELF_DUAL if orbitals == 2 else SymmetryClass.COMPLEX
        first = compressed_index(P, Xs, cls, comm_tol=comm_tol, seed=101)
        second = compressed_index(P, Xs, cls, comm_tol=comm_tol, seed=202)
        assert first.value == second.value, (
            f"L={L} flux={flux_text} fill={fill} orb={orbitals}: "
            f"{first.value} vs {second.value}"
        )
        assert first.gap > 0
        t = _harper_chern(flux_text, fill)
        assert first.value == (-t if cls is SymmetryClass.COMPLEX else (-1) ** t), (
            f"L={L} flux={flux_text} fill={fill} orb={orbitals}: {first.value}, Chern {t}"
        )
        if comm_tol == 0.125:
            assert first.details["delta_commutator"] < 0.125
        checked += 1
    assert checked == 50
    announce(9, f"{checked} Harper instances: seeded isometry choices agree and "
                "match the closed-form Chern numbers")


@pytest.mark.parametrize("L, flux_text", [(15, "2/5"), (21, "3/7")])
@pytest.mark.parametrize("orbitals", [1, 2])
def test_harper_closed_form_beyond_unit_numerator(L, flux_text, orbitals):
    """Flux p/q with p > 1 at fill 1 has Chern number t = -2, beyond the
    |t| <= 1 of most criterion-09 instances; the model's isometry W carries
    the band, and both seeds give the closed-form value."""
    from fractions import Fraction

    flux = Fraction(flux_text)
    spec = LatticeSpec(L=L, flux=float(flux), orbitals=orbitals)
    W, _, _ = harper_isometry(spec, 1 / flux.denominator)
    Xs = torus_positions(spec)
    cls = SymmetryClass.SELF_DUAL if orbitals == 2 else SymmetryClass.COMPLEX
    t = _harper_chern(flux_text, 1)
    assert t == -2
    for seed in (101, 202):
        rep = compressed_index(W, Xs, cls, comm_tol=0.5, seed=seed)
        assert rep.value == (-t if cls is SymmetryClass.COMPLEX else (-1) ** t)
        assert rep.gap > 0.4


def test_criterion_10_extraction_trend():
    rng = np.random.default_rng(1010)
    etas = (1e-1, 1e-2, 1e-3)
    for trial in range(5):
        n = 10
        Hs = commuting_symmetric_triple(rng, n)
        results = []
        for eta in etas:
            noisy = []
            for H in Hs:
                G = rng.standard_normal((n, n))
                G = (G + G.T) / 2
                noisy.append(H + eta * G / operator_norm(G))
            res = commuting_pair_from_sphere(
                *noisy, SymmetryClass.SYMMETRIC, seed=trial
            ).residuals
            assert res["reconstruction"] <= 10 * eta, (
                f"trial {trial} eta={eta}: reconstruction {res['reconstruction']:.2e}"
            )
            results.append(res)
        for name in ("commutator", "tau", "reconstruction"):
            values = [r[name] for r in results]
            assert values[1] <= values[0] + 1e-9, f"{name} not decreasing at 1e-2"
            assert values[2] <= values[1] + 1e-9, f"{name} not decreasing at 1e-3"
    announce(10, "extraction residuals decrease in eta and reconstruction <= 10 eta "
                 "(5 triples x 3 noise levels)")
