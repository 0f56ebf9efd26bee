"""Generators for the example systems.

The shift/clock pair is the canonical almost commuting unitary pair with
nontrivial Bott index; pairing it blockwise with its transpose produces
the self-dual example whose Bott index cancels but whose Pfaffian-Bott
sign survives.  The lattice side provides exact diagonal torus position
matrices and Fermi projections of a magnetic nearest-neighbor hopping
model on the discrete two-torus.  The generators take numbers and read no
files; the command line reads flags, lattice configs and sweep rows into
them (:mod:`acbott.cli`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np
from scipy.linalg import block_diag

from .errors import NoGap, ValidationError
from .matkernel import _check_integer, _hermitian_mean, as_squares

GAP_EXCLUSION = 1e-6


def _check_finite_real(value, name: str) -> None:
    """ValidationError unless ``value`` is a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValidationError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class LatticeSpec:
    """Square lattice on a discrete two-torus: L x L sites, a uniform flux
    per plaquette, a Fermi level, and 1 or 2 orbitals per site (2 selects
    the time-reversal doubled, self-dual construction).  L and orbitals are
    Python or NumPy integers, never bools or floats, flux a real number in
    [0, 1) and fermi_level a finite real, not a bool (ValidationError)."""

    L: int
    flux: float = 0.0
    fermi_level: float = 0.0
    orbitals: int = 1

    def __post_init__(self):
        _check_integer(self.L, "L", 2)
        flux = self.flux
        if isinstance(flux, bool) or not isinstance(flux, Real) or not 0.0 <= flux < 1.0:
            raise ValidationError(f"flux must lie in [0, 1), got {flux!r}")
        if _check_integer(self.orbitals, "orbitals", 1) > 2:
            raise ValidationError(f"orbitals must be 1 or 2, got {self.orbitals}")
        _check_finite_real(self.fermi_level, "fermi_level")

    @property
    def sites(self) -> int:
        return self.L * self.L


def parse_flux(text: str) -> float:
    """Parse a flux value given as a float or a fraction p/q."""
    text = str(text).strip()
    try:
        return float(Fraction(text)) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad flux {text!r}: {exc}") from exc


def voiculescu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cyclic shift and the clock: A has ones on the subdiagonal and
    the upper-right corner, B = diag(exp(2 pi i k / n)) for k = 1..n.
    Both exactly unitary; ||[A, B]|| = |exp(2 pi i / n) - 1|."""
    n = _check_integer(n, "n", 2)
    A = np.zeros((n, n), dtype=complex)
    A[0, n - 1] = 1.0
    for i in range(1, n):
        A[i, i - 1] = 1.0
    B = np.diag(np.exp(2j * np.pi * np.arange(1, n + 1) / n))
    return A, B


def selfdual_double(U1, U2) -> tuple[np.ndarray, np.ndarray]:
    """Pair a two-matrix example with its transpose: blockdiag(U, U^T).

    The result is exactly self-dual for the size-matched symplectic form
    and preserves unitarity and commutators.
    """
    A, B = as_squares((U1, U2), "U")
    return block_diag(A, A.T), block_diag(B, B.T)


def torus_positions(spec: LatticeSpec) -> tuple[np.ndarray, ...]:
    """Exact diagonal torus positions over the lattice sites:

        X1 = cos(2 pi x / L), X2 = sin(2 pi x / L),
        X3 = cos(2 pi y / L), X4 = sin(2 pi y / L).

    Each comes as its diagonal, a 1-D complex array (``np.diag`` gives the
    matrix).  They commute and satisfy both circle equations exactly.  With
    two orbitals the diagonal values are duplicated across the
    time-reversal pairing blocks, making each matrix self-dual.
    """
    x, y = np.divmod(np.arange(spec.sites), spec.L)  # site index s = x * L + y
    ax, ay = 2 * np.pi * x / spec.L, 2 * np.pi * y / spec.L
    values = [np.cos(ax), np.sin(ax), np.cos(ay), np.sin(ay)]
    if spec.orbitals == 2:
        values = [np.concatenate([v, v]) for v in values]
    return tuple(v.astype(complex) for v in values)


def harper_hamiltonian(L: int, flux: float) -> np.ndarray:
    """Magnetic nearest-neighbor hopping on the L x L torus: unit hops in
    x, Peierls phase exp(2 pi i flux x) on hops in y, so every plaquette
    encloses the given flux (exactly uniform when the denominator of the
    flux divides L).  L and flux follow :class:`LatticeSpec`'s rule."""
    LatticeSpec(L=L, flux=flux)
    x, y = np.divmod(np.arange(L * L), L)  # site index s = x * L + y
    H = np.zeros((L * L, L * L), dtype=complex)
    H[(x + 1) % L * L + y, x * L + y] -= 1.0
    H[x * L + (y + 1) % L, x * L + y] -= np.exp(2j * np.pi * flux * x)
    return H + H.conj().T


def _mid_gap(w, fill) -> float:
    """Mid-gap level after the lowest fraction ``fill`` of ascending w: a
    finite real, not a bool (ValidationError), with a gap there (NoGap)."""
    _check_finite_real(fill, "filling")
    k = int(round(fill * len(w)))
    if k <= 0 or k >= len(w):
        raise NoGap(f"filling {fill} leaves no states on one side")
    if w[k] - w[k - 1] < 2 * GAP_EXCLUSION:
        raise NoGap(f"no gap at filling {fill} (width {w[k] - w[k - 1]:.2e})")
    return float((w[k] + w[k - 1]) / 2)


def _doubled(A, orbitals: int) -> np.ndarray:
    """blockdiag(A, conj(A)) for two orbitals, else A."""
    return block_diag(A, A.conj()) if orbitals == 2 else A


def _occupied(spec: LatticeSpec, fill):
    """(H, occ, level) of the one-orbital model: occ spans the states below the level."""
    H = harper_hamiltonian(spec.L, spec.flux)
    w, V = np.linalg.eigh(H)
    level = spec.fermi_level if fill is None else _mid_gap(w, fill)
    k = int((w < level).sum())
    if k == 0 or k == len(w):
        raise NoGap(f"fermi level {level} is outside the spectrum")
    if np.min(np.abs(w - level)) < GAP_EXCLUSION:
        raise NoGap(f"fermi level {level} is within {GAP_EXCLUSION} of the spectrum")
    return H, V[:, :k], level


def harper_isometry(spec: LatticeSpec, fill=None) -> tuple[np.ndarray, float]:
    """Band isometry of the magnetic hopping model, from one eigh of H.

    Returns (W, level): W is n x k, k < n, with orthonormal columns
    spanning the states below the level, so W W* is the P of
    :func:`harper_projection`.  The level is spec.fermi_level, or the
    mid-gap level after the fraction ``fill`` of the states (as in
    :func:`gap_levels`).  With two orbitals W = blockdiag(occ, conj(occ)) =
    [F, T F] exactly, F = (occ; 0) and T the time reversal, the self-dual
    layout of :func:`acbott.wannier.compress_positions`, which turns W by a
    seeded Haar unitary."""
    _, occ, level = _occupied(spec, fill)
    return _doubled(occ, spec.orbitals), level


def harper_projection(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fermi projection of the magnetic hopping model.

    Returns (P, H).  The Fermi level must sit in a spectral gap: if it
    falls within 1e-6 of an eigenvalue, NoGap is raised.  With two
    orbitals the doubled blockdiag(H, conj(H)) construction is used, whose
    projection blockdiag(P, conj(P)) is exactly self-dual.
    """
    H, occ, _ = _occupied(spec, None)
    P = _hermitian_mean(occ @ occ.conj().T)
    return _doubled(P, spec.orbitals), _doubled(H, spec.orbitals)


def gap_levels(L: int, flux: float, fillings) -> list[float]:
    """Mid-gap Fermi levels for the given band fillings (fraction of states
    below, as k-th order statistics).  Raises NoGap for closed gaps."""
    w = np.linalg.eigvalsh(harper_hamiltonian(L, flux))
    return [_mid_gap(w, fill) for fill in fillings]
