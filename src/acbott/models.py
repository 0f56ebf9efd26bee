"""Generators for the example systems.

The shift/clock pair is the canonical almost commuting unitary pair with
nontrivial Bott index; pairing it blockwise with its transpose produces
the self-dual example whose Bott index cancels but whose Pfaffian-Bott
sign survives.  The lattice side provides exact diagonal torus position
matrices and Fermi projections of a magnetic nearest-neighbor hopping
model on the discrete two-torus, solved one y-momentum at a time.  The
generators take numbers and read no files; the command line reads flags,
lattice configs and sweep rows into them (:mod:`acbott.cli`).
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


def _momentum_bands(L: int, flux: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of :func:`harper_hamiltonian` one y-momentum at a time: w[j]
    the ascending eigenvalues and V[j] the real eigenvectors over x of the
    L x L chain h(k_j), k_j = 2 pi j / L, j = 0..L-1, from one batched real
    eigh.

    The Peierls phase depends on x only, so H commutes with the translation
    in y for every flux, and on v(x) exp(i k y) it acts as the periodic
    chain h(k) v(x) = -v(x - 1) - v(x + 1) - 2 cos(k - 2 pi flux x) v(x);
    the L spectra together are H's (Hofstadter, PRB 14, 2239 (1976))."""
    x = np.arange(L)
    ring = np.zeros((L, L))
    ring[(x + 1) % L, x] = -1.0
    ring += ring.T  # at L = 2 both hops join the same pair of sites, as in H
    h = np.repeat(ring[None], L, axis=0)
    k = 2 * np.pi * x / L
    h[:, x, x] = -2 * np.cos(k[:, None] - 2 * np.pi * flux * x)
    return np.linalg.eigh(h)


def _band_columns(w: np.ndarray, V: np.ndarray, level: float, real: bool) -> np.ndarray:
    """The n x k isometry onto the states below the level: for each pair
    (j, b) with w[j, b] < level, by ascending eigenvalue, the column
    V[j][:, b](x) exp(i k_j y) / sqrt(L) at row s = x L + y.

    With ``real`` (flux 0, where h(k) = h(-k)) the two waves of each pair
    +-k become the standing waves sqrt(2) cos(k y) and sqrt(2) sin(k y),
    so W is real, as the real model's eigenvectors are."""
    L = len(w)
    j, b = np.nonzero(w < level)
    order = np.argsort(w[j, b], kind="stable")
    j, b = j[order], b[order]
    theta = 2 * np.pi * (np.outer(np.arange(L), j) % L) / L
    if real:  # cos for 2j <= L, sin for the partner L - j; k = 0 and pi stand alone
        waves = np.where(2 * j <= L, np.cos(theta), np.sin(theta))
        waves[:, (j > 0) & (2 * j != L)] *= np.sqrt(2)
    else:
        waves = np.exp(1j * theta)
    waves /= np.sqrt(L)
    W = (V[j, :, b].T[:, None, :] * waves[None]).reshape(L * L, len(j))
    return W.astype(complex, copy=False)


def _occupied(spec: LatticeSpec, fill):
    """(occ, level) of the one-orbital model: occ spans the states below the level."""
    w, V = _momentum_bands(spec.L, spec.flux)
    spectrum = np.sort(w, axis=None)
    level = spec.fermi_level if fill is None else _mid_gap(spectrum, fill)
    k = int((spectrum < level).sum())
    if k == 0 or k == len(spectrum):
        raise NoGap(f"fermi level {level} is outside the spectrum")
    if np.min(np.abs(spectrum - level)) < GAP_EXCLUSION:
        raise NoGap(f"fermi level {level} is within {GAP_EXCLUSION} of the spectrum")
    return _band_columns(w, V, level, spec.flux == 0), level


def harper_isometry(spec: LatticeSpec, fill=None) -> tuple[np.ndarray, float]:
    """Band isometry of the magnetic hopping model, one y-momentum at a time.

    Returns (W, level): W is n x k, k < n, with orthonormal columns
    spanning the states below the level, so W W* is the P of
    :func:`harper_projection`.  Each column is an eigenvector
    v(x) exp(i k y) / sqrt(L) of H from the L x L chain of its y-momentum k
    (:func:`_momentum_bands`; no n x n solve runs), or a real standing wave
    at flux 0.  The level is spec.fermi_level, or the mid-gap level after
    the fraction ``fill`` of the states (as in :func:`gap_levels`).  With
    two orbitals W = blockdiag(occ, conj(occ)) = [F, T F] exactly,
    F = (occ; 0) and T the time reversal, the self-dual layout of
    :func:`acbott.wannier.compress_positions`, which turns W by a seeded
    Haar unitary."""
    occ, level = _occupied(spec, fill)
    return _doubled(occ, spec.orbitals), level


def harper_projection(spec: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Fermi projection of the magnetic hopping model.

    Returns (P, H), P = occ occ* from the band columns of
    :func:`harper_isometry`; H is built but not solved.  The Fermi level
    must sit in a spectral gap: if it falls within 1e-6 of an eigenvalue,
    NoGap is raised.  With two orbitals the doubled blockdiag(H, conj(H))
    construction is used, whose projection blockdiag(P, conj(P)) is
    exactly self-dual.
    """
    occ, _ = _occupied(spec, None)
    P = _hermitian_mean(occ @ occ.conj().T)
    H = harper_hamiltonian(spec.L, spec.flux)
    return _doubled(P, spec.orbitals), _doubled(H, spec.orbitals)


def gap_levels(L: int, flux: float, fillings) -> list[float]:
    """Mid-gap Fermi levels for the given band fillings (fraction of states
    below, as k-th order statistics of the spectrum of H, taken one
    y-momentum at a time).  Raises NoGap for closed gaps."""
    LatticeSpec(L=L, flux=flux)
    w = np.sort(_momentum_bands(L, flux)[0], axis=None)
    return [_mid_gap(w, fill) for fill in fillings]
