"""Shared random generators for structured matrices.

Seeded construction only; every test passes its own rng so reruns are
reproducible.  Property tests run under the deterministic hypothesis
profile registered here.  The suite runs at one BLAS thread, as the
benchmark does, unless OPENBLAS_NUM_THREADS is set already; the setting
must precede the first numpy import.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest
from hypothesis import settings

from acbott.symmetry import SymmetryClass, dual, sharp_sharp, symmetrize

# one deterministic profile: reruns draw the same examples, and no example
# is timed out on a loaded machine
settings.register_profile("acbott", derandomize=True, max_examples=25, deadline=None)
settings.load_profile("acbott")


@pytest.fixture
def rng():
    return np.random.default_rng(20240803)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    G = random_complex(rng, n)
    return (G + G.conj().T) / 2


def random_unitary(rng, n):
    Q, R = np.linalg.qr(random_complex(rng, n))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_real_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def skew_from_blocks(rng, a, rotate=True):
    """Real skew R = O D O^T with D built from 2x2 blocks [[0, a_i], [-a_i, 0]],
    O a random orthogonal matrix, or a random permutation when rotate is
    False (so zero blocks stay exactly zero)."""
    a = np.asarray(a, dtype=float)
    n = 2 * a.size
    D = np.zeros((n, n))
    i = np.arange(0, n, 2)
    D[i, i + 1], D[i + 1, i] = a, -a
    if not rotate:
        p = rng.permutation(n)
        return D[np.ix_(p, p)]
    O = random_real_orthogonal(rng, n)
    R = O @ D @ O.T
    return (R - R.T) / 2


def skew_case(rng, kind, n):
    """Seeded real skew matrices of size n: generic Gaussian, repeated block
    values, tightly clustered ones (|a_i| = 1 +- 1e-2, as in extraction), and
    exact zero blocks."""
    h = n // 2
    if kind == "generic":
        M = rng.standard_normal((n, n)) / np.sqrt(n)
        return M - M.T
    if kind == "repeated":
        return skew_from_blocks(rng, np.resize([0.5, 1.0, 2.0], h))
    if kind == "clustered":
        return skew_from_blocks(rng, 1 + 1e-2 * rng.uniform(-1, 1, h))
    a = rng.uniform(0.5, 2.0, h)
    a[::3] = 0.0
    return skew_from_blocks(rng, a, rotate=False)


def random_selfdual_hermitian(rng, half):
    """Self-dual Hermitian of size 2*half."""
    return symmetrize(random_hermitian(rng, 2 * half), SymmetryClass.SELF_DUAL)


def random_antiselfdual_hermitian(rng, half):
    H = random_hermitian(rng, 2 * half)
    return (H - dual(H)) / 2


def random_real_symmetric(rng, n):
    G = rng.standard_normal((n, n))
    return ((G + G.T) / 2).astype(complex)


def expm_antihermitian(G):
    """exp(G) for anti-Hermitian G via the Hermitian eigenproblem of iG."""
    w, V = np.linalg.eigh(1j * np.asarray(G))
    return (V * np.exp(-1j * w)) @ V.conj().T


def random_symplectic_unitary(rng, half):
    """Unitary W of size 2*half with W-dual = W*, as exp of a structured
    anti-Hermitian generator."""
    G = random_complex(rng, 2 * half)
    G = (G - G.conj().T) / 2
    G = (G - dual(G)) / 2
    return expm_antihermitian(G)


def random_coupled_unitary(rng, quarter):
    """Unitary W of size 4*quarter with sharp_sharp(W) = W*."""
    G = random_complex(rng, 4 * quarter)
    G = (G - G.conj().T) / 2
    G = (G - sharp_sharp(G)) / 2
    return expm_antihermitian(G)


def commuting_sphere_triple(rng, n, conjugate=None):
    """Exactly commuting Hermitian triple with H1^2 + H2^2 + H3^2 = I,
    conjugated by the given unitary (defaults to a Haar unitary)."""
    pts = rng.standard_normal((3, n))
    pts /= np.linalg.norm(pts, axis=0)
    Q = random_unitary(rng, n) if conjugate is None else conjugate
    return tuple((Q * pts[r]) @ Q.conj().T for r in range(3))


def commuting_symmetric_triple(rng, n):
    """Exactly commuting real symmetric sphere triple."""
    pts = rng.standard_normal((3, n))
    pts /= np.linalg.norm(pts, axis=0)
    Q = random_real_orthogonal(rng, n)
    return tuple(((Q * pts[r]) @ Q.T).astype(complex) for r in range(3))


def commuting_selfdual_triple(rng, half):
    """Exactly commuting self-dual sphere triple of size 2*half: paired
    diagonal sphere points conjugated by a symplectic unitary."""
    pts = rng.standard_normal((3, half))
    pts /= np.linalg.norm(pts, axis=0)
    W = random_symplectic_unitary(rng, half)
    out = []
    for r in range(3):
        D = np.diag(np.concatenate([pts[r], pts[r]])).astype(complex)
        out.append(W @ D @ W.conj().T)
    return tuple(out)


def selfdual_direct_sum(A, B):
    """Direct sum of self-dual matrices respecting the paired layout."""
    ha, hb = A.shape[0] // 2, B.shape[0] // 2

    def quadrant(M, i, j):
        h = M.shape[0] // 2
        return M[i * h:(i + 1) * h, j * h:(j + 1) * h]

    rows = []
    for i in (0, 1):
        row = []
        for j in (0, 1):
            blockA = quadrant(A, i, j)
            blockB = quadrant(B, i, j)
            row.append(np.block([
                [blockA, np.zeros((ha, hb))],
                [np.zeros((hb, ha)), blockB],
            ]))
        rows.append(row)
    return np.block(rows)
