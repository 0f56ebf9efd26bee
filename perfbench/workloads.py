"""The benchmark's three workloads.

A workload turns the benchmark seed into a list of units of work.  Each
unit is one call into acbott's public API plus a check of its output
against a pinned value or a residual gate; a round runs every unit once, in
order, so every run sees the same mix of instances.

Why these three (each stresses a different set of layers):

* harper-selfdual: ``compressed_index`` on two-orbital Harper instances,
  where the Pfaffian-Bott path (polar part, Pfaffian loop, norm gates, Phi
  conjugation) and the Kramers pairing dominate; ``matio`` and
  ``canonical`` are idle.
* cli-harper: ``acbott gen harper`` then ``acbott index compressed``
  through ``acbott.cli.main``; JSON matrix I/O dominates, and it is the only
  workload with ``models`` on the timed path.
* extraction: ``commuting_pair_from_sphere`` on noisy commuting triples,
  the only workload that reaches ``canonical`` (witnesses, real Schur,
  ``diag_anti_selfdual``) and the symmetry involutions at scale.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

HARPER_SELFDUAL = (  # (L, flux, fill, orbitals, pinned index)
    (12, "1/4", 3, 2, -1),
    (15, "1/3", 2, 2, -1),
    (18, "1/3", 1, 2, -1),
    (18, "1/6", 2, 2, +1),
)
CLI_PINNED = -1
ETA = 1e-2
EXTRACTION_SIZE = 256
RECONSTRUCTION_GATE = 10 * ETA
TAU_GATE = 1e-8


@dataclass
class Unit:
    """One unit of work: ``call`` runs it, ``check`` returns None when the
    output is right and a reason otherwise."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _index_check(pinned: int):
    def check(report):
        if report.value != pinned:
            return f"index {report.value}, pinned {pinned}"
        if not report.gap > 0:
            return f"gap {report.gap} not positive"
        return None

    return check


def harper_selfdual(acbott, seed, workdir) -> list[Unit]:
    rng = np.random.default_rng(seed)
    units = []
    for L, flux_text, fill, orbitals, pinned in HARPER_SELFDUAL:
        flux = Fraction(flux_text)
        level = acbott.models.gap_levels(L, float(flux), [fill / flux.denominator])[0]
        spec = acbott.LatticeSpec(
            L=L, flux=float(flux), fermi_level=level, orbitals=orbitals
        )
        P, _ = acbott.harper_projection(spec)
        Xs = acbott.torus_positions(spec)
        call_seed = int(rng.integers(2**31))

        # the function is looked up at call time so the tracer's wrapper is used
        def call(P=P, Xs=Xs, call_seed=call_seed):
            return acbott.compressed_index(
                P, Xs, acbott.SymmetryClass.SELF_DUAL, comm_tol=0.5, seed=call_seed
            )

        units.append(Unit(f"L{L} flux {flux_text} fill {fill}", call, _index_check(pinned)))
    return units


def cli_harper(acbott, seed, workdir) -> list[Unit]:
    cli = importlib.import_module("acbott.cli")
    # L=12 keeps a round trip near 2 s, so one run times several of them
    gen_argv = ["gen", "harper", "--L", "12", "--flux", "1/3", "--fermi", "fill:1",
                "--orbitals", "2", "--out", str(workdir)]
    index_argv = ["index", "compressed", "--in", str(workdir), "--class", "selfdual",
                  "--comm-tol", "0.5", "--seed", str(seed)]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def call():
        gen = run(gen_argv)
        return gen, run(index_argv) if gen[0] == 0 else None

    def check(result):
        gen, index = result
        if gen[0] != 0:
            return f"gen exit {gen[0]}: {gen[2].strip()}"
        if index[0] != 0:
            return f"index exit {index[0]}: {index[2].strip()}"
        value = json.loads(index[1])["value"]
        if value != CLI_PINNED:
            return f"index {value}, pinned {CLI_PINNED}"
        return None

    return [Unit("gen + index L12 flux 1/3 selfdual", call, check)]


def _noisy(acbott, exact, noise):
    """Add eta-sized noise, normalized in operator norm, to each matrix."""
    out = []
    for H in exact:
        G = noise()
        out.append(H + ETA * G / acbott.operator_norm(G))
    return out


def _symmetric_triple(acbott, rng, n):
    """Exactly commuting real symmetric sphere triple plus real symmetric noise."""
    pts = rng.standard_normal((3, n))
    pts /= np.linalg.norm(pts, axis=0)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    exact = [((Q * pts[r]) @ Q.T).astype(complex) for r in range(3)]

    def noise():
        G = rng.standard_normal((n, n))
        return (G + G.T) / 2

    return _noisy(acbott, exact, noise)


def _selfdual_triple(acbott, rng, n):
    """Exactly commuting self-dual sphere triple (paired diagonal points
    conjugated by a symplectic unitary) plus self-dual Hermitian noise."""
    half = n // 2
    pts = rng.standard_normal((3, half))
    pts /= np.linalg.norm(pts, axis=0)
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = (G - G.conj().T) / 2
    G = (G - acbott.dual(G)) / 2
    w, V = np.linalg.eigh(1j * G)
    W = (V * np.exp(-1j * w)) @ V.conj().T
    exact = [(W * np.concatenate([p, p])) @ W.conj().T for p in pts]

    def noise():
        N = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return acbott.symmetrize((N + N.conj().T) / 2, acbott.SymmetryClass.SELF_DUAL)

    return _noisy(acbott, exact, noise)


def _extraction_check(report):
    res = report.residuals
    if not res["reconstruction"] <= RECONSTRUCTION_GATE:
        return f"reconstruction {res['reconstruction']:.3e} > {RECONSTRUCTION_GATE}"
    if not res["tau"] <= TAU_GATE:
        return f"tau residual {res['tau']:.3e} > {TAU_GATE}"
    return None


def extraction(acbott, seed, workdir) -> list[Unit]:
    rng = np.random.default_rng(seed)
    cls = acbott.SymmetryClass
    kinds = [(cls.SYMMETRIC, _symmetric_triple)] * 2 + [(cls.SELF_DUAL, _selfdual_triple)] * 2
    units = []
    for symmetry, make in kinds:
        Hs = make(acbott, rng, EXTRACTION_SIZE)
        call_seed = int(rng.integers(2**31))

        def call(Hs=Hs, symmetry=symmetry, call_seed=call_seed):
            return acbott.commuting_pair_from_sphere(*Hs, symmetry, seed=call_seed)

        units.append(Unit(f"{symmetry.value} n={EXTRACTION_SIZE}", call, _extraction_check))
    return units


WORKLOADS = {
    "harper-selfdual": harper_selfdual,
    "cli-harper": cli_harper,
    "extraction": extraction,
}
