"""Command-line front end.

Verbs: gen, residual, index, canonical, wannier, sweep, selftest.

Exit codes: 0 success, 2 validation error (bad input, bad flags), 3
mathematical obstruction (GapTooSmall, NontrivialClass) with the
obstruction named on stderr, so sweeps across phase boundaries can tell
"obstructed" apart from "broken".  A stdout closed before the output is
written (``acbott selftest | head -1``) ends the run quietly with
EXIT_BROKEN_PIPE.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from . import matio
from .canonical import (
    commuting_pair_from_sphere,
    diag_anti_selfdual,
    k2_quaternion_witness,
    k2_real_witness,
    k2_twisted_witness,
    polar_product_check,
    real_skew_canonical,
)
from .errors import ObstructionError, ValidationError
from .invariants import (
    COMMUTATOR_GATE,
    bott_index,
    bott_index_unitaries,
    compressed_index,
    pf_bott_index,
    pf_bott_unitaries,
)
from .matkernel import (
    DEFAULT_GAP_TOL,
    _check_integer,
    check_tolerance,
    herm_eig,
    operator_norm,
    pfaffian_combinatorial,
    pfaffian_real_skew,
    polar,
)
from .models import (
    LatticeSpec,
    harper_isometry,
    parse_flux,
    selfdual_double,
    torus_positions,
    voiculescu,
)
from .relations import disk_residual, sphere_residual, torus2_residual, torus4_residual
from .symmetry import SymmetryClass, dual, sharp_sharp
from .wannier import compress_positions, eigenbasis_commuting, spread

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process a closed pipe ended
TRIPLE = ("H1", "H2", "H3")
PAIR = ("U1", "U2")
QUAD = ("X1", "X2", "X3", "X4")
_LATTICE_KEYS = ("L", "flux", "fermi_level", "orbitals")
_SWEEP_KEYS = {"voiculescu": ("n", "doubled"), "noise": ("eta", "size", "trials"),
               "harper": ("L", "flux", "fill", "orbitals", "comm_tol")}
_BOOLEANS = {"0": False, "false": False, "no": False, "1": True, "true": True, "yes": True}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acbott",
        description="Bott/Pfaffian-Bott indices and diagnostics for almost commuting matrices",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    gen = sub.add_parser("gen", help="generate example systems")
    gsub = gen.add_subparsers(dest="what", required=True)
    g_v = gsub.add_parser("voiculescu", help="shift/clock unitary pair")
    g_v.add_argument("--n", type=int, required=True)
    g_v.add_argument("--doubled", action="store_true", help="pair with the transpose (self-dual)")
    g_t = gsub.add_parser("torus", help="exact diagonal torus positions")
    g_t.add_argument("--L", type=int, required=True)
    g_t.add_argument("--orbitals", type=int, default=1, choices=(1, 2))
    g_h = gsub.add_parser("harper", help="magnetic lattice model and its band isometry")
    g_h.add_argument("--config", default=None,
                     help="flat key=value lattice file with the keys L (required), flux, "
                          "fermi_level (a level or fill:K) and orbitals; excludes the "
                          "--L, --flux, --fermi and --orbitals flags")
    g_h.add_argument("--L", type=int, default=None)
    g_h.add_argument("--flux", type=str, default=None, help="a float or p/q (default 0)")
    g_h.add_argument("--fermi", type=str, default=None,
                     help="Fermi level, or 'fill:K' for mid-gap after K bands of L*L/q states")
    g_h.add_argument("--orbitals", type=int, default=None, choices=(1, 2), help="default 1")

    res = sub.add_parser("residual", help="soft relation residuals")
    res.add_argument("relation", choices=("sphere", "torus2", "torus4", "disk"))

    idx = sub.add_parser("index", help="topological indices")
    isub = idx.add_subparsers(dest="kind", required=True)
    i_b = isub.add_parser("bott", help="Bott index of a triple or a unitary pair")
    i_p = isub.add_parser("pfbott", help="Pfaffian-Bott sign of a self-dual triple or pair")
    i_c = isub.add_parser("compressed", help="index of the positions compressed onto a band")
    i_c.add_argument("--comm-tol", type=float, default=COMMUTATOR_GATE)
    i_c.add_argument("--class", dest="symclass", default="complex",
                     choices=("complex", "symmetric", "selfdual"))

    can = sub.add_parser("canonical", help="structured canonical forms and witnesses")
    csub = can.add_subparsers(dest="what", required=True)
    c_a = csub.add_parser("antidual", help="symplectic diagonalization of X")
    c_w = csub.add_parser("witness", help="two-torsion witness for S")
    c_w.add_argument("--kind", choices=("quaternion", "real", "twisted"), required=True)
    c_e = csub.add_parser("extract", help="commuting pair from a near-sphere triple")
    c_e.add_argument("--class", dest="symclass", default="symmetric",
                     choices=("symmetric", "selfdual"))
    c_p = csub.add_parser("polarcheck", help="polar product identity diagnostic")

    wan = sub.add_parser("wannier", help="spread reports and compression")
    wsub = wan.add_subparsers(dest="what", required=True)
    w_s = wsub.add_parser("spread", help="spread of an eigenbasis against X1..X4")
    w_s.add_argument("--out", default=None, help="CSV path (default stdout)")
    w_c = wsub.add_parser("compress", help="compress positions onto a band (W, else P)")

    swp = sub.add_parser("sweep", help="parameter sweeps to CSV")
    swp.add_argument("--config", required=True)
    swp.add_argument("--workers", type=int, default=1)

    st = sub.add_parser("selftest", help="run the built-in oracle suite")

    # each flag several commands share is defined once, on exactly the commands that read it
    for p in (res, i_b, i_p, i_c, c_a, c_w, c_e, c_p, w_s, w_c):
        p.add_argument("--in", dest="indir", required=True)
    for p in (g_v, g_t, g_h, c_a, c_w, c_e, w_c, swp):
        p.add_argument("--out", required=True)
    for p in (i_c, c_e, w_s, w_c, swp, st):
        p.add_argument("--seed", type=int, default=0)
    for p in (res, i_b, i_p, i_c):
        p.add_argument("--format", choices=("json", "csv"), default="json")
    for p in (i_b, i_p, i_c):
        p.add_argument("--gap-tol", type=float, default=DEFAULT_GAP_TOL)
    return parser


def _fill_fraction(flux: str, K: int) -> float:
    """The fraction of states in K of q subbands (2 at zero flux): q is the
    denominator of a flux written p/q, else of the float flux within 1/64."""
    frac = Fraction(flux) if "/" in flux else Fraction(parse_flux(flux)).limit_denominator(64)
    return K / (frac.denominator if frac else 2)


def _harper(L, flux: str, fermi: str, orbitals):
    """(W, (X1..X4), level) of the Harper model: flux is text for parse_flux,
    fermi a level or 'fill:K' (mid-gap after K bands, see _fill_fraction), and
    L and orbitals are integers, else ValidationError (from LatticeSpec)."""
    flux_value = parse_flux(flux)
    try:
        fill = _fill_fraction(flux, int(fermi[len("fill:"):])) if fermi.startswith("fill:") else None
        level = 0.0 if fill is not None else float(fermi)
    except ValueError as exc:
        raise ValidationError(f"bad fermi level {fermi!r} (value or fill:K)") from exc
    spec = LatticeSpec(L=L, flux=flux_value, fermi_level=level, orbitals=orbitals)
    W, level = harper_isometry(spec, fill)
    return W, torus_positions(spec), level


def _voiculescu_pair(n: int, doubled: bool):
    """The shift/clock pair of size n, or its self-dual double (size 2n)."""
    A, B = voiculescu(n)
    return selfdual_double(A, B) if doubled else (A, B)


def _known_keys(cfg: dict, accepted, path) -> dict:
    """cfg, if its every key is accepted; else ValidationError naming the others."""
    unknown = [key for key in cfg if key not in accepted]
    if unknown:
        raise ValidationError(f"{path}: unknown key {', '.join(unknown)} "
                              f"(accepted: {', '.join(accepted)})")
    return cfg


@contextmanager
def _csv_writer(path):
    """A CSV writer on path; an OSError opening or writing it is a ValidationError."""
    try:
        with open(path, "w", newline="") as fh:
            yield csv.writer(fh)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _read_band(indir):
    """The band of a directory: the isometry W when present, else the projection P."""
    roles = matio.available_roles(indir)
    if not roles & {"W", "P"}:
        raise ValidationError(f"{indir} holds neither W.json nor P.json")
    return matio.read_matrix_dir(indir, ("W" if "W" in roles else "P",))[0]


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(report.keys())
        writer.writerow(report.values())
    else:
        print(matio.dump_report(report))


def cmd_gen(args) -> int:
    out = Path(args.out)
    if args.what == "voiculescu":
        A, B = _voiculescu_pair(args.n, args.doubled)
        matio.write_matrix_dir(out, {"U1": A, "U2": B})
        print(f"wrote U1, U2 ({A.shape[0]}x{A.shape[0]}) to {out}")
        return 0
    if args.what == "torus":
        spec = LatticeSpec(L=args.L, orbitals=args.orbitals)
        Xs = torus_positions(spec)
        matio.write_matrix_dir(out, dict(zip(QUAD, Xs)))
        print(f"wrote X1..X4 ({Xs[0].shape[0]} sites) to {out}")
        return 0
    if args.config is not None:
        if (args.L, args.flux, args.fermi, args.orbitals) != (None,) * 4:
            raise ValidationError("--config excludes --L, --flux, --fermi and --orbitals")
        cfg = _known_keys(matio.read_config(args.config), _LATTICE_KEYS, args.config)
        try:
            L, orbitals = int(cfg["L"]), int(cfg.get("orbitals", "1"))
        except KeyError as exc:
            raise ValidationError(f"config missing key {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"bad config value: {exc}") from exc
        flux, fermi = cfg.get("flux", "0"), cfg.get("fermi_level", "0")
    elif args.L is None or args.fermi is None:
        raise ValidationError("--L and --fermi (value or fill:K) are required without --config")
    else:
        L, fermi = args.L, args.fermi
        flux = "0" if args.flux is None else args.flux
        orbitals = 1 if args.orbitals is None else args.orbitals
    W, Xs, level = _harper(L, flux, fermi, orbitals)
    matio.write_matrix_dir(out, {"W": W, **dict(zip(QUAD, Xs))})
    print(f"wrote W ({W.shape[0]}x{W.shape[1]}), X1..X4 (fermi={level:.6g}) to {out}")
    return 0


def cmd_residual(args) -> int:
    fns = {
        "sphere": (TRIPLE, sphere_residual),
        "torus2": (PAIR, torus2_residual),
        "torus4": (QUAD, torus4_residual),
        "disk": (("X1", "X2"), disk_residual),
    }
    roles, fn = fns[args.relation]
    report = fn(*matio.read_matrix_dir(args.indir, roles))
    _emit_report(report.to_dict(), args.format)
    return 0


def cmd_index(args) -> int:
    if args.kind == "compressed":
        Xs = matio.read_matrix_dir(args.indir, QUAD)
        report = compressed_index(
            _read_band(args.indir),
            Xs,
            SymmetryClass(args.symclass),
            gap_tol=args.gap_tol,
            comm_tol=args.comm_tol,
            seed=args.seed,
        )
    elif set(PAIR) <= matio.available_roles(args.indir):
        U1, U2 = matio.read_matrix_dir(args.indir, PAIR)
        fn = pf_bott_unitaries if args.kind == "pfbott" else bott_index_unitaries
        report = fn(U1, U2, gap_tol=args.gap_tol)
    else:
        H1, H2, H3 = matio.read_matrix_dir(args.indir, TRIPLE)
        fn = pf_bott_index if args.kind == "pfbott" else bott_index
        report = fn(H1, H2, H3, gap_tol=args.gap_tol)
    _emit_report(report.to_dict(), args.format)
    return 0


def cmd_canonical(args) -> int:
    if args.what == "antidual":
        X, = matio.read_matrix_dir(args.indir, ("X",))
        W, D = diag_anti_selfdual(X)
        out = Path(args.out)
        matio.write_matrix_dir(out, {"W": W, "D": D})
        print(matio.dump_report({"half_spectrum": D.tolist()}))
        return 0
    if args.what == "witness":
        S, = matio.read_matrix_dir(args.indir, ("S",))
        fn = {
            "quaternion": k2_quaternion_witness,
            "real": k2_real_witness,
            "twisted": k2_twisted_witness,
        }[args.kind]
        report = fn(S)
        out = Path(args.out)
        matio.write_matrix_dir(out, {"W": report.witness})
        print(matio.dump_report({
            "bound": report.bound,
            "certified": report.certified,
            "norm_condition": report.norm_condition,
            "witness": str(out / "W.json"),
        }))
        return 0
    if args.what == "polarcheck":
        a, b = matio.read_matrix_dir(args.indir, ("A", "B"))
        print(matio.dump_report({"polar_product_residual": polar_product_check(a, b)}))
        return 0
    H1, H2, H3 = matio.read_matrix_dir(args.indir, TRIPLE)
    result = commuting_pair_from_sphere(
        H1, H2, H3, SymmetryClass(args.symclass), seed=args.seed
    )
    out = Path(args.out)
    matio.write_matrix_dir(out, {"U": result.U, "K": result.K})
    print(matio.dump_report(result.residuals))
    return 0


def cmd_wannier(args) -> int:
    if args.what == "spread":
        Xs = matio.read_matrix_dir(args.indir, QUAD)
        roles = matio.available_roles(args.indir)
        if "B" in roles:
            basis, = matio.read_matrix_dir(args.indir, ("B",))
        else:
            basis = eigenbasis_commuting(Xs, tol=1e-8, seed=args.seed)
        report = spread(Xs, basis)
        rows = [("basis_index", "sigma2", "running_total", "running_max")]
        rows += list(report.csv_rows())
        if args.out:
            with _csv_writer(args.out) as out:
                out.writerows(rows)
            print(f"wrote {len(rows) - 1} rows to {args.out}; "
                  f"total={report.total:.6g} max={report.maximum:.6g}")
        else:
            csv.writer(sys.stdout).writerows(rows)
        return 0
    rng = np.random.default_rng(_check_integer(args.seed, "seed"))
    band = _read_band(args.indir)
    Xs = matio.read_matrix_dir(args.indir, QUAD)
    W, compressed, report = compress_positions(band, Xs, rng=rng)
    out = Path(args.out)
    matio.write_matrix_dir(out, {"W": W, **{f"X{i + 1}": X for i, X in enumerate(compressed)}})
    print(matio.dump_report({
        "delta": report.delta,
        "spread_budget": report.budget,
        "compressed_residual": report.residual,
    }))
    return 0


# -- sweep -----------------------------------------------------------------

def _split(text: str) -> list[str]:
    text = text.strip()
    if not text:
        return []
    return [part.strip() for part in text.split(",")]


def _grid_points(cfg: dict) -> tuple[list[dict], list[str]]:
    kind = cfg["kind"]
    if kind == "voiculescu":
        ns = [_check_integer(int(v), "n", least=2) for v in _split(cfg.get("n", "4,8,16,32"))]
        doubled = cfg.get("doubled", "0")
        if doubled not in _BOOLEANS:
            raise ValidationError(f"doubled must be 0/1, false/true or no/yes, got {doubled!r}")
        pts = [{"kind": kind, "n": n, "doubled": _BOOLEANS[doubled]} for n in ns]
        return pts, ["n", "doubled"]
    if kind == "harper":
        Ls = [int(v) for v in _split(cfg.get("L", "12"))]
        fluxes = _split(cfg.get("flux", "1/3"))
        fills = [_check_integer(int(v), "fill", least=1) for v in _split(cfg.get("fill", "1"))]
        orbitals = [int(v) for v in _split(cfg.get("orbitals", "1"))]
        for L, fx, o in product(Ls, fluxes, orbitals):
            LatticeSpec(L=L, flux=parse_flux(fx), orbitals=o)  # the checks each point runs
        comm_tol = check_tolerance(cfg.get("comm_tol", COMMUTATOR_GATE), "comm_tol")
        pts = [{"kind": kind, "L": L, "flux": fx, "fill": f, "orbitals": o, "comm_tol": comm_tol}
               for L in Ls for fx in fluxes for f in fills for o in orbitals]
        return pts, ["L", "flux", "fill", "orbitals"]
    etas = [float(v) for v in _split(cfg.get("eta", "1e-1,1e-2,1e-3"))]
    bad = [eta for eta in etas if not (np.isfinite(eta) and eta >= 0)]
    if bad:  # eta = 0 is the exact triple
        raise ValidationError(f"eta must be finite and >= 0, got {bad[0]!r}")
    size = _check_integer(int(cfg.get("size", "12")), "size", least=1)
    trials = _check_integer(int(cfg.get("trials", "1")), "trials", least=0)
    pts = [{"kind": kind, "eta": eta, "size": size, "trial": t}
           for eta in etas for t in range(trials)]
    return pts, ["eta", "size", "trial"]


def _run_sweep_point(point: dict, seed: int) -> dict:
    t0 = time.perf_counter()
    row = {k: v for k, v in point.items() if k not in ("kind", "comm_tol")}
    row.update({"delta": "", "value": "", "gap": "", "seconds": "", "error": ""})
    try:
        if point["kind"] == "voiculescu":
            index = pf_bott_unitaries if point["doubled"] else bott_index_unitaries
            rep = index(*_voiculescu_pair(point["n"], point["doubled"]))
            row.update(delta=rep.input_residual, value=rep.value, gap=rep.gap)
        elif point["kind"] == "harper":
            W, Xs, _ = _harper(point["L"], point["flux"], f"fill:{point['fill']}",
                               point["orbitals"])
            cls = SymmetryClass.SELF_DUAL if point["orbitals"] == 2 else SymmetryClass.COMPLEX
            rep = compressed_index(W, Xs, cls, comm_tol=point["comm_tol"], seed=seed)
            row.update(delta=rep.details["delta_commutator"], value=rep.value, gap=rep.gap)
        else:
            rng = np.random.default_rng(seed + 7919 * point["trial"])
            n = point["size"]
            pts = rng.standard_normal((3, n))
            pts /= np.linalg.norm(pts, axis=0)
            Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            Hs = [(Q * pts[r]) @ Q.T for r in range(3)]
            eta = point["eta"]
            noisy = []
            for H in Hs:
                G = rng.standard_normal((n, n))
                G = (G + G.T) / 2
                noisy.append(H + eta * G / operator_norm(G))
            res = commuting_pair_from_sphere(*noisy, SymmetryClass.SYMMETRIC, seed=seed).residuals
            row.update(delta=res["input"], value=f"{res['commutator']:.3e}",
                       gap=res["reconstruction"])
    except Exception as exc:  # noqa: BLE001 - partial failures become rows
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["seconds"] = f"{time.perf_counter() - t0:.3f}"
    return row


def cmd_sweep(args) -> int:
    seed = _check_integer(args.seed, "seed")
    workers = _check_integer(args.workers, "workers", least=1)
    cfg = matio.read_config(args.config)
    kind = cfg.get("kind")
    if kind not in _SWEEP_KEYS:
        raise ValidationError(f"sweep config needs kind=voiculescu|harper|noise, got {kind!r}")
    _known_keys(cfg, ("kind", *_SWEEP_KEYS[kind]), args.config)
    try:
        points, param_cols = _grid_points(cfg)
    except ValueError as exc:
        raise ValidationError(f"bad sweep config value: {exc}") from exc
    header = param_cols + ["delta", "value", "gap", "seconds", "error"]
    # the output opens before any point runs, so an unwritable --out costs no work
    with _csv_writer(args.out) as out, ThreadPoolExecutor(workers) as pool:
        rows = pool.map(lambda pt: _run_sweep_point(pt, seed), points)
        out.writerows([header] + [[row.get(col, "") for col in header] for row in rows])
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


# -- selftest ----------------------------------------------------------------

def _newton_polar(X, iterations=60):
    U = np.asarray(X, dtype=complex)
    for _ in range(iterations):
        U = (U + np.linalg.inv(U.conj().T)) / 2
    return U


def cmd_selftest(args) -> int:
    rng = np.random.default_rng(_check_integer(args.seed, "seed"))
    failures = 0

    def check(name, ok, detail=""):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")
        failures += 0 if ok else 1

    worst = 0.0
    for size in (2, 4, 6, 8, 10):
        for _ in range(10):
            M = rng.standard_normal((size, size))
            R = M - M.T
            alg = pfaffian_real_skew(R)
            ref = pfaffian_combinatorial(R).real
            worst = max(worst, abs(alg - ref) / max(1.0, abs(ref)))
    check("pfaffian vs combinatorial oracle", worst <= 1e-10, f"worst rel {worst:.2e}")

    worst_rec = worst_pf = 0.0
    for size in (4, 8, 12, 16):
        for _ in range(5):
            M = rng.standard_normal((size, size))
            R = M - M.T
            U, a = real_skew_canonical(R)
            D = np.zeros((size, size))
            i = np.arange(0, size, 2)
            D[i, i + 1], D[i + 1, i] = a, -a
            worst_rec = max(worst_rec, operator_norm(U @ D @ U.T - R) / max(1.0, operator_norm(R)))
            pf = pfaffian_real_skew(R)
            worst_pf = max(worst_pf, abs(np.prod(a) - pf) / abs(pf))
    check(
        "skew canonical form vs Pfaffian", worst_rec <= 1e-12 and worst_pf <= 1e-10,
        f"worst rel reconstruction {worst_rec:.2e}, Pfaffian {worst_pf:.2e}",
    )

    worst = 0.0
    for _ in range(10):
        n = 8
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X += 3 * np.eye(n)  # keep well conditioned for the Newton oracle
        worst = max(worst, operator_norm(polar(X) - _newton_polar(X)))
    check("polar vs Newton oracle", worst <= 1e-9, f"worst {worst:.2e}")

    worst = 0.0
    for _ in range(10):
        n = 16
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H = (H + H.conj().T) / 2
        dec = herm_eig(H)
        rec = (dec.vectors * dec.eigenvalues) @ dec.vectors.conj().T
        worst = max(worst, operator_norm(rec - H) / max(1.0, operator_norm(H)))
    check("eigendecomposition reconstruction", worst <= 1e-10, f"worst rel {worst:.2e}")

    worst_unit = worst_bound = 0.0
    for n in (4, 16, 64, 256):  # MRRR orthogonality is about 1e-13, not 1e-15
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G = (G - G.conj().T) / 2
        E = expm((G - dual(G)) / 2)  # E^D = E*, so E M E* is anti-self-dual with M
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H += H.conj().T
        H -= dual(H)  # Hermitian noise, anti-self-dual
        mirror = np.repeat([1.0, -1.0], n // 2)
        S = (E * mirror) @ E.conj().T + 1e-2 * H / operator_norm(H)
        rep = k2_quaternion_witness(S)
        W, A = rep.witness, (S + S.conj().T) / 2
        worst_unit = max(worst_unit, operator_norm(W @ W.conj().T - np.eye(n)))
        D = A - (W * mirror) @ W.conj().T
        dense = operator_norm((D + D.conj().T) / 2)
        worst_bound = max(worst_bound, abs(rep.bound - dense) / max(1.0, operator_norm(A)))
    check("quaternion witness unitarity and bound", worst_unit <= 1e-10 and worst_bound <= 1e-10,
          f"worst ||W W* - I|| {worst_unit:.2e}, rel bound {worst_bound:.2e}")

    worst = 0.0
    for N in (1, 2, 4, 8):
        n = 4 * N
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G = (G - G.conj().T) / 2
        E = expm((G - sharp_sharp(G)) / 2)  # E## = E*, so E M E* is anti-fixed by ##
        H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        H += H.conj().T
        H -= sharp_sharp(H)  # Hermitian noise, anti-fixed by ##
        mirror = np.repeat([1.0, -1.0], n // 2)
        S = (E * mirror) @ E.conj().T + 1e-2 * H / operator_norm(H)
        rep = k2_twisted_witness(S)
        A = (S + S.conj().T) / 2
        D = A - (rep.witness * mirror) @ rep.witness.conj().T
        dense = operator_norm((D + D.conj().T) / 2)  # the complex picture
        worst = max(worst, abs(rep.bound - dense) / max(1.0, operator_norm(A)))
    check("twisted witness bound, real vs complex picture", worst <= 1e-12,
          f"worst rel {worst:.2e}")

    A, B = _voiculescu_pair(16, False)
    law = abs(operator_norm(A @ B - B @ A) - abs(np.exp(2j * np.pi / 16) - 1))
    check("shift/clock commutator law", law <= 1e-12, f"residual {law:.2e}")

    rep = bott_index_unitaries(A, B)
    check("shift/clock Bott index", rep.value == 1, f"value {rep.value}")
    rep = pf_bott_unitaries(*_voiculescu_pair(16, True))
    check("doubled pair Pfaffian-Bott", rep.value == -1, f"value {rep.value}")

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "residual": cmd_residual,
        "index": cmd_index,
        "canonical": cmd_canonical,
        "wannier": cmd_wannier,
        "sweep": cmd_sweep,
        "selftest": cmd_selftest,
    }
    try:
        code = handlers[args.verb](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early: stdout goes to devnull, so the
        # flush at exit cannot raise again, and the run ends without a
        # traceback (the recipe of the Python docs on SIGPIPE)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ObstructionError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
