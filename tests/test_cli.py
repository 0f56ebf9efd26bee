import csv
import json
import shutil

import numpy as np
import pytest

from acbott import matio
from acbott.cli import main
from acbott.errors import ValidationError
from acbott.invariants import bott_index_unitaries
from acbott.matkernel import operator_norm
from acbott.models import LatticeSpec, gap_levels, harper_projection, voiculescu
from conftest import random_complex, random_unitary


class TestMatrixFormat:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        M = random_complex(rng, 5)
        M[0, 0] = complex(1 / 3, -2 / 7)  # non-representable decimals
        path = tmp_path / "M.json"
        matio.write_matrix(path, M)
        back = matio.read_matrix(path)
        assert back.shape == M.shape
        assert np.all(back == M)  # exact, not approx

    def test_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 3}))
        with pytest.raises(ValidationError):
            matio.read_matrix(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "data": []}))
        with pytest.raises(ValidationError):
            matio.read_matrix(path)

    def test_rejects_bad_pair(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[1.0]]}))
        with pytest.raises(ValidationError):
            matio.read_matrix(path)

    @pytest.mark.parametrize("entry", [[None, 0], ["x", 0]])
    def test_rejects_non_numeric_entry(self, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 1, "cols": 2, "data": [[1.0, 0.0], entry]}))
        with pytest.raises(ValidationError):
            matio.read_matrix(path)

    def test_rejects_non_object_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("5")
        with pytest.raises(ValidationError):
            matio.read_matrix(path)

    def test_written_bytes_match_per_entry_encoding(self, rng, tmp_path):
        M = random_complex(rng, 4)[:, :3].T  # non-contiguous input
        M[0, 0] = complex(-0.0, 1 / 3)
        path = tmp_path / "M.json"
        matio.write_matrix(path, M)
        reference = json.dumps({
            "rows": 3,
            "cols": 4,
            "data": [[float(z.real), float(z.imag)] for z in M.reshape(-1)],
        })
        assert path.read_text() == reference

    def test_malformed_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for role in ("U1", "U2"):
            (bad / f"{role}.json").write_text(
                json.dumps({"rows": 1, "cols": 1, "data": [["x", 0]]})
            )
        assert main(["index", "bott", "--in", str(bad)]) == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["directory", "not_utf8"])
    def test_unreadable_matrix_file_exits_2(self, tmp_path, capsys, case):
        model = tmp_path / "m"
        assert main(["gen", "harper", "--L", "6", "--flux", "1/3", "--fermi", "fill:1",
                     "--out", str(model)]) == 0
        (model / "X1.json").unlink()
        if case == "directory":
            (model / "X1.json").mkdir()
        else:
            (model / "X1.json").write_bytes(b"\xff\xfe\x00")
        capsys.readouterr()
        assert main(["index", "compressed", "--in", str(model), "--comm-tol", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "X1.json" in err

    @pytest.mark.parametrize("argv", [
        ["index", "bott"], ["index", "compressed"], ["residual", "torus4"], ["wannier", "spread"],
    ])
    def test_missing_input_directory_exits_2(self, tmp_path, capsys, argv):
        assert main([*argv, "--in", str(tmp_path / "absent")]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "absent" in err

    def test_output_path_that_is_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep")
        assert main(["gen", "torus", "--L", "3", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "taken" in err
        assert target.read_text() == "keep"


class TestGenAndIndex:
    def test_voiculescu_bott_round_trip(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert main(["gen", "voiculescu", "--n", "16", "--out", str(pair)]) == 0
        capsys.readouterr()
        assert main(["index", "bott", "--in", str(pair)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 1
        assert out["gap"] > 0

    def test_doubled_pfbott(self, tmp_path, capsys):
        pair = tmp_path / "doubled"
        assert main(["gen", "voiculescu", "--n", "8", "--doubled", "--out", str(pair)]) == 0
        capsys.readouterr()
        assert main(["index", "pfbott", "--in", str(pair)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == -1

    def test_gap_obstruction_exit_code(self, tmp_path, capsys):
        # random unitary garbage has some finite lift gap; demanding a
        # certificate above it must exit 3 with the obstruction named
        rng = np.random.default_rng(5)
        U1, U2 = random_unitary(rng, 10), random_unitary(rng, 10)
        gap = bott_index_unitaries(U1, U2).gap
        garbage = tmp_path / "garbage"
        matio.write_matrix_dir(garbage, {"U1": U1, "U2": U2})
        code = main([
            "index", "bott", "--in", str(garbage),
            "--gap-tol", str(2 * gap),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "GapTooSmall" in err

    @pytest.mark.parametrize("flag", [
        ("bott", "--gap-tol", "nan"),
        ("bott", "--gap-tol", "-1e-6"),
        ("compressed", "--comm-tol", "nan"),
        ("compressed", "--comm-tol", "-0.5"),
    ])
    def test_tolerance_flag_must_be_finite_and_positive(self, tmp_path, capsys, flag):
        from acbott.models import LatticeSpec, torus_positions

        kind, name, value = flag
        indir = tmp_path / "in"
        if kind == "compressed":
            Xs = torus_positions(LatticeSpec(L=4))
            matio.write_matrix_dir(indir, {"P": np.eye(16), **dict(zip(("X1", "X2", "X3", "X4"), Xs))})
        else:
            matio.write_matrix_dir(indir, dict(zip(("U1", "U2"), voiculescu(8))))
        code = main(["index", kind, "--in", str(indir), f"{name}={value}"])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["index", "bott", "--in", str(empty)]) == 2

    def test_triple_directory_dispatch(self, tmp_path, capsys):
        from conftest import commuting_sphere_triple

        rng = np.random.default_rng(9)
        H1, H2, H3 = commuting_sphere_triple(rng, 6)
        triple = tmp_path / "triple"
        matio.write_matrix_dir(triple, {"H1": H1, "H2": H2, "H3": H3})
        assert main(["index", "bott", "--in", str(triple)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == 0

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["index", "bott", "--in", "x", "--definitely-not-a-flag"])
        assert exc.value.code == 2

    def test_harper_from_config_file(self, tmp_path, capsys):
        from acbott.models import gap_levels

        fermi = gap_levels(6, 1 / 3, [1 / 3])[0]
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text(f"L=6\nflux=1/3\nfermi_level={fermi}\norbitals=1\n")
        model = tmp_path / "model"
        assert main(["gen", "harper", "--config", str(cfg), "--out", str(model)]) == 0
        assert not (model / "P.json").exists()
        W = matio.read_matrix(model / "W.json")
        assert W.shape == (36, 12)
        assert operator_norm(W.conj().T @ W - np.eye(12)) <= 1e-12
        P, _ = harper_projection(LatticeSpec.from_file(cfg))
        assert operator_norm(W @ W.conj().T - P) <= 1e-12

    @pytest.mark.parametrize("text", ["L = abc\nflux = 1/3\n", None, b"\xff\xfeL = 3\n"])
    def test_harper_bad_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "lattice.cfg"
        if isinstance(text, bytes):
            cfg.write_bytes(text)
        elif text is not None:
            cfg.write_text(text)
        code = main(["gen", "harper", "--config", str(cfg), "--out", str(tmp_path / "m")])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err

    @pytest.mark.parametrize("fermi", ["fill:x", "fill:", "abc"])
    def test_harper_bad_fermi_exits_2(self, tmp_path, capsys, fermi):
        code = main([
            "gen", "harper", "--L", "4", "--flux", "1/4",
            "--fermi", fermi, "--out", str(tmp_path / "q"),
        ])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_pairing_failure_exits_2(self, tmp_path, capsys):
        # one orbital on a 3x3 lattice: odd dimension, no Kramers pairing
        model = tmp_path / "harper"
        assert main([
            "gen", "harper", "--L", "3", "--flux", "1/3",
            "--fermi", "fill:1", "--out", str(model),
        ]) == 0
        capsys.readouterr()
        code = main([
            "index", "compressed", "--in", str(model),
            "--class", "selfdual", "--comm-tol", "0.9",
        ])
        assert code == 2
        assert "PairingFailure" in capsys.readouterr().err

    def test_harper_compressed(self, tmp_path, capsys):
        model = tmp_path / "harper"
        assert main([
            "gen", "harper", "--L", "9", "--flux", "1/3",
            "--fermi", "fill:1", "--out", str(model),
        ]) == 0
        capsys.readouterr()
        code = main([
            "index", "compressed", "--in", str(model),
            "--comm-tol", "0.5", "--seed", "1",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["value"] != 0


class TestResidualAndCanonical:
    def test_residual_report(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        main(["gen", "voiculescu", "--n", "8", "--out", str(pair)])
        capsys.readouterr()
        assert main(["residual", "torus2", "--in", str(pair)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["relation"] == "Torus2"
        assert out["worst_term"] == "comm_12"
        assert out["delta"] == pytest.approx(abs(np.exp(2j * np.pi / 8) - 1), abs=1e-12)

    def test_residual_csv_format(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        main(["gen", "voiculescu", "--n", "8", "--out", str(pair)])
        capsys.readouterr()
        assert main(["residual", "torus2", "--in", str(pair), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("relation,delta,worst_term")
        assert lines[1].startswith("Torus2,")

    def test_extract_obstructed_exits_3(self, tmp_path, capsys):
        from acbott.invariants import torus_to_sphere
        from acbott.models import selfdual_double

        V1, V2 = selfdual_double(*voiculescu(16))
        H1, H2, H3 = torus_to_sphere(V1, V2)
        triple = tmp_path / "triple"
        matio.write_matrix_dir(triple, {"H1": H1, "H2": H2, "H3": H3})
        code = main([
            "canonical", "extract", "--in", str(triple),
            "--class", "selfdual", "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert "NontrivialClass" in err

    def test_extract_no_convergence_exits_2(self, tmp_path, capsys, monkeypatch):
        from acbott import canonical
        from conftest import commuting_symmetric_triple

        monkeypatch.setattr(canonical, "MAX_RETRIES", 0)
        monkeypatch.setattr(canonical, "BLOCK_SIGMA_MIN_TOL", 10.0)
        Hs = commuting_symmetric_triple(np.random.default_rng(4), 6)
        triple = tmp_path / "triple"
        matio.write_matrix_dir(triple, dict(zip(("H1", "H2", "H3"), Hs)))
        code = main([
            "canonical", "extract", "--in", str(triple),
            "--class", "symmetric", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "NoConvergence" in capsys.readouterr().err

    def test_polarcheck(self, tmp_path, capsys):
        from conftest import random_symplectic_unitary

        rng = np.random.default_rng(2)
        W = random_symplectic_unitary(rng, 4)
        pdir = tmp_path / "blocks"
        matio.write_matrix_dir(pdir, {"A": W[:4, :4], "B": W[:4, 4:]})
        assert main(["canonical", "polarcheck", "--in", str(pdir)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["polar_product_residual"] <= 1e-9

    def test_witness_writes_matrix(self, tmp_path, capsys):
        from acbott.canonical import skew_representative

        sdir = tmp_path / "s"
        matio.write_matrix_dir(sdir, {"S": skew_representative(8)})
        out = tmp_path / "w"
        assert main([
            "canonical", "witness", "--kind", "real",
            "--in", str(sdir), "--out", str(out),
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["certified"] is True
        W = matio.read_matrix(out / "W.json")
        assert W.shape == (8, 8)


class TestWannierVerb:
    def test_spread_csv(self, tmp_path, capsys):
        tdir = tmp_path / "torus"
        main(["gen", "torus", "--L", "3", "--out", str(tdir)])
        capsys.readouterr()
        out = tmp_path / "spread.csv"
        assert main(["wannier", "spread", "--in", str(tdir), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["basis_index", "sigma2", "running_total", "running_max"]
        assert len(rows) == 1 + 9
        assert all(abs(float(r[1])) <= 1e-10 for r in rows[1:])


    def test_spread_two_orbital_torus(self, tmp_path, capsys):
        tdir = tmp_path / "torus"
        assert main(["gen", "torus", "--L", "4", "--orbitals", "2", "--out", str(tdir)]) == 0
        capsys.readouterr()
        out = tmp_path / "spread.csv"
        assert main(["wannier", "spread", "--in", str(tdir), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 32
        assert all(abs(float(r[1])) <= 1e-10 for r in rows[1:])

    def test_spread_mismatched_sizes_exits_2(self, tmp_path, capsys):
        matio.write_matrix_dir(tmp_path / "d", {
            f"X{r + 1}": np.eye(n) for r, n in enumerate((3, 3, 4, 4))
        })
        assert main(["wannier", "spread", "--in", str(tmp_path / "d")]) == 2
        assert "ShapeMismatch" in capsys.readouterr().err


QUAD = ("X1", "X2", "X3", "X4")


class TestDiagonalPositionFiles:
    @pytest.fixture
    def dirs(self, tmp_path, capsys):
        """A `gen harper` directory, and its copy with X1..X4 rewritten as the
        dense n x n files that older versions wrote."""
        new, old = tmp_path / "new", tmp_path / "old"
        assert main([
            "gen", "harper", "--L", "9", "--flux", "1/3", "--fermi", "fill:1", "--out", str(new),
        ]) == 0
        shutil.copytree(new, old)
        for role in QUAD:
            matio.write_matrix(old / f"{role}.json", np.diag(matio.read_matrix(new / f"{role}.json")))
        capsys.readouterr()
        return new, old

    def test_gen_writes_positions_as_diagonals(self, dirs):
        new, old = dirs
        for role in QUAD:
            assert '"diagonal": [[' in (new / f"{role}.json").read_text()
            assert '"data": [[' in (old / f"{role}.json").read_text()
            assert matio.read_matrix(new / f"{role}.json").shape == (81,)
        assert sorted(f.name for f in new.iterdir()) == ["W.json", *(f"{r}.json" for r in QUAD)]
        W = matio.read_matrix(new / "W.json")
        assert W.shape == (81, 27)
        assert operator_norm(W.conj().T @ W - np.eye(27)) <= 1e-12
        spec = LatticeSpec(L=9, flux=1 / 3, fermi_level=gap_levels(9, 1 / 3, [1 / 3])[0])
        assert operator_norm(W @ W.conj().T - harper_projection(spec)[0]) <= 1e-12

    @pytest.mark.parametrize("argv", [
        ["index", "compressed", "--comm-tol", "0.5", "--seed", "3"],
        ["residual", "torus4"],
        ["residual", "disk"],
        ["wannier", "spread"],
        ["wannier", "compress"],
    ])
    def test_both_layouts_give_the_same_output(self, dirs, capsys, tmp_path, argv):
        outputs = []
        for indir in dirs:
            out = tmp_path / f"out-{indir.name}"
            extra = ["--out", str(out)] if argv[1] == "compress" else []
            assert main([*argv, "--in", str(indir), *extra]) == 0
            text = capsys.readouterr().out
            if argv[0] == "index":
                report = json.loads(text)
                report.pop("seconds")
                text = report
            files = {f.name: f.read_bytes() for f in out.glob("*.json")} if extra else {}
            outputs.append((text, files))
        assert outputs[0] == outputs[1]

    def test_antidual_writes_half_spectrum_as_diagonal(self, tmp_path, capsys):
        xdir, out = tmp_path / "x", tmp_path / "out"
        matio.write_matrix_dir(xdir, {"X": np.diag([0.5, 2.0, -0.5, -2.0])})
        assert main(["canonical", "antidual", "--in", str(xdir), "--out", str(out)]) == 0
        half = json.loads(capsys.readouterr().out)["half_spectrum"]
        assert '"diagonal": [[' in (out / "D.json").read_text()
        assert np.array_equal(matio.read_matrix(out / "D.json"), half)


class TestSweep:
    def test_empty_grid(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=voiculescu\nn=\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1  # header only

    def test_voiculescu_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=voiculescu\nn=4,8,16\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["4", "8", "16"]
        assert all(r["value"] == "1" for r in rows)
        deltas = [float(r["delta"]) for r in rows]
        assert deltas[0] > deltas[1] > deltas[2]
        assert all(r["error"] == "" for r in rows)

    def test_noise_sweep_monotone(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=noise\neta=1e-1,1e-2\nsize=10\ntrials=1\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        comms = [float(r["value"]) for r in rows]  # commutator residuals
        assert comms[1] <= comms[0] + 1e-9

    def test_non_numeric_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=harper\nL=x\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_bad_kind_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=nonsense\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2


class TestBandFiles:
    """`gen harper` writes the model's isometry W; `index compressed` and
    `wannier compress` read W when present and P otherwise."""

    @pytest.mark.parametrize("fermi", ["fill:1", "level"])
    def test_gen_harper_solves_h_once(self, tmp_path, capsys, monkeypatch, fermi):
        if fermi == "level":
            fermi = str(gap_levels(6, 1 / 3, [1 / 3])[0])
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert main([
            "gen", "harper", "--L", "6", "--flux", "1/3", "--fermi", fermi,
            "--orbitals", "2", "--out", str(tmp_path / "m"),
        ]) == 0
        assert calls == ["eigh"]

    @pytest.fixture
    def layouts(self, tmp_path, capsys):
        """A `gen harper` directory (W) and its old-layout copy (P only)."""
        new, old = tmp_path / "new", tmp_path / "old"
        assert main([
            "gen", "harper", "--L", "9", "--flux", "1/3", "--fermi", "fill:1",
            "--orbitals", "2", "--out", str(new),
        ]) == 0
        shutil.copytree(new, old)
        (old / "W.json").unlink()
        spec = LatticeSpec(L=9, flux=1 / 3, fermi_level=gap_levels(9, 1 / 3, [1 / 3])[0],
                           orbitals=2)
        matio.write_matrix(old / "P.json", harper_projection(spec)[0])
        capsys.readouterr()
        return new, old

    # the doubled model's two Chern numbers cancel in the Bott index
    @pytest.mark.parametrize("symclass, value", [("complex", 0), ("selfdual", -1)])
    def test_index_same_on_both_layouts(self, layouts, capsys, symclass, value):
        reports = []
        for indir in layouts:
            assert main(["index", "compressed", "--in", str(indir), "--class", symclass,
                         "--comm-tol", "0.5", "--seed", "4"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        new, old = reports
        assert new["value"] == old["value"] == value
        for key in ("gap", "input_residual", "delta_commutator"):
            assert new[key] == pytest.approx(old[key], rel=1e-12)

    def test_wannier_compress_same_on_both_layouts(self, layouts, capsys, tmp_path):
        runs = []
        for indir in layouts:
            out = tmp_path / f"out-{indir.name}"
            assert main(["wannier", "compress", "--in", str(indir), "--out", str(out)]) == 0
            report = json.loads(capsys.readouterr().out)
            runs.append((report, matio.read_matrix_dir(out, ("W", *QUAD))))
        (new, (W_new, *C_new)), (old, (W_old, *C_old)) = runs
        for key in ("delta", "spread_budget", "compressed_residual"):
            assert new[key] == pytest.approx(old[key], rel=1e-12)
        # the same range in another basis: equal projections, and compressed
        # positions with equal spectra
        assert operator_norm(W_new @ W_new.conj().T - W_old @ W_old.conj().T) <= 1e-12
        for a, b in zip(C_new, C_old):
            assert np.allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-12)

    @pytest.mark.parametrize("case, symclass, error", [
        ("not_isometry", "complex", "NotProjection"),
        ("off_layout", "selfdual", "PairingFailure"),
        ("odd_k", "selfdual", "PairingFailure"),
        ("complex", "symmetric", "PairingFailure"),
        ("rows_differ", "complex", "ShapeMismatch"),
    ])
    def test_bad_isometry_exits_2(self, layouts, capsys, case, symclass, error):
        new, _ = layouts
        W = matio.read_matrix(new / "W.json")
        matio.write_matrix(new / "W.json", {
            "not_isometry": 1.01 * W,
            "off_layout": W[:, ::-1],
            "odd_k": W[:, 1:],
            "complex": W,
            "rows_differ": W[:-2],
        }[case])
        code = main(["index", "compressed", "--in", str(new), "--class", symclass,
                     "--comm-tol", "0.5"])
        assert code == 2
        assert error in capsys.readouterr().err

    def test_every_reading_verb_takes_a_fresh_directory(self, layouts, capsys, tmp_path):
        new, _ = layouts
        for argv in (
            ["index", "compressed", "--class", "complex", "--comm-tol", "0.5"],
            ["index", "compressed", "--class", "selfdual", "--comm-tol", "0.5"],
            ["residual", "torus4"],
            ["residual", "disk"],
            ["wannier", "spread"],
            ["wannier", "compress", "--out", str(tmp_path / "compressed")],
        ):
            assert main([*argv, "--in", str(new)]) == 0, argv
        capsys.readouterr()

    @pytest.mark.parametrize("verb", ["index", "wannier"])
    def test_missing_band_names_both_files(self, tmp_path, capsys, verb):
        torus = tmp_path / "torus"
        assert main(["gen", "torus", "--L", "3", "--out", str(torus)]) == 0
        capsys.readouterr()
        argv = {
            "index": ["index", "compressed", "--comm-tol", "0.5"],
            "wannier": ["wannier", "compress", "--out", str(tmp_path / "out")],
        }[verb]
        assert main([*argv, "--in", str(torus)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "W.json" in err and "P.json" in err

    def test_harper_sweep_uses_the_model_isometry(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=harper\nL=9\nflux=1/3\nfill=1\norbitals=1,2\ncomm_tol=0.5\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["orbitals"], r["value"], r["error"]) for r in rows] == [
            ("1", "-1", ""), ("2", "-1", ""),
        ]


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 6
