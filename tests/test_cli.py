import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from acbott import cli, matio
from acbott.cli import EXIT_BROKEN_PIPE, _fill_fraction, main
from acbott.errors import ValidationError
from acbott.invariants import bott_index_unitaries
from acbott.matkernel import operator_norm
from acbott.models import (
    LatticeSpec,
    gap_levels,
    harper_isometry,
    harper_projection,
    torus_positions,
    voiculescu,
)
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

    @pytest.mark.parametrize("kind", ["bott", "pfbott"])
    @pytest.mark.parametrize("flag", [["--class", "selfdual"], ["--seed", "3"],
                                      ["--comm-tol", "0.1"]])
    def test_bott_kinds_reject_compressed_flags(self, capsys, kind, flag):
        # the kind picks the algebra of a triple or pair; no flag is accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main(["index", kind, "--in", "x", *flag])
        assert exc.value.code == 2

    def test_compressed_takes_class_seed_and_comm_tol(self):
        args = cli.build_parser().parse_args([
            "index", "compressed", "--in", "x", "--class", "selfdual", "--seed", "3",
            "--comm-tol", "0.1",
        ])
        assert (args.kind, args.symclass, args.seed, args.comm_tol) == (
            "compressed", "selfdual", 3, 0.1)

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
        P, _ = harper_projection(LatticeSpec(L=6, flux=1 / 3, fermi_level=fermi))
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

    @pytest.mark.parametrize("argv", [
        ["--flux", "1/4", "--fermi", "0"],
        ["--L", "4", "--flux", "1/4"],
    ], ids=["no_L", "no_fermi"])
    def test_harper_required_flag_missing_exits_2(self, tmp_path, capsys, argv):
        code = main(["gen", "harper", *argv, "--out", str(tmp_path / "q")])
        assert code == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_harper_fill_counts_bands_of_the_written_denominator(self, tmp_path, capsys):
        # K bands of L*L/q states: 400/97 rounds to 4 columns; reading q from
        # the float flux within 1/64 would give 58 and 7 columns
        model = tmp_path / "m"
        assert main([
            "gen", "harper", "--L", "20", "--flux", "5/97", "--fermi", "fill:1",
            "--out", str(model),
        ]) == 0
        assert matio.read_matrix(model / "W.json").shape == (400, 4)

    def test_fill_fraction(self):
        for K in (1, 2, 3):
            assert _fill_fraction("1/3", K) == K / 3
            assert _fill_fraction("2/5", K) == K / 5
            assert _fill_fraction("0.2", K) == K / 5  # decimal: q within 1/64
            assert _fill_fraction("0", K) == K / 2
        assert _fill_fraction("5/97", 1) == 1 / 97

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


class TestLatticeConfig:
    """`gen harper --config` reads the keys L, flux, fermi_level and orbitals
    and builds the model as the flags do; anything else is bad input."""

    def gen(self, tmp_path, text):
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text(text)
        return main(["gen", "harper", "--config", str(cfg), "--out", str(tmp_path / "model")])

    def test_config_file_round_trip(self, tmp_path, capsys):
        text = "# comment\nL = 12\nflux = 1/3\nfermi_level = -1.5\norbitals = 2\n"
        assert self.gen(tmp_path, text) == 0
        assert "fermi=-1.5" in capsys.readouterr().out
        spec = LatticeSpec(L=12, flux=1 / 3, fermi_level=-1.5, orbitals=2)
        model = tmp_path / "model"
        assert np.array_equal(matio.read_matrix(model / "W.json"), harper_isometry(spec)[0])
        for X, ref in zip(matio.read_matrix_dir(model, cli.QUAD), torus_positions(spec)):
            assert np.array_equal(X, ref)

    def test_config_missing_key(self, tmp_path, capsys):
        assert self.gen(tmp_path, "flux = 0.25\n") == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "'L'" in err

    def test_config_non_numeric_value(self, tmp_path, capsys):
        assert self.gen(tmp_path, "L = abc\nflux = 1/3\n") == 2
        assert "ValidationError" in capsys.readouterr().err

    def test_fermi_level_takes_fill(self, tmp_path, capsys):
        assert self.gen(tmp_path, "L = 6\nflux = 1/3\nfermi_level = fill:1\n") == 0
        flags = tmp_path / "flags"
        assert main(["gen", "harper", "--L", "6", "--flux", "1/3", "--fermi", "fill:1",
                     "--out", str(flags)]) == 0
        for role in ("W", *cli.QUAD):
            name = f"{role}.json"
            assert (tmp_path / "model" / name).read_bytes() == (flags / name).read_bytes()

    @pytest.mark.parametrize("flag", [["--L", "6"], ["--flux", "1/4"], ["--fermi", "fill:2"],
                                      ["--orbitals", "2"]])
    def test_model_flag_with_config_exits_2_before_writing(self, tmp_path, capsys, flag):
        cfg = tmp_path / "lattice.cfg"
        cfg.write_text("L = 6\nflux = 1/3\nfermi_level = fill:1\n")
        model = tmp_path / "model"
        assert main(["gen", "harper", "--config", str(cfg), *flag, "--out", str(model)]) == 2
        assert capsys.readouterr().err.startswith("ValidationError: --config excludes --L, ")
        assert not model.exists()

    @pytest.mark.parametrize("key", ["fermi", "l", "orbital"])
    def test_unknown_key_exits_2_before_writing(self, tmp_path, capsys, key):
        assert self.gen(tmp_path, f"L = 6\nflux = 1/3\n{key} = fill:1\n") == 2
        err = capsys.readouterr().err
        assert f"ValidationError: {tmp_path / 'lattice.cfg'}: unknown key {key} " in err
        assert "L, flux, fermi_level, orbitals" in err
        assert not (tmp_path / "model").exists()


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

    def test_extract_writes_pair(self, tmp_path, capsys):
        from conftest import commuting_symmetric_triple

        Hs = commuting_symmetric_triple(np.random.default_rng(4), 6)
        triple = tmp_path / "triple"
        matio.write_matrix_dir(triple, dict(zip(("H1", "H2", "H3"), Hs)))
        out = tmp_path / "out"
        assert main([
            "canonical", "extract", "--in", str(triple),
            "--class", "symmetric", "--out", str(out),
        ]) == 0
        residuals = json.loads(capsys.readouterr().out)
        assert residuals["commutator"] <= 1e-9 and residuals["reconstruction"] <= 1e-9
        U, K = matio.read_matrix_dir(out, ("U", "K"))
        assert operator_norm(U.conj().T @ U - np.eye(6)) <= 1e-12
        assert np.array_equal(K, Hs[2])

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


    def test_spread_of_a_given_basis(self, tmp_path, capsys):
        # the first three sites of the 3 x 3 torus as the basis columns B
        tdir = tmp_path / "torus"
        main(["gen", "torus", "--L", "3", "--out", str(tdir)])
        capsys.readouterr()
        matio.write_matrix_dir(tdir, {"B": np.eye(9)[:, :3]})
        assert main(["wannier", "spread", "--in", str(tdir)]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        assert all(abs(float(r[1])) <= 1e-12 for r in rows[1:])

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

    def test_spread_out_directory_exits_2(self, tmp_path, capsys):
        tdir = tmp_path / "torus"
        main(["gen", "torus", "--L", "3", "--out", str(tdir)])
        capsys.readouterr()
        code = main(["wannier", "spread", "--in", str(tdir), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and str(tmp_path) in err

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
    def test_one_worker_by_default(self):
        # more worker threads than cores oversubscribe a threaded BLAS
        args = cli.build_parser().parse_args(["sweep", "--config", "c", "--out", "o"])
        assert args.workers == 1

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

    def test_doubled_voiculescu_sweep(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=voiculescu\nn=4,8\ndoubled=1\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["n"], r["doubled"], r["value"], r["error"]) for r in rows] == [
            ("4", "True", "-1", ""), ("8", "True", "-1", ""),
        ]

    def test_failing_point_becomes_an_error_row(self, tmp_path):
        # a commutator gate no compression meets fails the one point, not the sweep
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=harper\nL=6\nflux=1/3\ncomm_tol=1e-9\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["error"].startswith("CommutatorTooLarge")
        assert rows[0]["value"] == ""

    def test_config_without_kind_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n=4\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        assert "ValidationError" in capsys.readouterr().err

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

    def test_out_directory_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=voiculescu\nn=4\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and str(tmp_path) in err

    def test_out_directory_runs_no_point(self, tmp_path, capsys, monkeypatch):
        from acbott import cli

        calls = []
        monkeypatch.setattr(cli, "_run_sweep_point", lambda point, seed: calls.append(point))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=voiculescu\nn=4,8\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert calls == []

    def test_bad_kind_rejected(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("kind=nonsense\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("kind=harper\nL=6\nfills=2\n", "unknown key fills (accepted: kind, L, flux, fill, "
                                           "orbitals, comm_tol)"),
        ("kind=voiculescu\nn=4\nL=6\n", "unknown key L (accepted: kind, n, doubled)"),
        ("kind=noise\nsize=4\ncomm_tol=0.5\nseed=2\n",
         "unknown key comm_tol, seed (accepted: kind, eta, size, trials)"),
        ("kind=voiculescu\nn=4\ndoubled=flase\n", "doubled must be 0/1, false/true or no/yes"),
        ("kind=voiculescu\nn=4\ndoubled=True\n", "doubled must be 0/1, false/true or no/yes"),
        ("kind=harper\nL=6\ncomm_tol=0\n", "comm_tol must be finite and positive"),
        ("kind=harper\nL=6\ncomm_tol=nan\n", "comm_tol must be finite and positive"),
        ("kind=harper\nL=6\ncomm_tol=abc\n", "comm_tol must be finite and positive"),
        ("kind=noise\nsize=4\ntrials=-2\n", "trials must be an integer >= 0"),
        ("kind=noise\nsize=0\n", "size must be an integer >= 1"),
        ("kind=noise\nsize=2.5\n", "bad sweep config value"),
        ("kind=harper\nL=6\nflux=abc\n", "bad flux 'abc'"),
        ("kind=harper\nL=6\nflux=1\n", "flux must lie in [0, 1), got 1.0"),
        ("kind=harper\nL=1,6\n", "L must be an integer >= 2, got 1"),
        ("kind=harper\nL=6\norbitals=3\n", "orbitals must be 1 or 2, got 3"),
        ("kind=harper\nL=6\nfill=0\n", "fill must be an integer >= 1, got 0"),
        ("kind=voiculescu\nn=1,0\n", "n must be an integer >= 2, got 1"),
        ("kind=noise\nsize=4\neta=nan\n", "eta must be finite and >= 0, got nan"),
        ("kind=noise\nsize=4\neta=1e-2,-1e-3\n", "eta must be finite and >= 0, got -0.001"),
    ])
    def test_bad_config_runs_no_point(self, tmp_path, capsys, monkeypatch, text, message):
        # keys and the values every point shares are read before the output opens
        calls = []
        monkeypatch.setattr(cli, "_run_sweep_point", lambda point, seed: calls.append(point))
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "x.csv"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ValidationError: ") and message in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("text, doubled", [
        ("0", "False"), ("false", "False"), ("no", "False"),
        ("1", "True"), ("true", "True"), ("yes", "True"),
    ])
    def test_doubled_booleans(self, tmp_path, text, doubled):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "out.csv"
        cfg.write_text(f"kind=voiculescu\nn=4\ndoubled={text}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        value = "-1" if doubled == "True" else "1"
        assert [(r["doubled"], r["value"], r["error"]) for r in rows] == [(doubled, value, "")]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "out.csv"
        cfg.write_text("kind=voiculescu\nn=4\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == 2
        assert f"workers must be an integer >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_eta_is_the_exact_triple(self, tmp_path):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "out.csv"
        cfg.write_text("kind=noise\neta=0\nsize=4\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["eta"], r["error"]) for r in rows] == [("0.0", "")]

    def test_zero_trials_is_an_empty_grid(self, tmp_path):
        cfg, out = tmp_path / "sweep.cfg", tmp_path / "out.csv"
        cfg.write_text("kind=noise\nsize=4\ntrials=0\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["eta,size,trial,delta,value,gap,seconds,error"]


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


class TestSeeds:
    """A seed that is not an integer >= 0 is bad input: exit 2 with the
    error on one stderr line, before a generator is made."""

    @pytest.mark.parametrize("argv", [
        ["index", "compressed", "--in", "{model}"],
        ["canonical", "extract", "--in", "{triple}", "--out", "{out}"],
        ["wannier", "spread", "--in", "{model}"],
        ["wannier", "compress", "--in", "{model}", "--out", "{out}"],
        ["sweep", "--config", "{cfg}", "--out", "{out}"],
        ["selftest"],
    ], ids=lambda argv: "-".join(argv[:2]))
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv):
        model, triple, cfg = tmp_path / "model", tmp_path / "triple", tmp_path / "sweep.cfg"
        assert main(["gen", "harper", "--L", "6", "--flux", "1/3", "--fermi", "fill:1",
                     "--out", str(model)]) == 0
        matio.write_matrix_dir(triple, {"H1": np.eye(4), "H2": np.zeros((4, 4)),
                                        "H3": np.zeros((4, 4))})
        cfg.write_text("kind=noise\neta=1e-2\nsize=4\n")
        capsys.readouterr()
        paths = {"model": model, "triple": triple, "cfg": cfg, "out": tmp_path / "out"}
        argv = [arg.format(**paths) for arg in argv] + ["--seed", "-1"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "ValidationError: seed must be an integer >= 0, got -1\n"
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 9
        assert "PASS skew canonical form vs Pfaffian" in out
        assert "PASS quaternion witness unitarity and bound" in out


class TestBrokenPipe:
    """A reader that closes stdout early ends the run quietly: exit
    EXIT_BROKEN_PIPE and no traceback on stderr."""

    SELFTEST = [sys.executable, "-m", "acbott.cli", "selftest", "--seed", "5"]

    @staticmethod
    def _env():
        src = str(Path(cli.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONUNBUFFERED": "1", "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def test_reader_closes_after_one_line(self):
        proc = subprocess.Popen(self.SELFTEST, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self._env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        proc.wait(timeout=120)
        assert first.startswith(b"PASS ")
        assert err == b""
        # 0 only when every line was written before the reader closed
        assert proc.returncode in (EXIT_BROKEN_PIPE, 0)

    def test_stdout_closed_before_any_output(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(self.SELFTEST, stdout=write_end, stderr=subprocess.PIPE,
                                  env=self._env(), timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_BROKEN_PIPE
        assert done.stderr == b""
