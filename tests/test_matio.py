"""The matrix-file codecs.  JSON: written bytes equal ``json.dumps`` of the
payload, read-back is bit-identical, and a table pins what every malformed
or unusual text reads as, a value or a ValidationError (an entry that is
not a JSON number, or dimensions that are not JSON integers, are never
coerced).  ``.npy``: read-back is bit-identical, any float layout is
accepted, and everything else is rejected without loading or unpickling."""

import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.lib import format as npformat

from acbott import matio
from acbott.cli import main
from acbott.errors import ValidationError
from acbott.models import voiculescu
from conftest import random_complex

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e16, 1 / 3, 2.5, -7.0]


def reference_text(M) -> str:
    """The text ``json.dumps`` gives for a matrix, one Python pair per entry."""
    A = np.asarray(M, dtype=complex)
    return json.dumps({
        "rows": A.shape[0],
        "cols": A.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in A.reshape(-1)],
    })


def bits(M) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(M, dtype=complex)).view(np.uint64)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["float", "int", "complex"]))
    # a strided or transposed view of a larger base, or the base itself
    view = draw(st.sampled_from(["plain", "transposed", "strided"]))
    shape = {"plain": (rows, cols), "transposed": (cols, rows), "strided": (2 * rows, cols)}[view]
    size = shape[0] * shape[1]
    if kind == "int":
        values = draw(st.lists(st.integers(-2**53, 2**53), min_size=size, max_size=size))
        base = np.array(values, dtype=np.int64).reshape(shape)
    else:
        floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)
        parts = 2 if kind == "complex" else 1
        values = draw(st.lists(floats, min_size=parts * size, max_size=parts * size))
        base = np.array(values, dtype=float).reshape(parts, *shape)
        base = base[0] + 1j * base[1] if kind == "complex" else base[0]
    if draw(st.booleans()):  # a repeated value over a block
        base[: shape[0] // 2 + 1, : shape[1] // 2 + 1] = base[0, 0]
    return {"plain": base, "transposed": base.T, "strided": base[::2]}[view]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("codec") / "M.json"


@given(M=matrices())
def test_written_bytes_and_read_back(scratch, M):
    matio.write_matrix(scratch, M)
    text = scratch.read_text()
    assert text == reference_text(M)
    back = matio.read_matrix(scratch)
    assert back.shape == M.shape
    assert np.array_equal(bits(back), bits(M))


@pytest.mark.parametrize("kind", ["distinct", "repeated", "many blocks"])
def test_distinct_repeated_and_blocked_values(rng, tmp_path, kind):
    # every value distinct, a few values repeated, or a large matrix, half of
    # its values repeated
    if kind == "many blocks":
        M = np.zeros((260, 260), dtype=complex)
        M[130:] = random_complex(rng, 260)[130:]
    else:
        M = random_complex(rng, 6) if kind == "distinct" else np.diag(rng.standard_normal(6))
    M[0, 1] = -0.0
    path = tmp_path / "M.json"
    matio.write_matrix(path, M)
    assert path.read_text() == reference_text(M)
    assert np.array_equal(bits(matio.read_matrix(path)), bits(M))


def test_negative_zero_and_subnormal_keep_their_bits(tmp_path):
    M = np.array([[-0.0, 5e-324 - 0.0j], [complex(0.0, -0.0), 1e-300]])
    path = tmp_path / "M.json"
    matio.write_matrix(path, M)
    assert path.read_text() == reference_text(M)
    assert np.array_equal(bits(matio.read_matrix(path)), bits(M))


def test_formatting_failure_leaves_no_file(tmp_path, monkeypatch):
    # the text fails to format: an existing file keeps its bytes, and a new
    # path gets no file
    def fail(payload):
        raise MemoryError

    existing = tmp_path / "M.json"
    matio.write_matrix(existing, np.eye(2))
    before = existing.read_bytes()
    monkeypatch.setattr(matio.json, "dumps", fail)
    for path in (existing, tmp_path / "new.json"):
        with pytest.raises(MemoryError):
            matio.write_matrix(path, np.zeros((260, 260)))
    assert existing.read_bytes() == before
    assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
def test_write_rejects_non_finite(tmp_path, entry):
    M = np.eye(3, dtype=complex)
    M[1, 2] = entry
    path = tmp_path / "M.json"
    with pytest.raises(ValidationError, match="non-finite"):
        matio.write_matrix(path, M)
    assert not path.exists()


def test_cli_exits_2_on_non_finite_write(tmp_path, monkeypatch, capsys):
    def nan_pair(n):
        U = np.eye(n, dtype=complex)
        U[0, 0] = np.nan
        return U, U

    monkeypatch.setattr("acbott.cli.voiculescu", nan_pair)
    out = tmp_path / "pair"
    assert main(["gen", "voiculescu", "--n", "4", "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not list(out.glob("U1.*"))


HEAD = '{"rows": 1, "cols": 2, "data": '
MALFORMED = {
    "ragged pairs": HEAD + '[[1.0], [2.0, 3.0, 4.0]]}',
    "separator inside a string": HEAD + '[[1.0, "x], [y", 2.0]]}',
    "reordered keys": '{"cols": 2, "rows": 1, "data": [[1.0, 0.0], [2.0, -0.0]]}',
    "newline between pairs": HEAD + '[[1.0, 0.0],\n [2.0, 0.0]]}',
    "extra spaces": HEAD + '[[1.0,  0.0], [2.0 , 0.0]]}',
    "space before a separator": HEAD + '[[1.0, 0.0] , [2.0, 0.0]]}',
    "trailing newline": HEAD + '[[1.0, 0.0], [2.0, 0.0]]}\n',
    "integer tokens": HEAD + '[[1, 0], [-2, 3]]}',
    "true": HEAD + '[[true, 0.0], [2.0, 0.0]]}',
    "null": HEAD + '[[null, 0.0], [2.0, 0.0]]}',
    "numeric string": HEAD + '[["1.5", 0.0], [2.0, 0.0]]}',
    "nested array": HEAD + '[[[1.0], 0.0], [2.0, 0.0]]}',
    "object entry": HEAD + '[[{"a": 1, "b": 2}], [2.0, 0.0]]}',
    "NaN": HEAD + '[[NaN, 0.0], [2.0, 0.0]]}',
    "overflowing float": HEAD + '[[1e400, 0.0], [2.0, 0.0]]}',
    "non-ASCII string": HEAD + '[[1.0, 0.0], [2.0, "é"]]}',
    "non-ASCII digit": HEAD + '[[1.0, 0.0], [2.0, ٣]]}',
    "cut after a separator": HEAD + '[[1.0, 0.0], ',
    "cut after a separator, closed": HEAD + '[[1.0, 0.0], ]]}',
    "too few pairs": '{"rows": 2, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "zero rows": '{"rows": 0, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "leading zero in rows": '{"rows": 01, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "single entry": '{"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}',
    # rows * cols is 2**64 + 4, which int64 arithmetic would wrap to 4
    "rows * cols past int64": '{"rows": 4611686018427387905, "cols": 4, "data": '
    + '[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]}',
    "bool rows": '{"rows": true, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "string rows": '{"rows": "1", "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "fractional rows": '{"rows": 1.9, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "whole float cols": '{"rows": 1, "cols": 2.0, "data": [[1.0, 0.0], [2.0, 0.0]]}',
    "integer past a double": HEAD + '[[1' + '0' * 400 + ', 0.0], [2.0, 0.0]]}',
    "integer past the digit limit": HEAD + '[[1' + '0' * 5000 + ', 0.0], [2.0, 0.0]]}',
    "nesting past the recursion limit": HEAD + '[' * 100_000 + ']' * 100_000 + '}',
}
# the value each case reads as; every case not listed is a ValidationError
MALFORMED_READS = {
    "reordered keys": [[1.0, complex(2.0, -0.0)]],
    "newline between pairs": [[1.0, 2.0]],
    "extra spaces": [[1.0, 2.0]],
    "space before a separator": [[1.0, 2.0]],
    "trailing newline": [[1.0, 2.0]],
    "integer tokens": [[1.0, complex(-2.0, 3.0)]],
    "single entry": [[1.0]],
}


def assert_reads_as(path, value):
    """path reads bit for bit as value, or raises ValidationError for None."""
    if value is None:
        with pytest.raises(ValidationError, match=path.name):
            matio.read_matrix(path)
    else:
        back = matio.read_matrix(path)
        assert back.shape == np.shape(value)
        assert np.array_equal(bits(back), bits(value))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_fast_route_agrees_with_plain_json(tmp_path, case):
    path = tmp_path / "M.json"
    path.write_text(MALFORMED[case], encoding="utf-8")
    assert_reads_as(path, MALFORMED_READS.get(case))


def reference_diagonal_text(d) -> str:
    """The text ``json.dumps`` gives for a 1-D diagonal, one Python pair per entry."""
    d = np.asarray(d, dtype=complex)
    return json.dumps({
        "rows": d.size,
        "cols": d.size,
        "diagonal": [[float(z.real), float(z.imag)] for z in d],
    })


@given(M=matrices())
def test_diagonal_written_bytes_and_read_back(scratch, M):
    d = np.diagonal(M)  # a strided 1-D view
    matio.write_matrix(scratch, d)
    text = scratch.read_text()
    assert text == reference_diagonal_text(d)
    back = matio.read_matrix(scratch)
    assert back.shape == d.shape
    assert np.array_equal(bits(back), bits(d))


def test_dense_diagonal_matrix_stays_dense(tmp_path):
    # the layout follows the array's ndim: a diagonal 2-D matrix is not detected
    path = tmp_path / "M.json"
    matio.write_matrix(path, np.diag([1.0, 2.0]))
    assert '"data"' in path.read_text()
    assert matio.read_matrix(path).shape == (2, 2)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (0,)])
def test_write_rejects_zero_dimension(tmp_path, shape):
    path = tmp_path / "M.json"
    with pytest.raises(ValidationError, match="zero dimension"):
        matio.write_matrix(path, np.zeros(shape))
    assert not path.exists()


def test_cli_exits_2_on_zero_dimension_write(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("acbott.cli.voiculescu", lambda n: (np.zeros((0, 0)),) * 2)
    out = tmp_path / "pair"
    assert main(["gen", "voiculescu", "--n", "4", "--out", str(out)]) == 2
    assert "zero dimension" in capsys.readouterr().err
    assert not list(out.glob("U1.*"))


DIAG_HEAD = '{"rows": 2, "cols": 2, "diagonal": '
DIAGONAL_FILES = {
    "valid": DIAG_HEAD + '[[1.0, 0.0], [-0.0, 2.5]]}',
    "integer tokens": DIAG_HEAD + '[[1, 0], [-2, 3]]}',
    "too few pairs": DIAG_HEAD + '[[1.0, 0.0]]}',
    "too many pairs": DIAG_HEAD + '[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}',
    "rows * cols pairs": DIAG_HEAD + '[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]}',
    "rows != cols": '{"rows": 2, "cols": 1, "diagonal": [[1.0, 0.0], [2.0, 0.0]]}',
    "zero rows": '{"rows": 0, "cols": 0, "diagonal": [[1.0, 0.0]]}',
    "NaN": DIAG_HEAD + '[[NaN, 0.0], [2.0, 0.0]]}',
    "overflowing float": DIAG_HEAD + '[[1e400, 0.0], [2.0, 0.0]]}',
    "ragged pairs": DIAG_HEAD + '[[1.0], [2.0, 3.0, 4.0]]}',
    "both layouts": '{"rows": 1, "cols": 1, "data": [[1.0, 0.0]], "diagonal": [[1.0, 0.0]]}',
    "reordered keys": '{"diagonal": [[1.0, 0.0], [2.0, 0.0]], "cols": 2, "rows": 2}',
    "true": DIAG_HEAD + '[[true, 0.0], [2.0, 0.0]]}',
    "numeric string": DIAG_HEAD + '[["1.5", 0.0], [2.0, 0.0]]}',
    "string rows": '{"rows": "2", "cols": 2, "diagonal": [[1.0, 0.0], [2.0, 0.0]]}',
}
# the value each case reads as; every case not listed is a ValidationError
DIAGONAL_READS = {
    "valid": [1.0, complex(-0.0, 2.5)],
    "integer tokens": [1.0, complex(-2.0, 3.0)],
    "reordered keys": [1.0, 2.0],
}


@pytest.mark.parametrize("case", sorted(DIAGONAL_FILES))
def test_diagonal_fast_route_agrees_with_plain_json(tmp_path, case):
    path = tmp_path / "X1.json"
    path.write_text(DIAGONAL_FILES[case])
    assert_reads_as(path, DIAGONAL_READS.get(case))


@pytest.mark.parametrize("case", [
    "too few pairs", "too many pairs", "rows != cols", "NaN", "true", "string rows",
])
def test_cli_exits_2_on_bad_diagonal_file(tmp_path, capsys, case):
    indir = tmp_path / "torus"
    assert main(["gen", "torus", "--L", "3", "--out", str(indir)]) == 0
    (indir / "X1.npy").unlink()
    (indir / "X1.json").write_text(DIAGONAL_FILES[case])
    capsys.readouterr()
    assert main(["residual", "torus4", "--in", str(indir)]) == 2
    assert "ValidationError" in capsys.readouterr().err


def test_cli_exits_2_on_oversized_dimensions(tmp_path, capsys):
    indir = tmp_path / "torus"
    assert main(["gen", "torus", "--L", "3", "--out", str(indir)]) == 0
    (indir / "X1.npy").unlink()
    (indir / "X1.json").write_text(MALFORMED["rows * cols past int64"])
    capsys.readouterr()
    assert main(["residual", "torus4", "--in", str(indir)]) == 2
    assert "ValidationError" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [["index", "bott"], ["index", "pfbott"], ["residual", "torus2"]])
def test_cli_exits_2_on_diagonal_unitary(tmp_path, capsys, verb):
    # the unitary-pair verbs take dense matrices only
    indir = tmp_path / "pair"
    A, B = voiculescu(4)
    matio.write_matrix_dir(indir, {"U1": np.diagonal(B), "U2": A})
    assert main([*verb, "--in", str(indir)]) == 2
    assert "ShapeMismatch" in capsys.readouterr().err


# -- the .npy format -----------------------------------------------------------


@pytest.fixture(scope="module")
def scratch_npy(tmp_path_factory):
    return tmp_path_factory.mktemp("npy") / "M.npy"


@given(M=matrices())
def test_npy_written_and_read_back(scratch_npy, M):
    for A in (M, np.diagonal(M)):  # 2-D, and a strided 1-D diagonal
        matio.write_matrix(scratch_npy, A)
        stored = np.load(scratch_npy, allow_pickle=False)
        assert stored.dtype == np.complex128 and stored.flags.c_contiguous
        back = matio.read_matrix(scratch_npy)
        assert back.shape == A.shape
        assert np.array_equal(bits(back), bits(A))


@pytest.mark.parametrize("M", [
    np.array([[-0.0, 5e-324 - 0.0j], [complex(0.0, -0.0), 1e-300]]),
    np.array([-0.0, complex(5e-324, -0.0), complex(-5e-324, 2.5), 1e-310]),
], ids=["dense", "diagonal"])
def test_npy_negative_zero_and_subnormal_keep_their_bits(tmp_path, M):
    path = tmp_path / "M.npy"
    matio.write_matrix(path, M)
    back = matio.read_matrix(path)
    assert back.shape == M.shape
    assert np.array_equal(bits(back), bits(M))


@pytest.mark.parametrize("store", [
    lambda M: M.astype(">c16"),
    lambda M: np.asfortranarray(M),
    lambda M: np.asfortranarray(M).astype(">c16", order="F"),
    lambda M: M.real.astype(">f8"),
    lambda M: M.real.astype(np.float32),
    lambda M: M.astype(np.complex64),
], ids=["big-endian", "fortran", "big-endian fortran", "big-endian real", "float32", "complex64"])
def test_npy_reader_takes_any_float_layout(tmp_path, store):
    M = np.array([[1.5, -0.25j, 3.0], [-0.0, 2.0 + 1.0j, 0.125]])
    path = tmp_path / "M.npy"
    A = store(M)
    np.save(path, A, allow_pickle=False)
    back = matio.read_matrix(path)
    assert back.dtype == np.complex128 and back.flags.c_contiguous
    assert np.array_equal(back, A.astype(np.complex128))


class Tripwire:
    """An object whose unpickling makes the directory it names."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


def test_npy_reader_never_unpickles(tmp_path):
    path, marker = tmp_path / "M.npy", tmp_path / "unpickled"
    np.save(path, np.array([[Tripwire(marker), 1.0]], dtype=object), allow_pickle=True)
    with pytest.raises(ValidationError, match="dtype object"):
        matio.read_matrix(path)
    assert not marker.exists()
    np.load(path, allow_pickle=True)  # the tripwire is armed
    assert marker.exists()


def header_only(shape):
    """A version 1.0 .npy header for complex128 data of the given shape,
    followed by 64 bytes."""
    out = io.BytesIO()
    npformat.write_array_header_1_0(out, {"descr": "<c16", "fortran_order": False, "shape": shape})
    return out.getvalue() + bytes(64)


def saved(A) -> bytes:
    out = io.BytesIO()
    np.save(out, A, allow_pickle=False)
    return out.getvalue()


GOOD_NPY = saved(np.eye(3, dtype=complex))
BAD_NPY = {
    "truncated data": GOOD_NPY[:-5],
    "truncated header": GOOD_NPY[:40],
    "empty": b"",
    "trailing bytes": GOOD_NPY + b"\0" * 16,
    "oversized header": header_only((10**9,)),
    "3-D": saved(np.zeros((2, 2, 2))),
    "0-D": saved(np.float64(1.0)),
    "zero rows": saved(np.zeros((0, 3))),
    "zero columns": saved(np.zeros((3, 0))),
    "empty diagonal": saved(np.zeros(0)),
    "NaN": saved(np.array([[1.0, np.nan]])),
    "infinity": saved(np.array([complex(1.0, -np.inf)])),
    "integer": saved(np.arange(4).reshape(2, 2)),
    "bool": saved(np.eye(2, dtype=bool)),
    "structured": saved(np.zeros(2, dtype=[("re", "<f8"), ("im", "<f8")])),
    "JSON text": b'{"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}',
    "zip archive": b"PK\x03\x04" + bytes(60),
}


@pytest.mark.parametrize("case", sorted(BAD_NPY))
def test_npy_reader_rejects(tmp_path, case):
    path = tmp_path / "M.npy"
    path.write_bytes(BAD_NPY[case])
    with pytest.raises(ValidationError, match="M.npy"):
        matio.read_matrix(path)


@pytest.mark.parametrize("M, error", [
    (np.zeros((2, 2, 2)), "ndim 3"),
    (np.zeros((0, 3)), "zero dimension"),
    (np.array([1.0, np.nan]), "non-finite"),
])
def test_npy_writer_checks_before_opening(tmp_path, M, error):
    path = tmp_path / "M.npy"
    with pytest.raises(ValidationError, match=error):
        matio.write_matrix(path, M)
    assert not path.exists()


def test_directory_roles_in_either_format(tmp_path):
    matio.write_matrix(tmp_path / "A.json", np.eye(2))
    matio.write_matrix(tmp_path / "B.npy", np.eye(3))
    assert matio.available_roles(tmp_path) == {"A", "B"}
    A, B = matio.read_matrix_dir(tmp_path, ("A", "B"))
    assert A.shape == (2, 2) and B.shape == (3, 3)
    written = matio.write_matrix_dir(tmp_path, {"A": 2 * np.eye(2)})
    assert written == {"A": tmp_path / "A.npy"}
    assert sorted(f.name for f in tmp_path.iterdir()) == ["A.npy", "B.npy"]
    assert np.array_equal(matio.read_matrix_dir(tmp_path, ("A",))[0], 2 * np.eye(2))


def test_directory_role_in_both_formats_is_rejected(tmp_path):
    matio.write_matrix(tmp_path / "A.json", np.eye(2))
    matio.write_matrix(tmp_path / "A.npy", np.eye(2))
    with pytest.raises(ValidationError, match=r"A\.npy and A\.json"):
        matio.read_matrix_dir(tmp_path, ("A",))


def test_directory_missing_role_names_both_files(tmp_path):
    with pytest.raises(ValidationError, match=r"neither A\.npy nor A\.json"):
        matio.read_matrix_dir(tmp_path, ("A",))
