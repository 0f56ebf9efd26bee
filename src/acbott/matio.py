"""Shared on-disk matrix format.

A matrix file holds a 2-D array, or the 1-D array of a diagonal n x n
matrix (the lattice positions X1..X4), in one of two formats picked by
the file's suffix: numpy's binary ``.npy``, which acbott writes, and JSON,
which it still reads (and writes for any other suffix), for older matrix
directories and hand-written inputs.  Converting a file is a read and a
write: ``write_matrix("M.json", read_matrix("M.npy"))``.

An ``.npy`` file is written by ``np.save`` as C-ordered complex128 with
pickling off.  The reader takes a real or complex float array in any byte
order and memory order and returns complex128; it checks the header
before it loads (dtype, ndim, dimensions, and that the file holds exactly
the bytes the header declares), so an object, integer, bool or structured
array, a truncated file or an oversized header is rejected without
loading, and nothing is ever unpickled.

A JSON matrix file is a single object:

    {"rows": r, "cols": c, "data": [[re, im], ...]}
    {"rows": n, "cols": n, "diagonal": [[re, im], ...]}

``data`` is row-major with exactly rows*cols entries, ``diagonal`` has
exactly n; ``rows`` and ``cols`` are JSON integers and every entry is a
finite JSON number (an integer or a float; ``true``, a string or null is
rejected, never coerced).  The array's ndim picks the layout on write and
the layout picks it on read, so a dense file is never read as a diagonal.
The writer emits exactly the bytes of ``json.dumps`` of that object, formatted
whole before the file is opened, and the reader parses with ``json.loads``;
doubles round-trip bit-identically in both formats, through the shortest
repr JSON uses.  In both formats the writer rejects ndim other than 1 and 2,
zero dimensions and non-finite entries (NaN and Infinity are not JSON)
before the file is opened, and the reader rejects the same; these, and
file-system errors and JSON text that is not UTF-8, are ValidationError.

A matrix directory holds one file per role (U1, U2, H1..H3, W or P, X1..X4),
named "<role>.npy" or "<role>.json"; a role with both files is ambiguous
and rejected when read.  Lattice and sweep configs are flat key=value text
files.
"""

from __future__ import annotations

import json
import math
import os
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib import format as npformat

from .errors import ValidationError


_NPY, _JSON = ".npy", ".json"
# the header reader of each .npy version np.save writes for a float array
_NPY_HEADERS = {
    (1, 0): npformat.read_array_header_1_0,
    (2, 0): npformat.read_array_header_2_0,
}


def write_matrix(path, M) -> None:
    """Write M, 2-D or a 1-D diagonal, as a matrix file: ``.npy`` for that
    suffix, JSON for any other.  M is checked, and a JSON text formatted
    whole, before the file is opened, so a matrix that fails (a zero
    dimension, non-finite entries, or an error raised part way through the
    formatting) leaves no file behind."""
    A = np.asarray(M, dtype=complex)
    if A.ndim not in (1, 2):
        raise ValidationError(f"can only store 2-D matrices and 1-D diagonals, got ndim {A.ndim}")
    if 0 in A.shape:
        raise ValidationError(f"{path}: cannot store a matrix with a zero dimension {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError(f"{path}: non-finite entries cannot be stored")
    if Path(path).suffix == _NPY:
        with open(path, "wb") as out:
            np.save(out, np.ascontiguousarray(A), allow_pickle=False)
        return
    rows, cols, key = (A.size, A.size, "diagonal") if A.ndim == 1 else (*A.shape, "data")
    pairs = np.ascontiguousarray(A).view(np.float64).reshape(-1, 2).tolist()
    text = json.dumps({"rows": rows, "cols": cols, key: pairs})
    Path(path).write_text(text, encoding="ascii")


def read_matrix(path) -> np.ndarray:
    """An r x c array from a 2-D matrix file, a 1-D array from a diagonal:
    ``.npy`` for that suffix, JSON for any other."""
    if Path(path).suffix == _NPY:
        return _read_npy(path)
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    rows, cols, key, pairs = _decode_json(path, text)
    if rows < 1 or cols < 1:
        raise ValidationError(f"{path}: non-positive dimensions {rows}x{cols}")
    if key == "diagonal" and rows != cols:
        raise ValidationError(f"{path}: a diagonal needs rows == cols, got {rows}x{cols}")
    n = rows if key == "diagonal" else rows * cols
    if pairs.shape != (n, 2):
        raise ValidationError(f"{path}: {key} has shape {pairs.shape}, not ({n}, 2)")
    if not np.all(np.isfinite(pairs)):
        raise ValidationError(f"{path}: non-finite entries")
    return pairs.view(complex).reshape((rows,) if key == "diagonal" else (rows, cols))


def _read_npy(path) -> np.ndarray:
    """The complex128 array of an ``.npy`` file of real or complex floats.

    The header is checked before ``np.load`` runs: a dtype other than a
    float, an ndim other than 1 or 2, a zero dimension, or a data length
    other than the header's shape times its itemsize (a truncated file, or
    a header that would allocate more than the file holds) is rejected
    without loading."""
    try:
        with open(path, "rb") as fh:
            version = npformat.read_magic(fh)
            if version not in _NPY_HEADERS:
                raise ValidationError(f"{path}: unsupported .npy version {version}")
            shape, _, dtype = _NPY_HEADERS[version](fh)
            if dtype.kind not in "fc":
                raise ValidationError(f"{path}: dtype {dtype} is not a real or complex float")
            if len(shape) not in (1, 2):
                raise ValidationError(f"{path}: can only read 2-D matrices and 1-D diagonals, "
                                      f"got ndim {len(shape)}")
            if 0 in shape:
                raise ValidationError(f"{path}: zero dimension {shape}")
            size = math.prod(shape) * dtype.itemsize
            start = fh.tell()
            if fh.seek(0, os.SEEK_END) - start != size:
                raise ValidationError(f"{path}: holds {fh.tell() - start} bytes of data, "
                                      f"the header declares {size}")
            fh.seek(0)
            A = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    A = np.ascontiguousarray(A, dtype=complex)
    if not np.isfinite(A).all():
        raise ValidationError(f"{path}: non-finite entries")
    return A


def _decode_json(path, text: str):
    """(rows, cols, key, pairs) of a JSON matrix object, by ``json.loads``:
    ``rows`` and ``cols`` must be JSON integers and, where the entries form
    rows, each entry a JSON number that a double holds."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # over-long integers and deep nesting too
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: not a matrix object")
    if ("data" in payload) == ("diagonal" in payload):
        raise ValidationError(f"{path}: needs exactly one of the fields 'data' and 'diagonal'")
    key = "diagonal" if "diagonal" in payload else "data"
    if "rows" not in payload or "cols" not in payload:
        raise ValidationError(f"{path}: missing field 'rows' or 'cols'")
    rows, cols = payload["rows"], payload["cols"]
    if type(rows) is not int or type(cols) is not int:  # bool is an int subclass
        raise ValidationError(f"{path}: 'rows' and 'cols' must be JSON integers")
    try:
        pairs = np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{path}: malformed matrix: {exc}") from exc
    # the float conversion also takes true and "1.5"; a pair list of any other shape fails later
    if pairs.ndim == 2 and not set(map(type, chain.from_iterable(payload[key]))) <= {int, float}:
        raise ValidationError(f"{path}: {key} holds entries that are not JSON numbers")
    return rows, cols, key, pairs


def read_config(path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValidationError(f"{path}: key {key!r} is given twice")
        values[key] = val
    return values


def write_matrix_dir(directory, matrices: dict[str, np.ndarray]) -> dict[str, Path]:
    """Write a role -> matrix mapping as one ``<role>.npy`` file per role,
    replacing that role's file in either format; the paths written, by role."""
    out = Path(directory)
    written = {}
    try:
        out.mkdir(parents=True, exist_ok=True)
        for role, M in matrices.items():
            written[role] = out / f"{role}{_NPY}"
            write_matrix(written[role], M)
            (out / f"{role}{_JSON}").unlink(missing_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot write matrix directory {out}: {exc}") from exc
    return written


def read_matrix_dir(directory, roles) -> list[np.ndarray]:
    """Read the given roles from a matrix directory, in order."""
    return [read_matrix(_role_file(Path(directory), role)) for role in roles]


def _role_file(directory: Path, role: str) -> Path:
    """The one file of a role, in either format."""
    binary, text = (directory / f"{role}{suffix}" for suffix in (_NPY, _JSON))
    found = [path for path in (binary, text) if path.exists()]
    if len(found) == 2:
        raise ValidationError(f"{directory} holds both {binary.name} and {text.name}; "
                              "remove the one that is stale")
    if not found:
        raise ValidationError(f"{directory} holds neither {binary.name} nor {text.name}")
    return found[0]


def available_roles(directory) -> set[str]:
    return {p.stem for suffix in (_NPY, _JSON) for p in Path(directory).glob(f"*{suffix}")}
