"""Shared on-disk matrix format.

A matrix file is a single JSON object, for a 2-D array or for the 1-D
array of a diagonal n x n matrix (the lattice positions X1..X4):

    {"rows": r, "cols": c, "data": [[re, im], ...]}
    {"rows": n, "cols": n, "diagonal": [[re, im], ...]}

``data`` is row-major with exactly rows*cols finite entries, ``diagonal``
has exactly n; the array's ndim picks the layout on write and the layout
picks it on read, so a dense file is never read as a diagonal.  Parsers
reject anything else, and writers reject zero dimensions and non-finite
entries (NaN and Infinity are not JSON), as ValidationError, as are
file-system errors and text that is not UTF-8.  Doubles round-trip
bit-identically through the shortest repr JSON uses.

The writer emits exactly the bytes of ``json.dumps`` of that object
without building a Python object per entry: it formats each distinct
double once, and opens the file only once the whole text is formatted.
The reader takes the layout the writer emits on a fast route (one flat
``json.loads`` of the entries, no pair lists); any other valid JSON object
is still accepted through plain ``json.loads``, with the same values and
the same errors.

A matrix directory holds one file per role (U1, U2, H1..H3, W or P, X1..X4),
named "<role>.json".  Lattice and sweep configs are flat key=value text
files.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import ValidationError


# the head of every file write_matrix emits; the data follow it
_HEADER = re.compile(r'\{"rows": (0|[1-9][0-9]*), "cols": (0|[1-9][0-9]*), "(data|diagonal)": \[\[')
_COMMA, _SPACE, _OPEN, _CLOSE = b", []"
# floats formatted at a time: even, so that a block ends between pairs, and
# small, so that the temporaries of a block add nothing to peak memory
_BLOCK = 1 << 16


def write_matrix(path, M) -> None:
    """Write M, 2-D or a 1-D diagonal, as a matrix file.  The whole text is
    formatted before the file is opened, so a matrix that fails to format
    (a zero dimension, non-finite entries, or an error raised part way)
    leaves no file behind."""
    A = np.asarray(M, dtype=complex)
    if A.ndim not in (1, 2):
        raise ValidationError(f"can only store 2-D matrices and 1-D diagonals, got ndim {A.ndim}")
    if 0 in A.shape:
        raise ValidationError(f"{path}: cannot store a matrix with a zero dimension {A.shape}")
    if not np.isfinite(A).all():
        raise ValidationError(f"{path}: non-finite entries cannot be written as JSON")
    flat = np.ascontiguousarray(A).view(np.float64).reshape(-1)
    rows, cols, key = (A.size, A.size, "diagonal") if A.ndim == 1 else (*A.shape, "data")
    # the bytes of json.dumps({"rows": r, "cols": c, key: [[re, im], ...]})
    chunks = [f'{{"rows": {rows}, "cols": {cols}, "{key}": ['.encode()]
    for start in range(0, flat.size, _BLOCK):
        chunks += [b"], [" if start else b"[", _pairs(flat[start:start + _BLOCK])]
    chunks.append(b"]]}")
    with open(path, "wb") as out:
        out.writelines(chunks)


def _pairs(flat: np.ndarray) -> np.ndarray:
    """The floats a, b, c, d, ... as ``json`` writes them, paired, without
    the outer brackets: "a, b], [c, d".  No Python object is built per entry:
    each distinct bit pattern (so -0.0 stays apart from 0.0) goes through
    ``float.__repr__`` once, as in ``json``, and the entries gather their
    reprs by index; lattice matrices repeat a few values."""
    bits, inverse = np.unique(flat.view(np.uint64), return_inverse=True)
    reprs = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object)
    joined = np.frombuffer(", ".join(reprs[inverse].tolist()).encode(), dtype=np.uint8)
    # every second ", " becomes "], [": insert "]" before it and "[" after it
    seps = np.flatnonzero(joined == _COMMA)[1::2]
    brackets = np.repeat(np.array([_CLOSE, _OPEN], dtype=np.uint8), seps.size)
    return np.insert(joined, np.concatenate([seps, seps + 2]), brackets)


def read_matrix(path) -> np.ndarray:
    """An r x c array from a ``data`` file, a 1-D array from a ``diagonal`` one."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read matrix file {path}: {exc}") from exc
    parsed = _decode_written(text)
    rows, cols, key, pairs = _decode_json(path, text) if parsed is None else parsed
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


def _decode_written(text: str):
    """(rows, cols, key, pairs) of text in a layout :func:`write_matrix`
    emits, or None for any other text.

    With n pairs (rows*cols, or rows for a diagonal), the body between "[["
    and "]]}" must hold 2n - 1 commas, every second one inside "], [", and
    n - 1 brackets of each kind, so that it is the nested data flattened by
    "], [" -> ", ".  One flat ``json.loads`` then checks every token."""
    head = _HEADER.match(text)
    if head is None or not text.endswith("]]}"):
        return None
    try:  # over-long digit strings and non-ASCII text take the plain route
        rows, cols = int(head[1]), int(head[2])
        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except ValueError:
        return None
    n = rows if head[3] == "diagonal" else rows * cols
    body = raw[head.end():-3]
    # positions in raw: the closing "]]}" keeps every look past a comma inside it
    commas = np.flatnonzero(body == _COMMA) + head.end()
    if commas.size != 2 * n - 1:
        return None
    inner, outer = commas[0::2], commas[1::2]
    if (
        np.any(raw[outer - 1] != _CLOSE) or np.any(raw[outer + 1] != _SPACE)
        or np.any(raw[outer + 2] != _OPEN) or np.any(raw[inner - 1] == _CLOSE)
        or np.count_nonzero(body == _OPEN) != n - 1 or np.count_nonzero(body == _CLOSE) != n - 1
    ):
        return None
    del raw, body, commas, inner, outer  # not held through the parse, the read's memory peak
    try:  # text[head.end() - 1:-2] is "[" + body + "]"
        pairs = np.array(json.loads(text[head.end() - 1:-2].replace("], [", ", ")), dtype=float)
    except (ValueError, TypeError, OverflowError):
        return None
    return (rows, cols, head[3], pairs.reshape(n, 2)) if pairs.shape == (2 * n,) else None


def _decode_json(path, text: str):
    """(rows, cols, key, pairs) of any JSON matrix object, by plain ``json.loads``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: not a matrix object")
    if ("data" in payload) == ("diagonal" in payload):
        raise ValidationError(f"{path}: needs exactly one of the fields 'data' and 'diagonal'")
    key = "diagonal" if "diagonal" in payload else "data"
    if "rows" not in payload or "cols" not in payload:
        raise ValidationError(f"{path}: missing field 'rows' or 'cols'")
    try:
        rows, cols = int(payload["rows"]), int(payload["cols"])
        return rows, cols, key, np.asarray(payload[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed matrix: {exc}") from exc


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
        values[key] = val
    return values


def write_matrix_dir(directory, matrices: dict[str, np.ndarray]) -> None:
    """Write a role -> matrix mapping as one file per role."""
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for role, M in matrices.items():
            write_matrix(out / f"{role}.json", M)
    except OSError as exc:
        raise ValidationError(f"cannot write matrix directory {out}: {exc}") from exc


def read_matrix_dir(directory, roles) -> list[np.ndarray]:
    """Read the given roles from a matrix directory, in order."""
    return [read_matrix(Path(directory) / f"{role}.json") for role in roles]


def available_roles(directory) -> set[str]:
    return {p.stem for p in Path(directory).glob("*.json")}
