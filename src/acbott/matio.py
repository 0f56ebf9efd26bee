"""Shared on-disk matrix format and report serialization.

A matrix file is a single JSON object:

    {"rows": r, "cols": c, "data": [[re, im], ...]}

with ``data`` row-major and exactly rows*cols entries; parsers reject
anything else.  Doubles round-trip bit-identically through the shortest
repr JSON uses.

A matrix directory holds one file per role (U1, U2, H1..H3, P, X1..X4),
named "<role>.json".  Lattice and sweep configs are flat key=value text
files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError


def write_matrix(path, M) -> None:
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2:
        raise ValidationError(f"can only store 2-D matrices, got ndim {A.ndim}")
    payload = {
        "rows": A.shape[0],
        "cols": A.shape[1],
        "data": np.stack([A.real, A.imag], axis=-1).reshape(-1, 2).tolist(),
    }
    Path(path).write_text(json.dumps(payload))


def read_matrix(path) -> np.ndarray:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: not a matrix object")
    for key in ("rows", "cols", "data"):
        if key not in payload:
            raise ValidationError(f"{path}: missing field {key!r}")
    try:
        rows, cols = int(payload["rows"]), int(payload["cols"])
        pairs = np.asarray(payload["data"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed matrix: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValidationError(f"{path}: non-positive dimensions {rows}x{cols}")
    if pairs.shape != (rows * cols, 2):
        raise ValidationError(
            f"{path}: data has shape {pairs.shape}, expected rows*cols = "
            f"{rows * cols} [re, im] pairs"
        )
    if not np.all(np.isfinite(pairs)):
        raise ValidationError(f"{path}: non-finite entries")
    return pairs.view(complex).reshape(rows, cols)


def read_config(path) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
    out.mkdir(parents=True, exist_ok=True)
    for role, M in matrices.items():
        write_matrix(out / f"{role}.json", M)


def read_matrix_dir(directory, roles) -> list[np.ndarray]:
    """Read the given roles from a matrix directory, in order."""
    base = Path(directory)
    out = []
    for role in roles:
        path = base / f"{role}.json"
        if not path.exists():
            raise ValidationError(f"missing matrix file {path}")
        out.append(read_matrix(path))
    return out


def available_roles(directory) -> set[str]:
    base = Path(directory)
    if not base.is_dir():
        raise ValidationError(f"{directory} is not a directory")
    return {p.stem for p in base.glob("*.json")}


def dump_report(report_dict: dict) -> str:
    """Serialize a labelled-value report object as JSON text."""
    return json.dumps(report_dict, indent=2, default=_coerce)


def _coerce(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value)}")
