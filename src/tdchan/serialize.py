"""Deterministic output encoding for the CLI.

Floats are always rendered with 17 significant digits, which round-trips
IEEE doubles exactly, so identical reports serialize to identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .channel import DensityMatrix
from .errors import BadDimension, OutOfRange


def fmt_float(x: float) -> str:
    if x != x:  # NaN
        return "NaN"
    return format(float(x), ".17g")


def to_json(obj) -> str:
    """JSON text with 17-significant-digit floats, insertion-ordered keys.

    Dispatches on the exact type of obj first; numpy scalars, tuples,
    arrays and subclasses fall through to _to_json_other.
    """
    kind = type(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return str(obj)
    if kind is float:
        return fmt_float(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is list:
        return "[" + ", ".join(map(to_json, obj)) + "]"
    if kind is dict:
        inner = ", ".join(f"{encode_basestring_ascii(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if obj is None:
        return "null"
    return _to_json_other(obj)


def _to_json_other(obj) -> str:
    """to_json of numpy scalars and arrays, tuples and subclasses of the exact types."""
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {to_json(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(to_json(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cells(row: list, scalar) -> list[str]:
    """Each cell of row as scalar(v) renders it; a list cell is its items, so rendered, joined by ';'."""
    return [";".join(map(scalar, v)) if isinstance(v, list) else scalar(v) for v in row]


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    """Simple CSV with the mandatory header row; floats at 17 digits."""

    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, (float, np.floating)):
            return fmt_float(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(_cells(row, cell)) for row in rows)
    return "\n".join(lines) + "\n"


def rows_to_table(header: list[str], rows: list[list]) -> str:
    """Human-readable aligned table (text output mode); list cells as in rows_to_csv."""

    def cell(v) -> str:
        if v is None:
            return "-"
        if isinstance(v, (float, np.floating)):
            return format(float(v), ".12g")
        return str(v)

    grid = [header] + [_cells(row, cell) for row in rows]
    widths = [max(len(r[c]) for r in grid) for c in range(len(header))]
    lines = []
    for i, r in enumerate(grid):
        lines.append("  ".join(s.ljust(w) for s, w in zip(r, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def density_to_obj(rho: DensityMatrix) -> dict:
    """{"dim": n, "rows": [[[re, im], ...], ...]}, row-major."""
    m = rho.mat
    rows = [[[float(m[i, j].real), float(m[i, j].imag)] for j in range(m.shape[1])] for i in range(m.shape[0])]
    return {"dim": int(m.shape[0]), "rows": rows}


def density_from_obj(obj) -> DensityMatrix:
    """Parse the JSON form back into a validated DensityMatrix.

    Structural problems raise BadDimension (a parse-level failure);
    the DensityMatrix constructor handles the numeric invariants.
    """
    if not isinstance(obj, dict) or "dim" not in obj or "rows" not in obj:
        raise BadDimension('expected an object with "dim" and "rows"')
    dim = obj["dim"]
    rows = obj["rows"]
    if not isinstance(dim, int) or not isinstance(rows, list) or len(rows) != dim:
        raise BadDimension(f"rows/dim mismatch: dim={dim!r}")
    m = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise BadDimension(f"row {i} has wrong length")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise BadDimension(f"entry ({i},{j}) is not an [re, im] pair")
            if not all(type(x) in (int, float) for x in entry):
                raise BadDimension(f"entry ({i},{j}) is not a pair of numbers")
            try:
                m[i, j] = complex(entry[0], entry[1])
            except OverflowError:  # an integer past the double range
                raise OutOfRange(f"entry ({i},{j}) is not finite") from None
    return DensityMatrix(m)
