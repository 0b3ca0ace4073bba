"""Matrix interchange and input digests.

Matrices are read from CSV, one row per line, with the axis sizes supplied
separately; a value may be a decimal or a hex float, so exact values round
trip.  :func:`array_digest` identifies an input array in report configs.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from .errors import ArgumentError, ShapeError


def array_digest(A) -> str:
    """sha256 of an array's shape and float64 values."""
    A = np.ascontiguousarray(A, dtype=np.float64)
    h = hashlib.sha256(repr(A.shape).encode())
    h.update(A.tobytes())
    return h.hexdigest()


def _parse_value(path, tok: str) -> float:
    try:
        x = float.fromhex(tok) if ("0x" in tok or "0X" in tok) else float(tok)
    except (ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ArgumentError(f"{path}: not a finite number: {tok!r}")
    return x


def load_matrix_csv(path) -> np.ndarray:
    """Read a dense matrix of finite values from CSV, one row per line."""
    rows = []
    width = None
    for ln in Path(path).read_text().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        row = [_parse_value(path, tok) for tok in ln.split(",")]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ShapeError(f"{path}: ragged CSV rows ({len(row)} vs {width})")
        rows.append(row)
    if not rows:
        raise ShapeError(f"{path}: empty matrix")
    return np.array(rows, dtype=np.float64)


def save_matrix_csv(path, A: np.ndarray) -> None:
    """Write a dense matrix as CSV with exact round-trip values."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"need a matrix, got ndim = {A.ndim}")
    lines = [",".join(repr(float(v)) for v in row) for row in A]
    Path(path).write_text("\n".join(lines) + "\n")
