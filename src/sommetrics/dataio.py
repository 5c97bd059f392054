"""Plain-text matrix and label files: comma-separated rows, diffable, dependency-free.

Codebook files hold one prototype per line in row-major unit order; label
files hold one integer per line. Matrices are written with 17 significant
digits so a write/read round trip reproduces the exact float64 values.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import InputError


def _data_lines(path: Path, what: str):
    """(line number, stripped text) of each nonblank line; raises InputError naming the file."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    if not text or text.isspace():  # every line is blank once stripped
        raise InputError(f"{path}: file holds no {what}")
    return ((n, s) for n, line in enumerate(text.splitlines(), start=1) if (s := line.strip()))


def load_matrix(path) -> np.ndarray:
    """Parse a comma-separated numeric matrix; raises InputError naming file and line."""
    path = Path(path)
    rows: list[list[float]] = []
    for lineno, line in _data_lines(path, "data rows"):
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not a numeric row: {line!r}") from exc
        if rows and len(row) != len(rows[0]):
            raise InputError(f"{path}:{lineno}: expected {len(rows[0])} columns, found {len(row)}")
        rows.append(row)
    return np.asarray(rows, dtype=float)


def load_labels(path) -> np.ndarray:
    """Parse one integer class id per line; raises InputError naming file and line."""
    path = Path(path)
    labels = []
    for lineno, line in _data_lines(path, "labels"):
        try:
            labels.append(int(line))
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: not an integer label: {line!r}") from exc
    return np.asarray(labels, dtype=np.int64)


def save_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix as comma-separated rows with round-trip-exact precision."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [",".join(f"{v:.17g}" for v in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")


def content_hash(matrix: np.ndarray) -> str:
    """SHA-256 of the canonical float64 row-major bytes; format-independent."""
    canonical = np.ascontiguousarray(matrix, dtype=float)
    return hashlib.sha256(canonical.tobytes()).hexdigest()
