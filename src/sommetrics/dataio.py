"""Plain-text matrix and label files: comma-separated rows, diffable, dependency-free.

Codebook files hold one prototype per line in row-major unit order; label
files hold one integer per line. Matrices are written with 17 significant
digits so a write/read round trip reproduces the exact float64 values.

Files are read as a stream, a line at a time. A matrix's rows are parsed
into float64 blocks of at most ``_BLOCK`` values, joined at the end, so for a
file of ``\n``-terminated lines of any number a load holds one line and one
block of Python floats besides the parsed blocks, and peaks near twice the
result's bytes. A line that breaks only at characters other than ``\n``
(such as ``\x0b`` or ``\u2028``) is held whole. ``_BLOCK`` is fixed here,
never taken from the machine.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import InputError

_BLOCK = 1 << 10  # values parsed into one block of a matrix
_INT64 = range(-2**63, 2**63)  # the labels an int64 array holds


def _lines(path):
    """The lines of file ``path`` as ``str.splitlines`` gives them for the whole text; raises InputError.

    Text mode turns ``\r\n`` and a lone ``\r`` into ``\n``, so every line
    read from the file ends at a ``\n`` of the whole text, and splitting each
    gives the whole text's lines. A decode error names its position in the
    whole file, as reading the file at once does.
    """
    try:
        with open(path) as file:
            for raw in file:
                yield from raw.splitlines()
    except UnicodeDecodeError as exc:
        try:  # the error counts from the decoder's last read: decode the whole file once more
            Path(path).read_text()
        except UnicodeDecodeError as whole:
            exc = whole
        raise InputError(f"{path}: {exc}") from exc  # the path as given, as the commands name a file's contents
    except OSError as exc:
        raise InputError(f"{Path(path)}: {exc.strerror or exc}") from exc


def _data_lines(path, what: str):
    """(line number, stripped text) of each nonblank line; raises InputError naming the file."""
    lineno, found = 0, False
    for line in _lines(path):
        lineno += 1
        if s := line.strip():
            found = True
            yield lineno, s
    if not found:  # every line is blank once stripped
        raise InputError(f"{Path(path)}: file holds no {what}")


def _bad_row(lines, message: str) -> InputError:
    """InputError(message), once the rest of ``lines`` is read: a decode error anywhere in the file wins."""
    for _ in lines:
        pass
    return InputError(message)


def load_matrix(path) -> np.ndarray:
    """Parse a comma-separated numeric matrix; raises InputError naming file and line.

    Rows are parsed with ``float()`` into float64 blocks of ``_BLOCK // D``
    rows (at least one), and the blocks are joined once the file is read.
    """
    lines = _data_lines(path, "data rows")
    path = Path(path)
    blocks, rows, width, per_block = [], [], 0, 0
    for lineno, line in lines:
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise _bad_row(lines, f"{path}:{lineno}: not a numeric row: {line!r}") from exc
        if not width:
            width = len(row)
            per_block = max(1, _BLOCK // width)
        elif len(row) != width:
            raise _bad_row(lines, f"{path}:{lineno}: expected {width} columns, found {len(row)}")
        rows.append(row)
        if len(rows) == per_block:
            blocks.append(np.array(rows, dtype=float))
            rows = []
    blocks.append(np.array(rows, dtype=float).reshape(-1, width))
    rows.clear()  # free the last block's Python floats before the join
    return np.concatenate(blocks)


def load_labels(path) -> np.ndarray:
    """Parse one int64 class id per line; raises InputError naming file and line."""
    lines = _data_lines(path, "labels")
    path = Path(path)
    labels = []
    for lineno, line in lines:
        try:
            label = int(line)
        except ValueError as exc:
            raise _bad_row(lines, f"{path}:{lineno}: not an integer label: {line!r}") from exc
        if label not in _INT64:
            raise _bad_row(lines, f"{path}:{lineno}: label outside int64: {line!r}")
        labels.append(label)
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
