"""Plain-text matrix and label files: comma-separated rows, diffable, dependency-free.

Codebook files hold one prototype per line in row-major unit order; label
files hold one integer per line. Matrices are written with 17 significant
digits so a write/read round trip reproduces the exact float64 values.

Files are read as a stream, a line at a time. Each field is parsed with
``float()`` or ``int()`` and checked here, so that every error names its file
and line; ``np.fromiter`` grows the result. For a file of ``\n``-terminated
lines of any number a load holds one line, one parsed row and the growing
result, and peaks near 1.2 times the result's bytes. A line that breaks only
at characters other than ``\n`` (such as ``\x0b`` or ``\u2028``) is held
whole. ``np.savetxt`` writes a matrix one row at a time.
"""
from __future__ import annotations

import hashlib
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InputError

_INT64 = range(-2**63, 2**63)  # the labels an int64 array holds


def _data_lines(path, what: str):
    """(line number, stripped text) of each nonblank line of file ``path``; raises InputError naming the file.

    Lines and their numbers are those ``str.splitlines`` gives for the whole
    text: text mode turns ``\r\n`` and a lone ``\r`` into ``\n``, so every
    line read from the file ends at a ``\n`` of the whole text. A decode
    error names its position in the whole file, as reading the file at once
    does.
    """
    lineno, found = 0, False
    try:
        with open(path) as file:
            for raw in file:
                for line in raw.splitlines():
                    lineno += 1
                    if s := line.strip():
                        found = True
                        yield lineno, s
    except UnicodeDecodeError as exc:
        try:  # the error counts from the decoder's last read: decode the whole file once more
            Path(path).read_text()
        except UnicodeDecodeError as whole:
            exc = whole
        raise InputError(f"{path}: {exc}") from exc  # the path as given, as the commands name a file's contents
    except OSError as exc:
        raise InputError(f"{Path(path)}: {exc.strerror or exc}") from exc
    if not found:  # every line is blank once stripped
        raise InputError(f"{Path(path)}: file holds no {what}")


def _bad_row(lines, message: str) -> InputError:
    """InputError(message), once the rest of ``lines`` is read: a decode error anywhere in the file wins."""
    for _ in lines:
        pass
    return InputError(message)


def _matrix_rows(path):
    """The ``float()`` fields of each data line, all as wide as the first; raises InputError naming file and line."""
    lines = _data_lines(path, "data rows")
    path = Path(path)
    width = None
    for lineno, line in lines:
        try:
            row = [float(f) for f in line.split(",")]
        except ValueError as exc:
            raise _bad_row(lines, f"{path}:{lineno}: not a numeric row: {line!r}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:  # checked here: np.fromiter would broadcast a one-value row
            raise _bad_row(lines, f"{path}:{lineno}: expected {width} columns, found {len(row)}")
        yield row


def load_matrix(path) -> np.ndarray:
    """Parse a comma-separated numeric matrix; raises InputError naming file and line."""
    rows = _matrix_rows(path)
    first = next(rows)  # a file without data rows raises its InputError here
    return np.fromiter(chain([first], rows), dtype=np.dtype((np.float64, (len(first),))))


def _labels(path):
    """The ``int()`` of each data line, each in int64; raises InputError naming file and line."""
    lines = _data_lines(path, "labels")
    path = Path(path)
    for lineno, line in lines:
        try:
            label = int(line)
        except ValueError as exc:
            raise _bad_row(lines, f"{path}:{lineno}: not an integer label: {line!r}") from exc
        if label not in _INT64:
            raise _bad_row(lines, f"{path}:{lineno}: label outside int64: {line!r}")
        yield label


def load_labels(path) -> np.ndarray:
    """Parse one int64 class id per line; raises InputError naming file and line."""
    return np.fromiter(_labels(path), dtype=np.int64)


def _from_file(path, make, *args):
    """``make(*args)``, its ``ValueError`` turned into an ``InputError`` naming ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_matrix(path, matrix: np.ndarray) -> None:
    """Write a matrix as comma-separated rows with round-trip-exact precision."""
    with open(path, "w") as file:  # savetxt would compress to a path ending in .gz, .bz2 or .xz
        np.savetxt(file, np.atleast_2d(np.asarray(matrix, dtype=float)), fmt="%.17g", delimiter=",")


def content_hash(matrix: np.ndarray) -> str:
    """SHA-256 of the canonical float64 row-major bytes; format-independent.

    The hash reads the contiguous array's buffer, so an array that is
    already C-ordered float64 is not copied.
    """
    canonical = np.ascontiguousarray(matrix, dtype=float)
    return hashlib.sha256(canonical).hexdigest()
