"""Text embedding file format shared by word and stock embeddings.

First line: ``<count> <dim>``. Then one line per entry:
``<label> <v1> ... <vd>`` with float64 values printed via ``repr`` so the
decimal text round-trips losslessly.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def write_embeddings(path, labels, matrix) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(labels) != matrix.shape[0]:
        raise DataError(f"write_embeddings: {len(labels)} labels vs matrix {matrix.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.shape[0]} {matrix.shape[1]}\n")
        for label, row in zip(labels, matrix):
            fh.write(label + " " + " ".join(repr(float(v)) for v in row) + "\n")


def _header(fh, path) -> tuple[int, int]:
    """``(count, dim)`` from the first line, both >= 1 (no writer stores an
    empty set)."""
    fields = fh.readline().split()
    try:
        n, dim = map(int, fields)
    except ValueError:
        n = dim = -1
    if n < 1 or dim < 1:
        raise DataError(f"{path} line 1: header {' '.join(fields)!r} is not "
                        f"'<count> <dim>'")
    return n, dim


def embedding_dim(path) -> int:
    """The vector width declared by the header of an embedding file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _header(fh, path)[1]
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def read_embeddings(path):
    """Returns (labels, matrix). A malformed file is a DataError naming the line."""
    labels, rows = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            n, dim = _header(fh, path)
            for line in range(2, n + 2):
                parts = fh.readline().rstrip("\n").split(" ")
                if len(parts) != dim + 1:
                    raise DataError(f"{path} line {line}: {len(parts) - 1} values, "
                                    f"expected {dim}")
                try:
                    rows.append([float(v) for v in parts[1:]])
                except ValueError as exc:
                    raise DataError(f"{path} line {line}: {exc}") from None
                labels.append(parts[0])
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    return labels, np.array(rows, dtype=np.float64).reshape(n, dim)
