"""Deterministic artifact IO: canonical JSON, CSV tables, atomic writes.

Every float is serialized with shortest round-trip decimal form (``repr``),
so reading an artifact back reproduces the exact bits; writes land in a
temporary file first and are renamed into place, so failed commands leave
no partial artifacts behind; a table too long to hold as text is appended
to its temporary file in row blocks (``atomic_files`` and ``csv_rows``).
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError

__all__ = ["canonical_json", "write_json", "csv_rows", "write_csv",
           "read_csv", "atomic_files", "atomic_write_text"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()  # Python scalars only
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj):
    """Canonical text form: sorted keys, fixed separators, trailing newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


@contextmanager
def atomic_files(paths):
    """Text files opened for writing, one per path, that land at their
    paths when the block exits: each is written to a temporary file in its
    directory and renamed into place at the end.  When the block raises,
    every temporary file is removed and no path is touched."""
    paths = [os.fspath(p) for p in paths]
    tmps, files = [], []
    try:
        for path in paths:
            directory = os.path.dirname(path) or "."
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                                       text=True)
            tmps.append(tmp)
            files.append(os.fdopen(fd, "w", encoding="utf-8", newline="\n"))
        yield files
        for fh in files:
            fh.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in files:
            fh.close()
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    with atomic_files([path]) as (fh,):
        fh.write(text)


def write_json(path, obj):
    atomic_write_text(path, canonical_json(obj))


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def _column_text(column):
    """Cell texts of one column: ``repr`` of every float (shortest
    round-trip form), ``str`` of anything else, the empty string for None.
    A numeric ndarray is formatted with one ``map`` over its ``tolist()``."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        return map(repr if column.dtype.kind == "f" else str,
                   column.tolist())
    return map(_fmt, column)


def csv_rows(columns):
    """The rows of a CSV table given column by column, one sequence per
    column, as text; a column shorter than the longest ends in empty
    cells.  Cells and separators are interleaved in one list, each
    column's texts set by one slice assignment, and the rows are joined
    once."""
    columns = list(columns)
    rows = max(map(len, columns), default=0)
    width = 2 * len(columns)
    cells = [""] * (rows * width)
    cells[1::2] = [","] * (rows * len(columns))
    if width:
        cells[width - 1::width] = ["\n"] * rows
    for j, column in enumerate(columns):
        cells[2 * j:width * len(column):width] = _column_text(column)
    return "".join(cells)


def write_csv(path, header, columns):
    """Write a CSV table given column by column, one sequence per header
    name, through :func:`csv_rows`."""
    atomic_write_text(path, ",".join(header) + "\n" + csv_rows(columns))


def read_csv(path):
    """Read a CSV written by :func:`write_csv`; returns (header, rows of
    floats with empty cells as NaN).  An empty file, a non-numeric cell or
    a row of another width raises ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise ConfigError(f"malformed CSV {path}: the file is empty")
    header = lines[0].split(",")
    try:  # a non-numeric cell, or rows of two widths
        rows = np.asarray([[float(tok) if tok else np.nan
                            for tok in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise ConfigError(f"malformed CSV {path}: {exc}") from exc
    if rows.size and rows.shape[1] != len(header):
        raise ConfigError(f"malformed CSV {path}: {rows.shape[1]} cells per "
                          f"row, {len(header)} in the header")
    return header, rows
