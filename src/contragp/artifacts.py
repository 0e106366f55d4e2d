"""Deterministic artifact IO: canonical JSON, CSV tables, atomic writes.

Every float is serialized with shortest round-trip decimal form (``repr``),
so reading an artifact back reproduces the exact bits; writes land in a
temporary file first and are renamed into place, so failed commands leave
no partial artifacts behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import zip_longest

import numpy as np

from .errors import ConfigError

__all__ = ["canonical_json", "write_json", "write_csv", "read_csv",
           "atomic_write_text"]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
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


def atomic_write_text(path, text):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def write_csv(path, header, columns):
    """Write a CSV table given column by column, one sequence per header
    name; a column shorter than the longest ends in empty cells."""
    rows = zip_longest(*map(_column_text, columns), fillvalue="")
    atomic_write_text(path, "\n".join([",".join(header),
                                       *map(",".join, rows)]) + "\n")


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
