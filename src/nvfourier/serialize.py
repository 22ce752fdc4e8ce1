"""Plain-JSON form of the package's dataclasses, and the JSON and CSV file formats.

``to_plain`` is ``dataclasses.asdict`` with ndarrays and tuples turned into
lists and numpy scalars into Python numbers, so the result compares equal
to what ``json.loads`` reads back.  Every JSON file the package writes goes
through ``write_json``: a plain document, two-space indent, sorted keys and a
trailing newline.  Every CSV table goes through ``write_csv`` and
``read_csv``: a header line of column names, then one line of numbers per
sample, each the ``repr`` of a Python float so that it reads back bit for
bit, with LF line endings.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DataFormatError


def to_plain(obj):
    """Nested dicts, lists and Python scalars holding the same values as ``obj``."""
    if is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: to_plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, *columns) -> None:
    """Write equal-length numeric columns under a header of column names."""
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns), strict=True)
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path, columns) -> np.ndarray:
    """The named columns of a CSV table as an (n, len(columns)) float array.

    Columns are picked by name from the header, whose names are stripped.
    A missing column, a row with a different number of fields from the
    header, a cell that is not a finite number, or a table with no data rows
    raises DataFormatError; a row's fault names its file line as ``row N``.
    """
    lines = Path(path).read_text().strip().splitlines()
    header = [name.strip() for name in lines[0].split(",")] if lines else []
    missing = [name for name in columns if name not in header]
    if missing:
        raise DataFormatError(f"{path}: missing columns {missing}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataFormatError(
                f"{path}: row {number}: {len(cells)} fields where the header has {len(header)}"
            )
        try:
            rows.append(list(map(float, cells)))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {number}: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: row 2: no data rows")
    data = np.array(rows)
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: row {row + 2}: {header[col]} is {float(data[row, col])}, not finite"
        )
    return data[:, [header.index(name) for name in columns]]
