"""Plain-JSON form of the package's dataclasses, and the JSON and CSV file formats.

``to_plain`` is ``dataclasses.asdict`` with ndarrays and tuples turned into
lists and numpy scalars into Python numbers, so the result compares equal
to what ``json.loads`` reads back.  Every JSON file the package writes goes
through ``write_json``: a plain document, two-space indent, sorted keys and a
trailing newline.  Every CSV table goes through ``write_csv`` and
``read_csv``: a header line of column names, then one line of numbers per
sample, each the ``repr`` of a Python float so that it reads back bit for
bit, with LF line endings on every platform.  Both stream the table
``_BLOCK_ROWS`` rows at a time, so beyond the arrays themselves their memory
does not grow with the number of rows.  ``write_json`` and ``write_csv``
create the missing parent directories of the file they write, so an output
directory appears with its first file.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_BLOCK_ROWS = 1024  # rows that write_csv formats per write and read_csv parses at once


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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, *columns) -> None:
    """Write equal-length numeric columns under a header of column names.

    Unequal lengths raise ValueError before the file is opened.
    """
    arrays = [np.asarray(column, dtype=float) for column in columns]
    lengths = [len(a) for a in arrays]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal lengths {lengths}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            cols = [map(repr, a[start:start + _BLOCK_ROWS].tolist()) for a in arrays]
            f.write("\n".join(map(",".join, zip(*cols))) + "\n")


def read_csv(path, columns) -> np.ndarray:
    """The named columns of a CSV table as an (n, len(columns)) float array.

    Columns are picked by name from the first line that is not blank, the
    header, whose names are stripped.  A missing column, a row with a
    different number of fields from the header, a cell that is not a finite
    number, or a table with no data rows raises DataFormatError; a row's
    fault names its line, counted from the header as row 1, as ``row N``.
    """
    with open(path) as lines:
        first = next((line for line in lines if not line.isspace()), None)
        header = [name.strip() for name in first.split(",")] if first else []
        missing = [name for name in columns if name not in header]
        if missing:
            raise DataFormatError(f"{path}: missing columns {missing}")
        data = np.fromiter(chain.from_iterable(_cells(path, lines, len(header))), dtype=float)
    if not data.size:
        raise DataFormatError(f"{path}: row 2: no data rows")
    data = data.reshape(-1, len(header))
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: row {row + 2}: {header[col]} is {float(data[row, col])}, not finite"
        )
    return data[:, [header.index(name) for name in columns]]


def _cells(path, lines, width):
    """The cells of the data rows as floats, in file order, one list per
    block of up to ``_BLOCK_ROWS`` rows.

    ``lines`` is the open table after its header line.  A block whose every
    row has ``width`` fields is parsed in one pass, as if it were one row;
    a block with a row of other than ``width`` fields, or a cell that is not
    a number, is read again row by row to raise DataFormatError for its
    first fault.
    """
    rows = _rows(lines)
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        texts = [text for _, text in block]
        values = None
        if set(map(str.count, texts, repeat(","))) == {width - 1}:
            try:
                values = list(map(float, ",".join(texts).split(",")))
            except ValueError:
                pass
        if values is None:
            _raise_first_fault(path, block, width)
        yield values


def _raise_first_fault(path, block, width):
    """Raise DataFormatError for the first of the (row number, text) rows
    in ``block`` with other than ``width`` fields or a cell that is not a
    number, naming its row."""
    for number, text in block:
        cells = text.split(",")
        if len(cells) != width:
            raise DataFormatError(
                f"{path}: row {number}: {len(cells)} fields where the header has {width}"
            )
        try:
            list(map(float, cells))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {number}: {exc}") from exc


def _rows(lines):
    """(row number, text) of each line after the header, the header being
    row 1, cut as if the whole file had been stripped of leading and
    trailing whitespace: the blank lines at the end are dropped and the last
    row loses its trailing whitespace.

    A row is held back until the next line that is not blank shows it is not
    the last.  Of a run of blank lines inside the table only the first is
    passed on: as a row it always has a fault.
    """
    held = blank = None
    for number, line in enumerate(lines, start=2):
        if line.isspace():
            blank = blank or (number, line.rstrip("\n"))
            continue
        if held:
            yield held
        if blank:
            yield blank
        held, blank = (number, line.rstrip("\n")), None
    if held:
        yield held[0], held[1].rstrip()
