"""Plain-JSON form of the package's dataclasses, and the JSON and CSV file formats.

``to_plain`` is ``dataclasses.asdict`` with ndarrays and tuples turned into
lists and numpy scalars into Python numbers, so the result compares equal
to what ``json.loads`` reads back; it reads each dataclass type's field
names once, not on every value.  Every JSON file the package writes goes
through ``write_json``: a plain document, two-space indent, sorted keys and a
trailing newline.  Every CSV table goes through ``write_csv`` and
``read_csv``: UTF-8 text, a header line of column names, then one line of
numbers per sample, each the ``repr`` of a Python float so that it reads
back bit for bit, with LF line endings on every platform.  Both stream the
table ``_BLOCK_ROWS`` rows at a time, so beyond the arrays themselves their
memory does not grow with the number of rows.  The writer is at the floor
of ``repr`` itself, which takes nearly all of its time.  The reader parses
each block with numpy's C reader, which converts a cell as ``float`` does,
and reads rows one at a time only where numpy refuses a block: to name the
fault, or to read a cell ``float`` takes and numpy does not.
``write_json`` and ``write_csv`` create the missing parent directories of
the file they write, so an output directory appears with its first file.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from functools import cache
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import DataFormatError

_BLOCK_ROWS = 1024  # rows that write_csv formats per write and read_csv parses at once
_SCALARS = (float, int, bool, str, type(None))  # to_plain returns these as they are


@cache
def _field_names(cls: type) -> tuple[str, ...] | None:
    """The field names of dataclass type ``cls``, or None for any other type."""
    return tuple(f.name for f in fields(cls)) if is_dataclass(cls) else None


def to_plain(obj):
    """Nested dicts, lists and Python scalars holding the same values as ``obj``."""
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    names = _field_names(cls)
    if names is not None:
        return {name: to_plain(getattr(obj, name)) for name in names}
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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            cols = [map(repr, a[start:start + _BLOCK_ROWS].tolist()) for a in arrays]
            f.write("\n".join(map(",".join, zip(*cols))) + "\n")


def read_csv(path, columns) -> np.ndarray:
    """The named columns of a CSV table as an (n, len(columns)) float array.

    The table is the file's text stripped of leading and trailing whitespace
    and cut into lines where ``str.splitlines`` cuts.  Columns are picked by
    name from its first line, the header, whose names are stripped.  A
    missing column, a row with a different number of fields from the header,
    a cell that ``float`` does not read as a finite number, a table with no
    data rows, or a file that is not UTF-8 raises DataFormatError; a row's
    fault names its line, counted from the header as row 1, as ``row N``.
    """
    try:
        with open(path, encoding="utf-8") as f:
            lines = chain.from_iterable(_lines(f))
            first = next((line for line in lines if line.strip()), None)
            header = [name.strip() for name in first.split(",")] if first else []
            missing = [name for name in columns if name not in header]
            if missing:
                raise DataFormatError(f"{path}: missing columns {missing}")
            blocks = [
                _parse(path, 2 + i * _BLOCK_ROWS, block, len(header))
                for i, block in enumerate(iter(lambda: list(islice(lines, _BLOCK_ROWS)), []))
            ]
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8: {exc.reason}") from exc
    if not blocks:
        raise DataFormatError(f"{path}: row 2: no data rows")
    data = np.concatenate(blocks)
    del blocks  # one copy of the table beside the picked columns, not two
    finite = np.isfinite(data)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise DataFormatError(
            f"{path}: row {row + 2}: {header[col]} is {float(data[row, col])}, not finite"
        )
    return data[:, [header.index(name) for name in columns]]


def _lines(f):
    """The lines of the open text file ``f`` without their line ends, a list
    per read, cut as ``str.splitlines`` cuts the file stripped of trailing
    whitespace.  The last line of a read and the whitespace after it are
    carried into the next read, which is at least as long, so the file's
    blank end is dropped and its last row loses its trailing whitespace."""
    tail = ""
    while chunk := f.read(max(_BLOCK_ROWS * 16, len(tail))):
        text = tail + chunk
        body = text.rstrip()
        lines = body.splitlines()
        tail = lines.pop() + text[len(body):] if lines else text
        yield lines
    yield tail.rstrip().splitlines()


def _parse(path, number, block, width):
    """The lines in ``block``, rows ``number`` on, as a (len(block), width)
    float array, parsed by numpy's C reader, which converts a cell as
    ``float`` does.  Where numpy refuses the block, gives another shape (it
    skips empty lines) or would strip ``\\x1f`` as whitespace, ``float``
    reads the rows one at a time, which also reads cells numpy refuses, such
    as ``1_0``, and raises DataFormatError for the first fault."""
    text = "".join(block)
    if text and "\x1f" not in text:  # numpy warns on a block of empty lines
        try:
            values = np.loadtxt(block, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            pass
        else:
            if values.shape == (len(block), width):
                return values
    rows = []
    for number, line in enumerate(block, start=number):
        cells = line.split(",")
        if len(cells) != width:
            raise DataFormatError(
                f"{path}: row {number}: {len(cells)} fields where the header has {width}"
            )
        try:
            rows.append(list(map(float, cells)))
        except ValueError as exc:
            raise DataFormatError(f"{path}: row {number}: {exc}") from exc
    return np.array(rows)
