"""The CSV format: the streaming reader against the whole-file reader it
replaced, bit-exact round trips, and bounded memory."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvfourier.errors import DataFormatError
from nvfourier.serialize import read_csv, write_csv


def read_csv_oracle(path, columns) -> np.ndarray:
    """The whole-file reader that ``read_csv`` replaced, kept verbatim: the
    reference for its arrays and its error messages."""
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


def outcome(reader, path, columns):
    """("array", dtype, shape, bytes) of what ``reader`` returns, or ("error", message)."""
    try:
        data = reader(path, columns)
    except DataFormatError as exc:
        return "error", str(exc)
    return "array", data.dtype, data.shape, data.tobytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


CELL_TOKENS = [*"0123456789.-e", "nan", "inf", "x", " "]
number = st.floats().map(repr)  # nan and inf among them
junk = st.lists(st.sampled_from(CELL_TOKENS), max_size=6).map("".join)
cell = st.one_of(number, number.map(" {} ".format), junk)
line_end = st.sampled_from(["\n", "\r", "\r\n", "\n\n", " \n", ""])
blank = st.lists(st.sampled_from([" ", "\n", "\r"]), max_size=3).map("".join)


@st.composite
def tables(draw):
    """A header naming the columns, then rows of cells, most as many as the
    header's names, between blank lines."""
    header = draw(st.sampled_from(["a", "a,b", " b , a ", "a,b,c"]))
    width = st.just(header.count(",") + 1) | st.integers(1, 4)
    row = width.flatmap(lambda n: st.lists(cell, min_size=n, max_size=n)).map(",".join)
    rows = draw(st.lists(st.tuples(row, line_end).map("".join), max_size=6))
    return draw(blank) + header + draw(line_end) + "".join(rows) + draw(blank)


# free text over the same tokens, or a table
table = st.lists(st.sampled_from([*CELL_TOKENS, ",", "\n", "\r"]), max_size=40).map("".join) | tables()


class TestReadCsv:
    @settings(max_examples=300, deadline=None)
    @given(text=table, columns=st.sampled_from([["a"], ["b", "a"]]))
    def test_matches_whole_file_reader(self, scratch, text, columns):
        """Same array bytes, or DataFormatError with the same message."""
        path = scratch / "table.csv"
        path.write_text(text, newline="")  # keep every \r as written
        assert outcome(read_csv, path, columns) == outcome(read_csv_oracle, path, columns)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a,b\n1,2\n\n3,4\n", "row 3: 1 fields where the header has 2"),
            ("a,b\n1,2\n3,x\n", "row 3: could not convert string to float: 'x'"),
            ("a,b\n1,nan\n3\n", "row 3: 1 fields where the header has 2"),
            ("a,b\n1,2\n3,-inf\n", "row 3: b is -inf, not finite"),
            ("a,b\n1, \n\n", "row 2: could not convert string to float: ''"),
            ("\n a,b \n\n", "row 2: no data rows"),
            ("b\n1\n", "missing columns ['a']"),
        ],
    )
    def test_first_fault_in_file_order(self, scratch, text, message):
        path = scratch / "fault.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError) as caught:
            read_csv(path, ["a", "b"])
        assert str(caught.value) == f"{path}: {message}"
        assert str(caught.value) == outcome(read_csv_oracle, path, ["a", "b"])[1]

    def test_surrounding_blank_lines_ignored(self, scratch):
        path = scratch / "padded.csv"
        path.write_text("\n\r\n  a , b\n1,2\r\n3,4  \n \n\n")
        np.testing.assert_array_equal(read_csv(path, ["b", "a"]), [[2.0, 1.0], [4.0, 3.0]])


SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


class TestWriteCsv:
    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(1, 3000),
        n_columns=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_bit_exact(self, scratch, n_rows, n_columns, seed):
        """Random bit patterns, every finite double's kind among them, read back bit for bit."""
        rng = np.random.default_rng(seed)
        table = rng.integers(0, 2**64, (n_rows, n_columns), dtype=np.uint64).view(float)
        table[~np.isfinite(table)] = 1.0
        table.flat[rng.integers(0, table.size, len(SPECIALS))] = SPECIALS
        names = [f"c{j}" for j in range(n_columns)]
        path = scratch / "round_trip.csv"
        write_csv(path, names, *table.T)
        assert read_csv(path, names).tobytes() == table.tobytes()

    def test_lf_lines_of_float_reprs(self, scratch):
        path = scratch / "lf.csv"
        write_csv(path, ["a", "b"], [1.0, -0.0], np.array([1e308, 5e-324]))
        assert path.read_bytes() == b"a,b\n1.0,1e+308\n-0.0,5e-324\n"

    def test_unequal_lengths_leave_no_file(self, scratch):
        path = scratch / "unequal.csv"
        with pytest.raises(ValueError, match="unequal lengths"):
            write_csv(path, ["a", "b"], [1.0, 2.0], [1.0])
        assert not path.exists()


def test_memory_bounded_by_the_arrays(scratch):
    """15 000 x 5: writing holds less than half the file, reading less than
    twice the result besides the result itself."""
    rng = np.random.default_rng(7)
    columns = rng.normal(size=(5, 15_000)) * 10.0 ** rng.integers(-5, 5, (5, 15_000))
    names = list("abcde")
    path = scratch / "big.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        write_csv(path, names, *columns)
        write_peak = tracemalloc.get_traced_memory()[1] - before
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data = read_csv(path, names)
        read_peak = tracemalloc.get_traced_memory()[1] - before - data.nbytes
    finally:
        tracemalloc.stop()
    assert write_peak < path.stat().st_size / 2
    assert read_peak < 2 * data.nbytes
    assert data.tobytes() == columns.T.tobytes()
