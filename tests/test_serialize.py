"""The plain-JSON form of the dataclasses against the per-value reflection
it replaced, and the CSV format: the streaming reader against the
whole-file reader it replaced, bit-exact round trips, and bounded memory."""

import tracemalloc
from dataclasses import fields, is_dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nvfourier as nf
from nvfourier import serialize
from nvfourier.config import load_config
from nvfourier.errors import DataFormatError
from nvfourier.field_model import load_calibration_csv
from nvfourier.serialize import read_csv, to_plain, write_csv

from helpers import REF_GRADIENT_PER_MA, reference_nv, reference_plan

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default_run.yaml"


def to_plain_oracle(obj):
    """The ``to_plain`` that read ``dataclasses.fields`` on every value, kept
    verbatim: the reference for the documents built from the dataclasses."""
    if is_dataclass(obj):
        return {f.name: to_plain_oracle(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: to_plain_oracle(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain_oracle(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj


def drifting_plan():
    drift = nf.DriftModel(
        linear_rate_nm_per_hour=0.004, random_walk_sigma_nm_per_sqrt_hour=0.01,
        temperature_coupling_nm_per_k=0.2,
    )
    noise = nf.CurrentNoiseModel(relative_amplitude=0.01, modulation_frequency_cycles=3.0, white_sigma=0.001)
    return reference_plan(drift=drift, current_noise=noise, shot_noise=True, shots_per_point=1000)


@pytest.fixture(scope="module")
def serialized():
    """One of each dataclass the package writes to JSON, from real runs."""
    cfg = load_config(DEFAULT_CONFIG)
    _, wire_report = nf.calibrate_wire(load_calibration_csv(cfg.calibration_csv), cfg.wire, cfg.nv_axis)
    nv = cfg.nv
    sensitivity = nf.full_sensitivity_report(
        nv.contrast_alpha, nv.yield_beta, cfg.sigma_s, cfg.plan.sequence.total_time_us, cfg.plan.shots_per_point
    )
    record = nf.run_sweep(drifting_plan(), reference_nv(), gradient_per_ma=REF_GRADIENT_PER_MA)
    peak = nf.fit_lorentzian(nf.fourier_reconstruct(record, zero_pad_factor=4))
    return {
        "plan": drifting_plan(), "nv": reference_nv(), "wire_report": wire_report,
        "sensitivity": sensitivity, "peak": peak, "cosine": nf.fit_cosine(record),
    }


class TestToPlain:
    @pytest.mark.parametrize("name", ["plan", "nv", "wire_report", "sensitivity", "peak", "cosine"])
    def test_matches_per_value_reflection(self, serialized, name):
        obj = serialized[name]
        # repr tells numpy scalars from Python numbers and shows NaN, which == does not
        assert repr(to_plain(obj)) == repr(to_plain_oracle(obj))

    @pytest.mark.parametrize("name", ["peak", "cosine"])
    def test_class_variable_model_left_out(self, serialized, name):
        obj = serialized[name]
        assert obj.model in ("lorentzian", "cosine")
        assert "model" not in to_plain(obj)

    def test_run_sweep_sidecar_matches_reflection_reference(self):
        plan, nv = drifting_plan(), reference_nv()
        metadata = nf.run_sweep(plan, nv, gradient_per_ma=REF_GRADIENT_PER_MA).metadata
        expected = {f.name: to_plain_oracle(getattr(plan, f.name)) for f in fields(plan)}
        expected["waveform"] = expected.pop("waveform_template")
        expected["nv"] = to_plain_oracle(nv)
        del expected["nv"]["position_um"]
        derived = ["tau_us", "gradient_per_ma_g_per_um", "waveform_efficiency", "delta_k_per_nm", "k_max_per_nm"]
        assert list(metadata) == [*expected, *derived]
        for key, value in expected.items():
            assert repr(metadata[key]) == repr(value), key
        assert all(type(metadata[key]) is float for key in derived)


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


def assert_matches_oracle(path, text, columns):
    """Same array bytes as the whole-file reader, or DataFormatError with the same message."""
    path.write_text(text, newline="")  # keep every \r as written
    assert outcome(read_csv, path, columns) == outcome(read_csv_oracle, path, columns)


# two rows a block, so faults, inner blank lines and trailing blank lines
# fall in later blocks, and 32 characters a read, so reads end mid-line
two_row_blocks = mock.patch.object(serialize, "_BLOCK_ROWS", 2)

# cells that float() and numpy's C reader might read apart: float() reads
# 1_0 and ٣ and numpy does not; numpy strips \x1f as whitespace and float()
# does not; \x0c, \x1c, \x85 and \u2028 end a line for str.splitlines
EDGE_CELLS = [
    "1_0", "٣", "0x10", "infinity", "+nan", "\x0c1", "1e999",
    "1\x1f", "\x1f1", "\x1c1", "1\x85", "\u20281",
]

decimal = st.builds(
    "{}{}.{}e{}".format,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=20),
    st.text("0123456789", max_size=20),
    st.integers(-330, 330),
)


class TestReadCsv:
    @settings(max_examples=300, deadline=None)
    @given(text=table, columns=st.sampled_from([["a"], ["b", "a"]]))
    def test_matches_whole_file_reader(self, scratch, text, columns):
        """Same array bytes, or DataFormatError with the same message."""
        assert_matches_oracle(scratch / "table.csv", text, columns)

    @settings(max_examples=300, deadline=None)
    @given(text=table, columns=st.sampled_from([["a"], ["b", "a"]]))
    def test_matches_whole_file_reader_across_blocks(self, scratch, text, columns):
        with two_row_blocks:
            assert_matches_oracle(scratch / "table.csv", text, columns)

    @pytest.mark.parametrize("block_rows", [serialize._BLOCK_ROWS, 2])
    @pytest.mark.parametrize("cell", EDGE_CELLS)
    def test_edge_cell_matches_whole_file_reader(self, scratch, cell, block_rows):
        with mock.patch.object(serialize, "_BLOCK_ROWS", block_rows):
            for text in [f"a,b\n3,4\n5,6\n{cell},2\n7,8\n", f"a,b\n{cell},2\n", f"a\n{cell}\n"]:
                assert_matches_oracle(scratch / "edge.csv", text, ["a"])

    @settings(max_examples=100, deadline=None)
    @given(cells=st.lists(decimal, min_size=1, max_size=40))
    def test_decimal_strings_read_as_float_reads_them(self, scratch, cells):
        """Up to 40 digits and exponents to +-330: the same doubles as float(), bit for bit."""
        cells = [cell for cell in cells if np.isfinite(float(cell))]
        assume(cells)
        path = scratch / "decimals.csv"
        path.write_text("a\n" + "\n".join(cells) + "\n")
        with two_row_blocks:
            assert read_csv(path, ["a"]).tobytes() == np.array([[float(c)] for c in cells]).tobytes()
        assert read_csv(path, ["a"]).tobytes() == np.array([[float(c)] for c in cells]).tobytes()

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
