"""Round-trip and error-location tests for the file formats.

The loader contract (error line and column, blank lines, empty files,
quoting, line endings) is pinned case by case, and the loaders are
compared bit for bit with ``oracle_load_forecasts`` /
``oracle_load_series``, test-only copies of the original cell-by-cell
parsers.
"""

import csv
import gc
import json
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import forecast_columns, forecast_table, table_dict

from adapts.config import RollingConfig
from adapts.errors import InsufficientData, InvalidConfig, IoError, ParseError
from adapts.harness import NaiveSeasonalBase, run
from adapts.io import (
    ForecastTable,
    Series,
    build_rolling_config,
    load_forecasts,
    load_run_config,
    load_series,
    parse_config_value,
    read_report_json,
    write_forecasts,
    write_json,
    write_report,
    write_series,
)


class TestSeriesFiles:
    def test_small_file_loads_bit_exact(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1.5,2.25\n-3.0,0.125\n7,8\n")
        s = load_series(p)
        assert s.channel_names == ["a", "b"]
        np.testing.assert_array_equal(
            s.values, [[1.5, 2.25], [-3.0, 0.125], [7.0, 8.0]])
        assert s.timestamps is None

    def test_timestamp_column_is_carried_not_parsed(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("timestamp,x\n2021-01-01,1.0\n2021-01-02,2.0\n")
        s = load_series(p)
        assert s.channel_names == ["x"]
        assert s.timestamps == ["2021-01-01", "2021-01-02"]

    def test_header_only_is_insufficient(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n")
        with pytest.raises(InsufficientData):
            load_series(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError) as err:
            load_series(p)
        assert err.value.line == 3

    def test_non_numeric_cell_reports_line_and_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(ParseError) as err:
            load_series(p)
        assert err.value.line == 3
        assert err.value.column == 2

    def test_duplicate_channel_names_rejected(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("a,a\n1,2\n")
        with pytest.raises(ParseError):
            load_series(p)

    def test_write_then_load_round_trips_doubles(self, tmp_path):
        rng = np.random.default_rng(0)
        values = np.concatenate([
            rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-12, 12, size=(40, 3)),
            [[0.1 + 0.2, 1e-300, -1e300]],
        ])
        s = Series(values=values, channel_names=["a", "b", "c"])
        p = tmp_path / "s.csv"
        write_series(s, p)
        back = load_series(p)
        np.testing.assert_array_equal(back.values, values)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_series(tmp_path / "absent.csv")


class TestForecastFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [(t, name, rng.normal(size=4))
                for t in (10, 11) for name in ("a", "b")]
        p = tmp_path / "f.csv"
        write_forecasts(*forecast_columns(rows, 4), p)
        table, horizon = load_rows(p)
        assert horizon == 4
        assert set(table) == {(10, "a"), (10, "b"), (11, "a"), (11, "b")}
        for t, name, vec in rows:
            np.testing.assert_array_equal(table[(t, name)], vec)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("t,channel,h1\n1,a,0.5\n1,a,0.6\n")
        with pytest.raises(ParseError) as err:
            load_forecasts(p)
        assert err.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("t,channel,h1,h3\n")
        with pytest.raises(ParseError):
            load_forecasts(p)

    def test_wrong_length_forecast_rejected_on_write(self, tmp_path):
        for t, channel, block in [
            ([0, 1], ["a", "a"], np.zeros((1, 4))),   # fewer rows than steps
            ([0], ["a", "b"], np.zeros((1, 4))),      # more names than rows
            ([0], ["a"], np.zeros(4)),                # not a block of rows
            ([0], ["a"], np.zeros((1, 0))),           # no horizon
            ([0.5], ["a"], np.zeros((1, 4))),         # not an integer step
        ]:
            for path in (tmp_path / "f.csv", tmp_path / "f.npz"):
                with pytest.raises(InvalidConfig, match="forecast rows need"):
                    write_forecasts(t, channel, block, path)
                assert not path.exists()


def write_bytes(tmp_path, text, name="f.csv"):
    """Write ``text`` exactly as given (no newline translation)."""
    p = tmp_path / name
    p.write_bytes(text.encode())
    return p


def load_rows(path):
    """A forecast file's rows as a ``{(t, name): row}`` dict, and its horizon."""
    table, horizon = load_forecasts(path)
    return table_dict(table), horizon


def bits(array):
    """Bit patterns of a float64 array, so -0.0 and NaN payloads compare."""
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


# -- test-only copies of the original cell-by-cell parsers --------------------

def oracle_load_forecasts(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError("file is empty, header row required", line=1)
    header = [h.strip() for h in rows[0]]
    if len(header) < 3 or header[0] != "t" or header[1] != "channel":
        raise ParseError("header must read t,channel,h1,...,hH", line=1)
    horizon = len(header) - 2
    table = {}
    for i, row in enumerate(rows[1:]):
        line_no = i + 2
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} cells, found {len(row)}",
                             line=line_no)
        try:
            t = int(row[0])
        except ValueError:
            raise ParseError(f"time step {row[0]!r} is not an integer",
                             line=line_no, column=1) from None
        key = (t, row[1])
        if key in table:
            raise ParseError("duplicate forecast", line=line_no)
        vec = np.empty(horizon)
        for j, cell in enumerate(row[2:]):
            try:
                vec[j] = float(cell)
            except ValueError:
                raise ParseError(f"cell {cell!r} is not a number",
                                 line=line_no, column=j + 3) from None
        table[key] = vec
    return table, horizon


def oracle_load_series(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = [h.strip() for h in rows[0]]
    has_timestamp = bool(header) and header[0].lower() == "timestamp"
    names = header[1:] if has_timestamp else header
    data_rows = rows[1:]
    values = np.empty((len(data_rows), len(names)))
    timestamps = [] if has_timestamp else None
    for i, row in enumerate(data_rows):
        if len(row) != len(header):
            raise ParseError("ragged row", line=i + 2)
        if has_timestamp:
            timestamps.append(row[0])
        for j, cell in enumerate(row[1:] if has_timestamp else row):
            values[i, j] = float(cell)
    return Series(values=values, channel_names=names, timestamps=timestamps)


def special_doubles(rng, n, finite=False):
    """Random normals across magnitudes plus signed zeros, subnormals,
    the largest finite values and, unless ``finite`` (forecast files hold
    only finite values), NaN and infinities."""
    specials = np.array([
        -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
        1e308, -1e308, 1.7976931348623157e308, np.nan, np.inf, -np.inf,
        0.1 + 0.2, 1.0 / 3.0])
    if finite:
        specials = specials[np.isfinite(specials)]
    draws = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    return np.concatenate([specials, draws])


class TestForecastLoaderContract:
    HEADER = "t,channel,h1,h2\n"

    @pytest.mark.parametrize("body, line, column", [
        ("1,a,0.5,0.25\n2,a,0.5\n", 3, None),              # short row
        ("1,a,0.5,0.25\n2,a,0.5,0.25,9\n", 3, None),       # long row
        ("1,a,0.5,0.25\n1.5,a,0.5,0.25\n", 3, 1),          # non-integer t
        ("1,a,0.5,0.25\nx,a,0.5,0.25\n", 3, 1),
        ("1,a,0.5,0.25\n,a,0.5,0.25\n", 3, 1),
        ("1,a,0.5,0.25\n2,a,0.5,oops\n", 3, 4),            # non-numeric cell
        ("1,a,0.5,0.25\n2,a,,0.25\n", 3, 3),
        ("1,a,0.5,0.25\n2,a,1e3x,0.25\n", 3, 3),
        ("1,a,0.5,0.25\n\n2,a,0.5,0.25\n", 3, None),      # blank line mid-file
        ("1,a,0.5,0.25\n2,a,0.5,0.25\n\n", 4, None),      # trailing blank line
        ("1,a,0.5,0.25\r\n\r\n2,a,0.5,0.25\r\n", 3, None),
        ("1,a,0.5,0.25\n \n", 3, None),                    # whitespace-only line
        ("\n1,a,0.5,0.25\n", 2, None),
        ("1,a,0.5,0.25\n1,a,0.5,0.25\n2,a,x,0\n", 3, None),  # first error wins
        ("1,a,0.5,0.25\n2,a,x,0\n1,a,0.5,0.25\n", 3, 3),
        ("1,a,0.5,0.25\n2,a,x,0\n\n", 3, 3),
        ('1,a,0.5,0.25\n2,"a,0.5,0.25\n', 3, None),       # unterminated quote
    ])
    def test_error_location(self, tmp_path, body, line, column):
        p = write_bytes(tmp_path, self.HEADER + body)
        with pytest.raises(ParseError) as err:
            load_forecasts(p)
        assert (err.value.line, err.value.column) == (line, column)

    def test_empty_file(self, tmp_path):
        p = write_bytes(tmp_path, "")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as err:
                load_forecasts(p)
        assert err.value.line == 1

    @pytest.mark.parametrize("text", ["t,channel,h1,h2\n", "t,channel,h1,h2"])
    def test_header_only_gives_empty_table(self, tmp_path, text):
        p = write_bytes(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table, horizon = load_rows(p)
        assert (table, horizon) == ({}, 2)

    @pytest.mark.parametrize("header", [
        "t,channel\n", "channel,t,h1\n", "t,channel,h2\n", "t,channel,h1,h1\n"])
    def test_bad_header_reports_line_1(self, tmp_path, header):
        p = write_bytes(tmp_path, header + "1,a,0.5,0.5\n")
        with pytest.raises(ParseError) as err:
            load_forecasts(p)
        assert err.value.line == 1

    def test_header_cells_are_stripped(self, tmp_path):
        p = write_bytes(tmp_path, " t , channel ,h1 \n3,a,0.5\n")
        table, horizon = load_rows(p)
        assert horizon == 1
        assert list(table) == [(3, "a")]

    def test_quoted_names_round_trip(self, tmp_path):
        names = ["a,b", 'say "hi"', '""', " padded ", "", "two\nlines",
                 "cr\r\nlf", "tab\tbed", "ünïcode"]
        rows = [(t, name, np.full(3, t + 0.5)) for t in (0, 1) for name in names]
        p = tmp_path / "f.csv"
        write_forecasts(*forecast_columns(rows, 3), p)
        table, horizon = load_rows(p)
        assert list(table) == [(t, name) for t, name, _ in rows]
        for t, name, vec in rows:
            np.testing.assert_array_equal(table[(t, name)], vec)

    def test_cell_whitespace_and_quotes(self, tmp_path):
        p = write_bytes(tmp_path, 't,channel,h1,h2\n 7 , a ," 1.5", "2"\n"8",b,+1,-.5\n')
        with pytest.raises(ParseError):
            load_forecasts(p)  # ' "2"' is not a number: a quote only opens a cell
        p = write_bytes(tmp_path, 't,channel,h1,h2\n 7 , a , 1.5 ,"2"\n"8",b,+1,-.5\n')
        table, _ = load_rows(p)
        assert list(table) == [(7, " a "), (8, "b")]
        np.testing.assert_array_equal(table[(7, " a ")], [1.5, 2.0])
        np.testing.assert_array_equal(table[(8, "b")], [1.0, -0.5])

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings(self, tmp_path, newline):
        text = "t,channel,h1,h2\n1,a,0.5,0.25\n2,a,-1,3e-5\n".replace("\n", newline)
        table, horizon = load_rows(write_bytes(tmp_path, text))
        assert horizon == 2
        assert list(table) == [(1, "a"), (2, "a")]
        np.testing.assert_array_equal(table[(2, "a")], [-1.0, 3e-5])

    def test_no_trailing_newline(self, tmp_path):
        table, _ = load_rows(write_bytes(tmp_path, "t,channel,h1\n1,a,0.5"))
        np.testing.assert_array_equal(table[(1, "a")], [0.5])

    def test_bit_exact_against_cell_by_cell_parser(self, tmp_path):
        rng = np.random.default_rng(7)
        values = special_doubles(rng, 190, finite=True).reshape(25, 8)
        rows = [(int(t), name, values[i])
                for i, (t, name) in enumerate(
                    (t, name) for t in rng.permutation(5) - 2 for name in "edcba")]
        p = tmp_path / "f.csv"
        write_forecasts(*forecast_columns(rows, 8), p)
        table, horizon = load_rows(p)
        want, want_horizon = oracle_load_forecasts(p)
        assert horizon == want_horizon == 8
        assert list(table) == list(want)
        for key, vec in want.items():
            assert table[key].shape == (8,)
            np.testing.assert_array_equal(bits(table[key]), bits(vec))


class TestSeriesLoaderContract:
    @pytest.mark.parametrize("text, line, column", [
        ("a,b\n1,2\n3,4,5\n", 3, None),                    # long row (short: TestSeriesFiles)
        ("a,b\n1,2\n,4\n", 3, 1),                          # empty cell
        ("timestamp,a,b\nd1,1,2\nd2,3,x\n", 3, 3),         # timestamp shifts columns
        ("Timestamp,a\nd1,1\nd2,\n", 3, 2),
        ("a,b\n1,2\n\n3,4\n", 3, None),                    # blank line mid-file
        ("a,b\n1,2\n3,4\n\n", 4, None),                    # trailing blank line
        ("a,b\r\n1,2\r\n\r\n", 3, None),
        ("a\n1\n \n", 3, 1),                               # whitespace-only cell
        ("a,b\n1,x\n\n", 2, 2),                            # first error wins
    ])
    def test_error_location(self, tmp_path, text, line, column):
        p = write_bytes(tmp_path, text, "s.csv")
        with pytest.raises(ParseError) as err:
            load_series(p)
        assert (err.value.line, err.value.column) == (line, column)

    def test_empty_file(self, tmp_path):
        p = write_bytes(tmp_path, "", "s.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as err:
                load_series(p)
        assert err.value.line == 1

    @pytest.mark.parametrize("text", ["a,b\n", "timestamp,a\n", "a"])
    def test_header_only_is_insufficient_without_warnings(self, tmp_path, text):
        p = write_bytes(tmp_path, text, "s.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientData):
                load_series(p)

    @pytest.mark.parametrize("header", ["timestamp\n", ",\n", "a,b,a\n"])
    def test_bad_header_reports_line_1(self, tmp_path, header):
        p = write_bytes(tmp_path, header + "1,2,3\n", "s.csv")
        with pytest.raises(ParseError) as err:
            load_series(p)
        assert err.value.line == 1

    def test_single_channel(self, tmp_path):
        s = load_series(write_bytes(tmp_path, "x\n1\n2\n", "s.csv"))
        assert s.values.shape == (2, 1)
        np.testing.assert_array_equal(s.values[:, 0], [1.0, 2.0])

    def test_quoted_names_and_timestamps_round_trip(self, tmp_path):
        series = Series(values=np.arange(6.0).reshape(3, 2) - 2.5,
                        channel_names=["a,b", 'q"uote'],
                        timestamps=["2021-01-01, 00:00", 'the "first"', "multi\nline"])
        p = tmp_path / "s.csv"
        write_series(series, p)
        back = load_series(p)
        assert back.channel_names == series.channel_names
        assert back.timestamps == series.timestamps
        np.testing.assert_array_equal(back.values, series.values)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_endings(self, tmp_path, newline):
        text = "timestamp,a,b\nd1,1,2\nd2,3,4.5\n".replace("\n", newline)
        s = load_series(write_bytes(tmp_path, text, "s.csv"))
        assert s.channel_names == ["a", "b"]
        assert s.timestamps == ["d1", "d2"]
        np.testing.assert_array_equal(s.values, [[1.0, 2.0], [3.0, 4.5]])

    @pytest.mark.parametrize("with_timestamps", [False, True])
    def test_bit_exact_against_cell_by_cell_parser(self, tmp_path, with_timestamps):
        rng = np.random.default_rng(8)
        values = special_doubles(rng, 227).reshape(80, 3)
        stamps = [f"step {i}" for i in range(80)] if with_timestamps else None
        p = tmp_path / "s.csv"
        write_series(Series(values=values, channel_names=["x", "y", "z"],
                            timestamps=stamps), p)
        got, want = load_series(p), oracle_load_series(p)
        assert got.channel_names == want.channel_names
        assert got.timestamps == want.timestamps
        assert got.values.dtype == np.float64 and got.values.flags.c_contiguous
        np.testing.assert_array_equal(bits(got.values), bits(want.values))


class TestLoaderNumberSyntax:
    """Inputs that ``int``/``float`` accepted cell by cell but the
    loaders now reject (or, for the ASCII separator controls, accept),
    because the number syntax is numpy's."""

    @pytest.mark.parametrize("row, column", [
        ("1_0,a,0.5", 1),                  # digit-group underscore in t
        ("١,a,0.5", 1),                    # non-ASCII digit in t
        ("9223372036854775808,a,0.5", 1),  # t beyond int64
        ("-9223372036854775809,a,0.5", 1),
        ("1,a,1_000.5", 3),
        ("1,a,٣", 3),
        ("1,a,１", 3),
    ])
    def test_forecast_cells_rejected(self, tmp_path, row, column):
        p = write_bytes(tmp_path, f"t,channel,h1\n0,a,0.5\n{row}\n")
        with pytest.raises(ParseError) as err:
            load_forecasts(p)
        assert (err.value.line, err.value.column) == (3, column)

    def test_int64_bounds_accepted(self, tmp_path):
        p = write_bytes(tmp_path, "t,channel,h1\n9223372036854775807,a,1\n"
                                  "-9223372036854775808,a,2\n")
        table, _ = load_rows(p)
        assert list(table) == [(2**63 - 1, "a"), (-2**63, "a")]

    @pytest.mark.parametrize("cell", ["1_0", "٣", "1e1_0"])
    def test_series_cells_rejected(self, tmp_path, cell):
        p = write_bytes(tmp_path, f"a,b\n1,2\n3,{cell}\n", "s.csv")
        with pytest.raises(ParseError) as err:
            load_series(p)
        assert (err.value.line, err.value.column) == (3, 2)

    def test_blank_line_inside_quoted_cell_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        write_forecasts([0, 1], ["a", "two\n\nbreaks"], [[1.0], [2.0]], p)
        with pytest.raises(ParseError, match="blank line"):
            load_forecasts(p)

    def test_separator_controls_around_numbers_accepted(self, tmp_path):
        p = write_bytes(tmp_path, "t,channel,h1\n\x1c4\x1f,a,\x1d2.5\x1e\n")
        table, _ = load_rows(p)
        np.testing.assert_array_equal(table[(4, "a")], [2.5])


def write_both(tmp_path, rows, horizon):
    """The same rows as a CSV and as an .npz forecast file."""
    csv_path, npz_path = tmp_path / "f.csv", tmp_path / "f.npz"
    write_forecasts(*forecast_columns(rows, horizon), csv_path)
    write_forecasts(*forecast_columns(rows, horizon), npz_path)
    return csv_path, npz_path


def assert_same_table(got, want):
    assert got.names == want.names
    assert got.times.tobytes() == want.times.tobytes()
    assert got.index.tobytes() == want.index.tobytes()
    assert got.block.shape == want.block.shape
    assert bits(got.block).tobytes() == bits(want.block).tobytes()


class TestForecastTable:
    def test_rows_are_views_of_one_block(self, tmp_path):
        rows = [(t, name, np.arange(3.0) + t) for name in "xy" for t in range(4)]
        table, _ = load_forecasts(write_both(tmp_path, rows, 3)[0])
        assert table.block.shape == (8, 3)
        for row, (t, name, _) in enumerate(rows):
            assert table.index[table.step(t), table.code(name)] == row
        block = np.arange(6.0).reshape(3, 2)
        table = ForecastTable(np.array([4, 4, 5]), np.array(["b", "a", "b"]), block)
        assert table.horizon == 2 and table.names == ["b", "a"]
        assert table.times.tolist() == [4, 5] and table.index.tolist() == [[0, 1], [2, -1]]
        assert np.shares_memory(table.block, block) and block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.block[0] = 7.0
        block[2] = 7.0  # the caller's writes show through the view
        np.testing.assert_array_equal(table.block[2], [7.0, 7.0])

    @pytest.mark.parametrize("source", ["csv", "npz", "array"])
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_keeps_the_block_read_only(self, tmp_path, source, protocol):
        # sweep --parallel sends the table to its workers by pickle; numpy
        # unpickles a block writable below protocol 5, and a strided one
        # (a CSV table's) at any protocol
        rows = [(t, name, np.arange(2.0) + 10 * t + i)
                for t in (3, 4, 9) for i, name in enumerate("xyz")]
        rows.pop(4)  # no (4, "y")
        table = forecast_table(rows, 2, source, tmp_path)
        copy = pickle.loads(pickle.dumps(table, protocol))
        assert not copy.block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            copy.block[0] = 7.0
        assert_same_table(copy, table)
        codes = [table.code(name) for name in "zyx"]
        assert copy.code("w") == -1 and [copy.code(name) for name in "zyx"] == codes
        for t in (3, 4, 9, 5):
            assert copy.rows(t, codes).tolist() == table.rows(t, codes).tolist()

    @pytest.mark.parametrize("t, channel, block", [
        ([0.0, 1.0], ["a", "a"], np.ones((2, 3))),           # float steps
        ([[0], [1]], ["a", "a"], np.ones((2, 3))),           # 2-D steps
        ([True, False], ["a", "a"], np.ones((2, 3))),        # boolean steps
        ([2**63], ["a"], np.ones((1, 3))),                   # a step beyond int64
        ([0, 1], ["a", "a"], np.ones(2)),                    # 1-D block
        ([0, 1], ["a"], np.ones((2, 3))),                    # fewer names than steps
        ([0, 1], ["a", "b"], np.ones((3, 3))),               # more rows than steps
        ([0], ["a"], np.ones((1, 0))),                       # H = 0
    ])
    def test_odd_columns_rejected(self, t, channel, block):
        with pytest.raises(InvalidConfig, match="forecast rows need"):
            ForecastTable(t, channel, block)

    @pytest.mark.parametrize("source", ["csv", "npz", "array"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_forecast_rejected(self, tmp_path, source, value):
        rows = [(t, name, np.ones(3)) for t in (5, 6) for name in "ab"]
        rows[2][2][1] = value  # (6, "a"), the file's line 4
        with pytest.raises(ParseError) as err:
            forecast_table(rows, 3, source, tmp_path)
        line = " (line 4)" if source == "csv" else ""
        assert str(err.value) == "non-finite forecast for (t=6, channel='a')" + line

    def test_rows_of_a_step(self, tmp_path):
        rows = [(t, name, np.arange(2.0) + 10 * t + i)
                for t in (3, 4) for i, name in enumerate("xyz")]
        rows.pop(4)  # no (4, "y")
        table, _ = load_forecasts(write_both(tmp_path, rows, 2)[0])
        codes = [table.code(name) for name in "zx"]
        np.testing.assert_array_equal(table.block[table.rows(3, codes)],
                                      [rows[2][2], rows[0][2]])
        assert table.rows(np.int64(4), codes).tolist() == [4, 3]
        assert table.rows(4, [table.code("y")]).tolist() == [-1]
        assert table.rows(4, []).shape == (0,)
        for t in (5, 2**70, "3", 3.0):
            assert table.rows(t, codes).tolist() == [-1, -1]
        assert table.code("w") == -1

    @pytest.mark.parametrize("steps", [[-2**63, 0, 2**63 - 1], [7, 3, 12, 5], [0, 1, 2]])
    def test_steps_anywhere_in_int64(self, tmp_path, steps):
        rows = [(t, name, np.full(1, float(i))) for i, (t, name) in
                enumerate((t, name) for t in steps for name in "pq")]
        table, _ = load_forecasts(write_both(tmp_path, rows, 1)[0])
        assert list(table.times) == sorted(steps)
        got = table_dict(table)
        for t, name, vec in rows:
            np.testing.assert_array_equal(got[(t, name)], vec)
        for t in (min(steps) - 1, max(steps) + 1, 4):
            if t not in steps:
                assert table.step(t) == -1

    def test_retains_the_block_and_little_more(self, tmp_path):
        steps, names, horizon = 2500, [f"ch{i}" for i in range(8)], 8
        rng = np.random.default_rng(5)
        rows = [(t, name, rng.normal(size=horizon)) for t in range(steps) for name in names]
        p = tmp_path / "f.csv"
        write_forecasts(*forecast_columns(rows, horizon), p)
        del rows
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table, _ = load_forecasts(p)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = steps * len(names)
        block = n * horizon * 8
        assert table.block.nbytes == block
        assert retained <= block + 64 * n + 64 * 2**10, \
            f"{(retained - block) / n:.0f} B per row above the block"


class TestNpzForecastFiles:
    def test_csv_and_npz_load_identical_tables(self, tmp_path):
        rng = np.random.default_rng(9)
        values = special_doubles(rng, 230, finite=True).reshape(30, 8)
        keys = [(int(t), name) for t in rng.permutation(6) - 3
                for name in ["a,b", 'say "hi"', "", "ünïcode", "z"]]
        rows = [(t, name, values[i]) for i, (t, name) in enumerate(keys)]
        rows.append((2**63 - 1, "z", values[0]))
        csv_path, npz_path = write_both(tmp_path, rows, 8)
        (got, got_h), (want, want_h) = load_forecasts(npz_path), load_forecasts(csv_path)
        assert got_h == want_h == 8
        assert_same_table(got, want)

    def test_header_only_and_empty_npz_agree(self, tmp_path):
        csv_path, npz_path = write_both(tmp_path, [], 3)
        assert load_rows(npz_path) == load_rows(csv_path) == ({}, 3)

    def test_duplicates_raise_the_csv_message(self, tmp_path):
        rows = [(1, "a", [0.5]), (2, "a", [0.5]), (1, "b", [0.5]), (2, "a", [0.7])]
        csv_path, npz_path = write_both(tmp_path, rows, 1)
        with pytest.raises(ParseError) as from_csv:
            load_forecasts(csv_path)
        with pytest.raises(ParseError) as from_npz:
            load_forecasts(npz_path)
        assert from_csv.value.line == 5 and from_npz.value.line is None
        assert str(from_npz.value) == "duplicate forecast for (t=2, channel='a')"
        assert str(from_csv.value) == str(from_npz.value) + " (line 5)"

    @pytest.mark.parametrize("field, fields", [
        ("t", dict(t=np.array([1.0, 2.0]))),
        ("t", dict(t=np.array([[1], [2]]))),
        ("t", dict(t=np.array([True, False]))),
        ("t", dict(t=np.array([1, 2**63], dtype=np.uint64))),
        ("t", dict(t=None)),
        ("channel", dict(channel=np.array([1, 2]))),
        ("channel", dict(channel=np.array([b"a", b"b"]))),
        ("channel", dict(channel=np.array(["a", "b"], dtype=object))),
        ("channel", dict(channel=np.array(["a", "b", "c"]))),
        ("channel", dict(channel=None)),
        ("h", dict(h=np.ones((2, 3), dtype=np.int64))),
        ("h", dict(h=np.ones(2))),
        ("h", dict(h=np.ones((3, 3)))),
        ("h", dict(h=np.ones((2, 0)))),
        ("h", dict(h=None)),
    ])
    def test_bad_field_names_the_field(self, tmp_path, field, fields):
        arrays = dict(t=np.array([1, 2]), channel=np.array(["a", "b"]), h=np.ones((2, 3)))
        arrays.update(fields)
        p = tmp_path / "f.npz"
        np.savez(p, **{k: v for k, v in arrays.items() if v is not None})
        with pytest.raises(ParseError, match=f"'{field}'"):
            load_forecasts(p)

    def test_narrow_dtypes_widen(self, tmp_path):
        p = tmp_path / "f.npz"
        np.savez(p, t=np.array([3, 4], dtype=np.uint8), channel=np.array(["a", "a"]),
                 h=np.array([[0.5], [0.25]], dtype=np.float32))
        table, horizon = load_forecasts(p)
        assert horizon == 1 and list(table_dict(table)) == [(3, "a"), (4, "a")]
        assert table.block.dtype == np.float64 and table.block[1, 0] == 0.25

    @pytest.mark.parametrize("content", [b"", b"not an archive", b"PK\x03\x04broken"])
    def test_unreadable_archive_is_parse_error(self, tmp_path, content):
        p = tmp_path / "f.npz"
        p.write_bytes(content)
        with pytest.raises(ParseError):
            load_forecasts(p)

    def test_npy_content_is_parse_error(self, tmp_path):
        p = tmp_path / "f.npz"
        with open(p, "wb") as fh:
            np.save(fh, np.ones(3))
        with pytest.raises(ParseError, match="not an .npz archive"):
            load_forecasts(p)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(IoError):
            load_forecasts(tmp_path / "absent.npz")

    def test_name_ending_in_nul_is_not_written(self, tmp_path):
        # a unicode array would drop the NUL and the name would load back
        # as "a"; the CSV file keeps it
        rows = [(0, "a\0", [1.0]), (0, "b", [2.0])]
        p = tmp_path / "f.npz"
        with pytest.raises(InvalidConfig, match="NUL"):
            write_forecasts([0, 0], np.array(["a\0", "b"], dtype=object), np.ones((2, 1)), p)
        with pytest.raises(InvalidConfig, match="NUL"):
            write_both(tmp_path, rows, 1)
        assert not p.exists()
        table, _ = load_rows(tmp_path / "f.csv")
        assert list(table) == [(0, "a\0"), (0, "b")]
        write_forecasts([0], ["a\0b"], np.ones((1, 1)), p)
        assert list(load_rows(p)[0]) == [(0, "a\0b")]


class TestRunConfigFiles:
    def test_parse_types_comments_and_spacing(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# a comment\n"
            "dataset = data.csv\n"
            "context_length = 64   # trailing comment\n"
            "lambda = 12.5\n"
            "instance_norm = false\n"
            "weighter = slow_only\n"
            "\n"
        )
        settings = load_run_config(p)
        assert settings == {
            "dataset": "data.csv",
            "context_length": 64,
            "lambda": 12.5,
            "instance_norm": False,
            "weighter": "slow_only",
        }
        cfg = build_rolling_config({**settings, "seasonality": 8, "horizon": 8})
        assert cfg.context_length == 64
        assert cfg.lam == 12.5
        assert cfg.instance_norm is False
        assert cfg.weighter_mode == "slow_only"

    def test_repeated_key_rejected_at_the_repeat(self, tmp_path):
        # a second line for a key used to override the first silently
        p = tmp_path / "run.cfg"
        p.write_text("horizon = 24\n# comment\ncontext_length = 64\nhorizon = 8\n")
        with pytest.raises(ParseError, match="'horizon' is set again") as err:
            load_run_config(p)
        assert err.value.line == 4

    def test_line_without_equals_rejected_at_its_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("horizon = 24\n# comment\ncontext_length 64\n")
        with pytest.raises(ParseError, match="expected 'key = value'") as err:
            load_run_config(p)
        assert err.value.line == 3

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("wibble = 3\n")
        with pytest.raises(InvalidConfig, match="unknown config key"):
            load_run_config(p)

    def test_known_keys_and_their_types(self):
        typed = {"context_length": int, "horizon": int, "update_period": int,
                 "seasonality": int, "lambda": float, "alpha": float, "eta": float,
                 "fast_window": int, "warmup": int, "weighter": str,
                 "instance_norm": bool, "channel_scaling": bool, "shared_weights": bool}
        for key, typ in typed.items():
            raw = {int: "7", float: "7", str: "full", bool: "yes"}[typ]
            assert type(parse_config_value(key, raw)) is typ, key
        run_keys = ["base", "dataset", "dump_forecasts", "format", "forecasts", "out"]
        with pytest.raises(InvalidConfig) as info:
            parse_config_value("wibble", "3")
        assert str(info.value) == ("unknown config key 'wibble'; known keys: "
                                   + ", ".join(sorted([*typed, *run_keys])))

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config_value("lambda", "soup")
        with pytest.raises(InvalidConfig):
            parse_config_value("instance_norm", "maybe")

    def test_every_config_the_reader_builds_passes(self, tmp_path):
        # counts and flags as a config file spells them, and as JSON
        # settings give them
        p = tmp_path / "run.cfg"
        p.write_text("context_length = 64\nhorizon = 8\nupdate_period = 4\nseasonality = 8\n"
                     "fast_window = 1\nwarmup = 0\ninstance_norm = no\n"
                     "channel_scaling = on\nshared_weights = 0\n")
        cfg = build_rolling_config(load_run_config(p))
        assert (cfg.context_length, cfg.horizon, cfg.warmup) == (64, 8, 0)
        assert (cfg.instance_norm, cfg.channel_scaling, cfg.shared_weights) == (False, True, False)
        settings = json.loads('{"context_length": 128, "horizon": 24, "update_period": 100, '
                              '"seasonality": 24, "shared_weights": false}')
        assert build_rolling_config(settings).shared_weights is False
        with pytest.raises(InvalidConfig, match="horizon must be an integer, got 24.0"):
            build_rolling_config(dict(settings, horizon=24.0))

    def test_config_invariants_rechecked(self):
        with pytest.raises(InvalidConfig):
            build_rolling_config({"lambda": -1.0})
        with pytest.raises(InvalidConfig):
            build_rolling_config({"seasonality": 600})  # >= context_length
        with pytest.raises(InvalidConfig, match="weighter_mode"):
            build_rolling_config({"weighter": "bogus"})


class TestReports:
    def _small_report(self):
        t = np.arange(300)
        data = np.stack([np.sin(2 * np.pi * t / 8), np.cos(2 * np.pi * t / 8)], axis=1)
        data = data + 0.1 * np.random.default_rng(2).normal(size=data.shape)
        cfg = RollingConfig(context_length=32, horizon=8, update_period=16,
                            seasonality=8, warmup=2).validate()
        report = run(data, NaiveSeasonalBase(8, 8), cfg)
        report.dataset_name = "toy"
        return report

    def test_json_round_trip_preserves_numbers(self, tmp_path):
        report = self._small_report()
        p = tmp_path / "report.json"
        write_report(report, p, fmt="json")
        loaded = read_report_json(p)
        assert loaded == json.loads(json.dumps(report.to_dict()))
        assert loaded["aggregate"]["combined"]["mase"] == \
            report.aggregate["combined"]["mase"]
        for name in report.channel_names:
            got = loaded["per_channel"][name]
            want = report.per_channel[name]
            for stream in ("base", "adaptive", "combined"):
                assert got[stream]["mase"] == want[stream]["mase"]
                assert got[stream]["rmsse"] == want[stream]["rmsse"]
        assert loaded["config"]["context_length"] == 32

    def test_json_keys_sorted(self, tmp_path):
        report = self._small_report()
        p = tmp_path / "report.json"
        write_report(report, p, fmt="json")
        text = p.read_text()
        top_keys = list(json.loads(text))
        assert top_keys == sorted(top_keys)

    def test_csv_has_one_row_per_channel_stream(self, tmp_path):
        report = self._small_report()
        p = tmp_path / "report.csv"
        write_report(report, p, fmt="csv")
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 3  # header + channels x streams
        assert lines[0] == "dataset,channel,stream,mase,rmsse,windows,floored_windows"
        assert lines[1].startswith("toy,ch0,base,")

    def test_unwritable_path_is_io_error(self, tmp_path):
        report = self._small_report()
        with pytest.raises(IoError):
            write_report(report, tmp_path / "nope" / "report.json", fmt="json")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            write_report(self._small_report(), tmp_path / "r.x", fmt="xml")

    def test_unserializable_payload_leaves_the_file_untouched(self, tmp_path):
        p = tmp_path / "table.json"
        p.write_text("kept\n")
        with pytest.raises(TypeError):
            write_json({"value": object()}, p)
        assert p.read_text() == "kept\n"
