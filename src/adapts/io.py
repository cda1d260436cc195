"""Dataset ingestion, forecast interchange, run configuration and reports.

Three delimited-text formats are supported:

* series files: wide CSV, header row required, optional leading
  ``timestamp`` column (carried through but never interpreted), one column
  per channel;
* forecast files: long CSV with header ``t,channel,h1,...,hH``, one row
  per (time step, channel) holding the horizon-length forecast made at
  ``t``; the same rows may come as an ``.npz`` file of three arrays
  (``t``, ``channel``, ``h``);
* run config files: ``key = value`` lines with ``#`` comments.

Numbers are written with ``repr`` (shortest round-trip form), so every
serialization is lossless at double precision and independent of locale.
Series and forecast files are read in one streaming ``np.loadtxt`` pass;
a file that pass rejects is reread with ``csv`` only to name the first bad
line and column.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import operator
import warnings
import zipfile
from pathlib import Path

import numpy as np

from .config import RollingConfig
from .errors import InsufficientData, InvalidConfig, IoError, ParseError


@dataclasses.dataclass
class Series:
    """In-memory multichannel series."""

    values: np.ndarray           # (T, C) float64
    channel_names: list
    timestamps: list = None      # optional, same length as values

    @property
    def shape(self):
        return self.values.shape

    def __getitem__(self, key):
        return self.values[key]

    def __len__(self):
        return self.values.shape[0]


def _fmt(x: float) -> str:
    return repr(float(x))


# -- delimited records ---------------------------------------------------------

# one streaming pass; quotechar makes numpy split cells exactly as csv.reader
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=1)
_INT64 = np.iinfo(np.int64)


class _BlankLine(Exception):
    """A blank line, which csv reads as an empty row but loadtxt skips.

    When the csv reread finds no bad row, the blank line sat inside a
    quoted cell.
    """

    def __str__(self):
        return "a quoted cell spans a blank line"


def _data_lines(fh):
    for line in fh:
        if not line.rstrip("\r\n"):
            raise _BlankLine
        yield line


def _read_records(path, layout):
    """Parse a CSV file with a header row into its stripped header cells
    and a structured array of its rows.

    ``layout(header)`` checks the header cells and returns the
    record dtype plus ``check(row, line)``, which raises ParseError for a
    bad data row. The rows are parsed by one ``np.loadtxt`` pass over the
    file's lines; if that pass fails, the file is reread with csv and
    ``check`` to name the first bad line and column. The reread never
    returns data.
    """
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise ParseError("file is empty, header row required", line=1)
            header = [h.strip() for h in header]
            dtype, check = layout(header)
            lines = _data_lines(fh)
            try:
                with warnings.catch_warnings():
                    # older numpy parses "1.5" as the integer 1 with a warning
                    warnings.simplefilter("error", DeprecationWarning)
                    first = next(lines, None)
                    if first is None:
                        return header, np.empty(0, dtype)
                    return header, np.loadtxt(itertools.chain([first], lines),
                                              dtype=dtype, **_LOADTXT)
            except (ValueError, DeprecationWarning, _BlankLine) as exc:
                failure = exc
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for line_no, row in enumerate(reader, start=2):
                check(row, line_no)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    raise ParseError(f"cannot parse {path}: {failure}")


def _row_width(row, width, line):
    if len(row) != width:
        raise ParseError(f"expected {width} cells, found {len(row)}", line=line)


def _loadtxt_syntax(cell: str) -> str:
    """The stripped cell if loadtxt could read it as a number: ASCII only
    and no digit-group underscores, which ``float``/``int`` also accept."""
    text = cell.strip()
    return text if text.isascii() and "_" not in text else ""


def _check_numbers(cells, line, first_column):
    for j, cell in enumerate(cells, start=first_column):
        try:
            float(_loadtxt_syntax(cell))
        except ValueError:
            raise ParseError(f"cell {cell!r} is not a number",
                             line=line, column=j) from None


# -- series files -------------------------------------------------------------

def _series_layout(header):
    has_timestamp = bool(header) and header[0].lower() == "timestamp"
    names = header[1:] if has_timestamp else header
    if not names:
        raise ParseError("header names no channels", line=1)
    if len(set(names)) != len(names):
        raise ParseError("channel names must be unique", line=1)
    width, first = len(header), int(has_timestamp)
    fields = [("timestamp", object)] if has_timestamp else []
    dtype = np.dtype(fields + [("values", np.float64, (len(names),))])

    def check(row, line):
        _row_width(row, width, line)
        _check_numbers(row[first:], line, first + 1)

    return dtype, check


def load_series(path) -> Series:
    """Read a wide-format series file."""
    header, records = _read_records(path, _series_layout)
    if not len(records):
        raise InsufficientData(f"{path} holds a header but no data rows")
    values = np.ascontiguousarray(records["values"])
    if "timestamp" in records.dtype.names:
        return Series(values=values, channel_names=header[1:],
                      timestamps=records["timestamp"].tolist())
    return Series(values=values, channel_names=header)


def write_series(series: Series, path) -> None:
    """Write a series back to wide CSV, losslessly."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if series.timestamps is not None:
                writer.writerow(["timestamp"] + list(series.channel_names))
                for ts, row in zip(series.timestamps, series.values):
                    writer.writerow([ts] + [_fmt(v) for v in row])
            else:
                writer.writerow(list(series.channel_names))
                for row in series.values:
                    writer.writerow([_fmt(v) for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# -- forecast files -----------------------------------------------------------

def write_forecasts(t, channel, block, path) -> None:
    """Write forecast rows: ``t`` ``(n,)`` integer steps, ``channel``
    ``(n,)`` names and ``block`` ``(n, H)`` float64 forecasts. A name
    ending in ``.npz`` gets an ``.npz`` file of the three arrays (fields
    ``t``, ``channel`` as unicode, ``h``), any other long CSV."""
    t, names, block = _forecast_columns(t, channel, block)
    try:
        if _is_npz(path):
            # numpy strips trailing NULs from unicode arrays, so such a name
            # would load back as another channel: look before converting
            if any(isinstance(name, str) and name.endswith("\0") for name in set(names.tolist())):
                raise InvalidConfig("a channel name ending in NUL cannot be written to an .npz file")
            with open(path, "wb") as fh:
                np.savez(fh, t=t, channel=names.astype(str), h=block)
            return
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "channel"] + [f"h{i + 1}" for i in range(block.shape[1])])
            for step, name, row in zip(t.tolist(), names.tolist(), block):
                writer.writerow([step, name, *map(repr, row.tolist())])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _forecast_layout(header):
    if len(header) < 3 or header[0] != "t" or header[1] != "channel":
        raise ParseError("header must read t,channel,h1,...,hH", line=1)
    horizon = len(header) - 2
    if header[2:] != [f"h{i + 1}" for i in range(horizon)]:
        raise ParseError("horizon columns must be h1..hH in order", line=1)
    width, seen = len(header), set()

    def check(row, line):
        _row_width(row, width, line)
        try:
            t = int(_loadtxt_syntax(row[0]))
        except ValueError:
            t = None
        if t is None or not _INT64.min <= t <= _INT64.max:
            raise ParseError(f"time step {row[0]!r} is not an integer",
                             line=line, column=1)
        key = (t, row[1])
        if key in seen:
            raise _bad_forecast("duplicate", *key, line)
        seen.add(key)
        _check_numbers(row[2:], line, 3)

    dtype = np.dtype([("t", np.int64), ("channel", object),
                      ("h", np.float64, (horizon,))])
    return dtype, check


def _bad_forecast(problem, t, name, line):
    return ParseError(f"{problem} forecast for (t={t}, channel={name!r})", line=line)


def _forecast_columns(t, channel, block):
    """``t`` as ``(n,)`` int64 steps, ``channel`` as ``(n,)`` names and
    ``block`` as ``(n, H)`` float64 forecasts with H >= 1, each converted
    only where it is not one already; other columns raise InvalidConfig."""
    steps = np.asarray(t)
    names = channel if isinstance(channel, np.ndarray) else np.asarray(channel, dtype=object)
    block = np.asarray(block, dtype=np.float64)
    # an empty list of steps reads as float64, and holds no float step
    integral = not steps.size or steps.dtype.kind in "iu" and np.can_cast(steps.dtype, np.int64)
    if not integral or block.ndim != 2 or block.shape[1] < 1 \
            or not steps.shape == names.shape == block.shape[:1]:
        raise InvalidConfig(f"forecast rows need t (n,) int64, channel (n,) and h (n, H >= 1), "
                            f"got {steps.dtype} {steps.shape}, {names.shape} and {block.shape}")
    return steps.astype(np.int64, copy=False), names, block


class ForecastTable:
    """The forecasts of a forecast file as one dense block, indexed by
    step and channel.

    ``block`` holds the forecasts as ``(n, H)`` float64 rows in file
    order. Each channel name is stored once, in ``names``, and ``code(name)``
    is its position there; ``index[i, code]`` is the block row of step
    ``times[i]`` and that channel, or -1 where the file has no such
    forecast. ``times`` holds the distinct steps in ascending order, so any
    int64 step is allowed.
    """

    def __init__(self, t, channel, block, first_line=None):
        """Index ``block``'s rows by step ``t`` (``(n,)`` integers) and
        ``channel`` (``(n,)`` names). The table keeps a read-only view of
        ``block``, not a copy. Columns of other shapes or types raise
        InvalidConfig. A repeated ``(t, channel)`` or a non-finite forecast
        raises ParseError at the line of its row, counting row 0 as
        ``first_line`` (None: no line)."""
        t, channel, block = _forecast_columns(t, channel, block)
        lookup = {}
        codes = np.fromiter((lookup.setdefault(name, len(lookup)) for name in channel.tolist()),
                            np.intp, count=len(channel))
        self.block, self.names, self._codes_of = block.view(), list(lookup), lookup
        self.block.flags.writeable = False  # rows go out as views of it
        self.times, steps = np.unique(t, return_inverse=True)
        self.index = np.full((len(self.times), len(self.names)), -1, np.intp)
        self.index[steps, codes] = np.arange(len(codes))

        def bad_row(problem, row):
            return _bad_forecast(problem, int(t[row]), self.names[codes[row]],
                                 None if first_line is None else first_line + row)

        if np.count_nonzero(self.index >= 0) < len(codes):
            _, first = np.unique(steps * len(self.names) + codes, return_index=True)
            repeat = np.ones(len(codes), bool)
            repeat[first] = False
            raise bad_row("duplicate", int(np.argmax(repeat)))
        if not np.isfinite(block).all():
            raise bad_row("non-finite", int(np.argmin(np.isfinite(block).all(axis=1))))

    def __setstate__(self, state):
        # an unpickled array is writable, so a copy of the table sent to
        # another process, as ``sweep --parallel`` sends it, locks it again
        self.__dict__.update(state)
        self.block.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.block.shape[1]

    def step(self, t) -> int:
        """The ``index`` row of step ``t``, or -1 if the table has none."""
        try:
            t = operator.index(t)
        except TypeError:
            return -1
        if not _INT64.min <= t <= _INT64.max:
            return -1
        i = int(self.times.searchsorted(t))
        return i if i < len(self.times) and self.times[i] == t else -1

    def code(self, name) -> int:
        """The code of channel ``name``, or -1 if the table has none."""
        return self._codes_of.get(name, -1)

    def rows(self, t, codes):
        """The block rows of step ``t`` for the channels of ``codes``, a
        sequence of codes the table holds, as an ``(n,)`` intp array with
        -1 where a forecast is missing: everywhere if it lacks the step."""
        i = self.step(t)
        return self.index[i][codes] if i >= 0 else np.full(len(codes), -1, np.intp)


def _is_npz(path) -> bool:
    return Path(path).suffix.lower() == ".npz"


def load_forecasts(path):
    """Read a forecast file: long CSV, or ``.npz`` if the name ends so.

    Returns
    -------
    (table, horizon) where table is a :class:`ForecastTable` over the
    file's rows, in file order, as one float64 block.
    """
    if _is_npz(path):
        return _load_forecasts_npz(path)
    header, records = _read_records(path, _forecast_layout)
    table = ForecastTable(records["t"], records["channel"], records["h"], first_line=2)
    records["channel"] = None  # the table holds each name once
    return table, len(header) - 2


# the dtype kinds and rank each field of an .npz forecast file accepts
_NPZ_FIELDS = {"t": ("iu", 1), "channel": ("U", 1), "h": ("f", 2)}


def _npz_field(data, name):
    kinds, ndim = _NPZ_FIELDS[name]
    if name not in data.files:
        raise ParseError(f"no field {name!r}")
    try:
        array = data[name]
    except ValueError as exc:  # an object array, which needs pickle
        raise ParseError(f"field {name!r} cannot be read: {exc}") from None
    if array.dtype.kind not in kinds or array.ndim != ndim:
        raise ParseError(f"field {name!r} has dtype {array.dtype} and shape {array.shape}")
    return array


def _load_forecasts_npz(path):
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise ParseError(f"{path} is not an .npz archive")
            with archive as data:
                t, channel, h = (_npz_field(data, name) for name in _NPZ_FIELDS)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from None
    if channel.shape != t.shape:
        raise ParseError(f"field 'channel' has shape {channel.shape}, 't' has {t.shape}")
    if h.shape[0] != len(t) or h.shape[1] < 1:
        raise ParseError(f"field 'h' has shape {h.shape}, expected ({len(t)}, H) with H >= 1")
    if t.dtype.kind == "u" and len(t) and t.max() > _INT64.max:
        raise ParseError("field 't' holds a step beyond int64")
    return ForecastTable(t.astype(np.int64, copy=False), channel, h), h.shape[1]


# -- run config files ---------------------------------------------------------

# keys that belong to RollingConfig: one per field, typed by its default;
# files spell two fields differently
_FILE_SPELLING = {"lam": "lambda", "weighter_mode": "weighter"}
_CONFIG_KEYS = {_FILE_SPELLING.get(f.name, f.name): (f.name, type(f.default))
                for f in dataclasses.fields(RollingConfig)}

# run-level keys outside RollingConfig
_RUN_KEYS = {
    "dataset": str,
    "base": str,
    "forecasts": str,
    "out": str,
    "format": str,
    "dump_forecasts": str,
}


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise InvalidConfig(f"{key} expects a boolean, got {raw!r}")


def parse_config_value(key: str, raw: str):
    """Coerce one ``key = value`` setting to its typed form."""
    raw = raw.strip()
    if key in _CONFIG_KEYS:
        _, typ = _CONFIG_KEYS[key]
    elif key in _RUN_KEYS:
        typ = _RUN_KEYS[key]
    else:
        known = sorted(list(_CONFIG_KEYS) + list(_RUN_KEYS))
        raise InvalidConfig(f"unknown config key {key!r}; known keys: {', '.join(known)}")
    if typ is bool:
        return _parse_bool(raw, key)
    try:
        return typ(raw)
    except ValueError:
        raise InvalidConfig(f"{key} expects {typ.__name__}, got {raw!r}") from None


def load_run_config(path) -> dict:
    """Parse a ``key = value`` run config file into a typed dict."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    settings = {}
    for i, line in enumerate(lines):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError(f"expected 'key = value', got {text!r}", line=i + 1)
        key, raw = (part.strip() for part in text.split("=", 1))
        if key in settings:
            raise ParseError(f"key {key!r} is set again; each key takes one line", line=i + 1)
        settings[key] = parse_config_value(key, raw)
    return settings


def build_rolling_config(settings: dict) -> RollingConfig:
    """RollingConfig from a settings dict, validated."""
    kwargs = {}
    for file_key, (attr, _) in _CONFIG_KEYS.items():
        if file_key in settings:
            kwargs[attr] = settings[file_key]
    return RollingConfig(**kwargs).validate()


# -- reports ------------------------------------------------------------------

def write_report(report, path, fmt: str = "json") -> None:
    """Serialize a RunReport as JSON (full structure) or CSV (flat table)."""
    if fmt == "json":
        write_json(report.to_dict(), path)
    elif fmt == "csv":
        try:
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["dataset", "channel", "stream", "mase", "rmsse",
                                 "windows", "floored_windows"])
                for name in report.channel_names:
                    entry = report.per_channel[name]
                    for stream in ("base", "adaptive", "combined"):
                        m = entry[stream]["mase"]
                        r = entry[stream]["rmsse"]
                        writer.writerow([
                            report.dataset_name, name, stream,
                            "" if m is None else _fmt(m),
                            "" if r is None else _fmt(r),
                            entry["windows"], entry["floored_windows"],
                        ])
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
    else:
        raise InvalidConfig(f"unknown report format {fmt!r}")


def write_json(payload, path) -> None:
    """Write any JSON-serializable payload with sorted keys. The payload is
    serialized before the file is opened, so a payload that cannot be
    serialized leaves an existing file untouched."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_report_json(path) -> dict:
    """Load a JSON report back into the dict produced by ``to_dict``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc
