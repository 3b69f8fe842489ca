"""Time series container, CSV reading, and key alignment.

Keys are opaque strings (typically trading dates) compared for exact
equality; no date parsing happens anywhere. Two series are made comparable
by an inner join on their keys (:func:`align`), which is how e.g. holiday
rows present in only one market's file get dropped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import length_hint
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyFile,
    MissingColumn,
    NoCommonKeys,
    NonFiniteValue,
    ParseError,
)


@dataclass(frozen=True)
class TimeSeries:
    """Ordered (key, value) observations of one instrument or signal.

    Invariants enforced at construction: keys and values have equal length
    >= 1, keys are unique, and every value is finite.
    """

    keys: tuple[str, ...]
    values: np.ndarray
    name: str = "series"

    def __post_init__(self) -> None:
        keys = tuple(map(str, self.keys))
        self._set_checked(keys, self.values)
        if len(set(keys)) != len(keys):
            raise DuplicateKey(
                f"duplicate key {keys[_first_repeat(keys)]!r} in series {self.name!r}"
            )

    @classmethod
    def _with_unique_keys(
        cls, keys: tuple[str, ...], values: np.ndarray, name: str
    ) -> TimeSeries:
        """A series whose keys are known to be unique strings; values are checked."""
        series = object.__new__(cls)
        object.__setattr__(series, "name", name)
        series._set_checked(keys, values)
        return series

    def _set_checked(self, keys: tuple[str, ...], values: np.ndarray) -> None:
        values = np.array(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if len(keys) != values.size:
            raise ValueError(
                f"{len(keys)} keys but {values.size} values in series {self.name!r}"
            )
        if values.size < 1:
            raise ValueError("a series needs at least one observation")
        finite = np.isfinite(values)
        if not finite.all():
            bad = int(finite.argmin())
            raise NonFiniteValue(
                f"non-finite value at position {bad} (key {keys[bad]!r}) "
                f"in series {self.name!r}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AlignResult:
    """Inner-joined series pair plus how many rows each side lost."""

    a: TimeSeries
    b: TimeSeries
    dropped_a: int
    dropped_b: int


def read_csv(
    path: str | Path,
    key_column: str,
    value_column: str,
    name: str | None = None,
) -> TimeSeries:
    """Read one series from a CSV file.

    The first row must be a header containing both column names. Rows are
    kept in file order. Values must parse as finite decimals (plain or
    scientific notation); keys must be unique. The reported row of a bad
    cell counts CSV records, blank lines included, with the header as row 1.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")  # drops a leading BOM
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not text:
        raise EmptyFile(f"{path}: file is empty")
    # Without a quote character, csv.reader's rules reduce to plain splits.
    tokenize = _quoted_columns if '"' in text else _split_columns
    keys, cells, rows, stop = tokenize(text, path, key_column, value_column)

    # Every entry is checked column-wise; the first bad one in file order
    # (and, within one record, the first failing check) is the error raised.
    # ``stop`` ended the reading after the last entry, so it comes last.
    n, error = len(cells), stop
    remaining = iter(cells)
    try:
        values = np.fromiter(map(float, remaining), float, n)
    except ValueError:
        n -= length_hint(remaining) + 1  # the index of the cell that failed
        error = ParseError(
            f"{path}: row {rows[n]}, column {value_column!r}: "
            f"cannot parse {cells[n]!r} as a decimal"
        )
        values = np.fromiter(map(float, cells[:n]), float, n)
    finite = np.isfinite(values)
    if not finite.all():
        n = int(finite.argmin())
        error = ParseError(
            f"{path}: row {rows[n]}, column {value_column!r}: "
            f"non-finite value {cells[n]!r}"
        )
    if len(set(islice(keys, n))) != n:
        n = _first_repeat(keys)
        error = DuplicateKey(f"{path}: duplicate key {keys[n]!r} at row {rows[n]}")
    if error is not None:
        raise error
    if not keys:
        raise EmptyFile(f"{path}: no data rows")
    return TimeSeries._with_unique_keys(tuple(keys), values, name or value_column)


# What a tokenizer hands on: the key and value cells of each data record, in
# file order, the file row number of each, and the error of the record that
# ended the reading early (or None).
_Columns = tuple[list[str], list[str], Sequence[int], Optional[ParseError]]


def _split_columns(text: str, path: Path, key_column: str, value_column: str) -> _Columns:
    """Tokenize non-empty, quote-free text.

    Records end at \\r\\n, \\r or \\n and fields at commas, as in csv.reader.
    """
    data = text.replace("\r\n", "\n").replace("\r", "\n")
    if not data.endswith("\n"):
        data += "\n"
    # "," and "\n" are single bytes in UTF-8 that no other character's encoding
    # contains, so each record's size and comma count can be read from the bytes.
    raw = np.frombuffer(data.encode(), np.uint8)
    ends = np.flatnonzero(raw == ord("\n"))
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends), prepend=0)
    sizes = np.diff(ends, prepend=-1) - 1  # record r is file row r + 1
    del raw
    # The fields of every record in file order: a blank record adds one "",
    # and the final terminator one more.
    flat = data.replace("\n", ",").split(",")
    starts = np.concatenate(([0], np.cumsum(commas + 1)))  # record r's first field

    long_row = _long_field_row(data, sizes)
    if long_row == 1:
        raise _field_limit_error(path, 1)
    header = flat[: commas[0] + 1] if sizes[0] else []  # a blank record has no field
    key_idx, value_idx = _column_indices(header, path, key_column, value_column)
    need = max(key_idx, value_idx)  # the commas a record needs to hold both cells
    end, stop = ends.size, None
    short = np.flatnonzero((commas < need) & (sizes > 0))
    if short.size:
        end = int(short[0])
        stop = ParseError(f"{path}: row {end + 1} has only {commas[end] + 1} fields")
    if long_row is not None and long_row - 1 <= end:
        end = long_row - 1  # csv.reader fails on the field before counting them
        stop = _field_limit_error(path, long_row)
    if end <= 1:
        return [], [], [], stop

    body = slice(1, end)
    if sizes[body].all() and commas[body].min() == commas[body].max():
        width = int(commas[1]) + 1
        first, last = int(starts[1]), int(starts[end])
        return (
            flat[first + key_idx : last : width],
            flat[first + value_idx : last : width],
            range(2, end + 1),
            stop,
        )
    records = np.flatnonzero(sizes[body]) + 1
    first = starts[records]
    keys = list(map(flat.__getitem__, (first + key_idx).tolist()))
    cells = list(map(flat.__getitem__, (first + value_idx).tolist()))
    return keys, cells, (records + 1).tolist(), stop


def _quoted_columns(text: str, path: Path, key_column: str, value_column: str) -> _Columns:
    """Tokenize non-empty text with :mod:`csv`'s default dialect."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)  # the text is not empty, so it holds a record
    except csv.Error as exc:
        raise ParseError(f"{path}: row 1: {exc}") from None
    key_idx, value_idx = _column_indices(header, path, key_column, value_column)
    need = max(key_idx, value_idx)
    keys: list[str] = []
    cells: list[str] = []
    rows: list[int] = []
    row_no = 1
    try:
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line
            if len(row) <= need:
                return keys, cells, rows, ParseError(
                    f"{path}: row {row_no} has only {len(row)} fields"
                )
            keys.append(row[key_idx])
            cells.append(row[value_idx])
            rows.append(row_no)
    except csv.Error as exc:
        return keys, cells, rows, ParseError(f"{path}: row {row_no + 1}: {exc}")
    return keys, cells, rows, None


def _column_indices(
    header: list[str], path: Path, key_column: str, value_column: str
) -> tuple[int, int]:
    header = [cell.strip() for cell in header]  # "key, value" names "value"
    for column in (key_column, value_column):
        if column not in header:
            raise MissingColumn(f"{path}: no column {column!r} in header {header}")
    return header.index(key_column), header.index(value_column)


def _long_field_row(data: str, sizes: np.ndarray) -> Optional[int]:
    """The file row of the first record holding a field csv.reader refuses."""
    limit = csv.field_size_limit()
    if sizes.max() <= limit:  # bytes, so at least the characters
        return None
    for r, line in enumerate(data.split("\n")):
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            return r + 1
    return None


def _field_limit_error(path: Path, row_no: int) -> ParseError:
    return ParseError(
        f"{path}: row {row_no}: field larger than field limit ({csv.field_size_limit()})"
    )


def _first_repeat(keys: Sequence[str]) -> int:
    """Index of the first key equal to an earlier one; the keys must hold a repeat."""
    seen: set[str] = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    raise ValueError("no repeated key")


def align(a: TimeSeries, b: TimeSeries) -> AlignResult:
    """Inner-join two series on their keys, preserving ``a``'s order.

    Rows whose key appears in only one input are dropped from both outputs;
    the result reports how many rows each side lost. Aligning already-aligned
    series is the identity. Both outputs share one key tuple, ``a.keys``
    itself when ``a`` loses no row.
    """
    position_b = dict(zip(b.keys, range(len(b))))
    idx_b = np.fromiter(map(position_b.get, a.keys, repeat(-1)), np.intp, len(a))
    found = idx_b >= 0
    kept = int(np.count_nonzero(found))
    if not kept:
        raise NoCommonKeys(
            f"series {a.name!r} and {b.name!r} share no keys "
            f"({len(a)} vs {len(b)} rows)"
        )
    if kept == len(a):
        keys, values_a = a.keys, a.values
    else:
        keys = tuple(compress(a.keys, found.tolist()))
        values_a, idx_b = a.values[found], idx_b[found]
    new_a = TimeSeries._with_unique_keys(keys, values_a, a.name)
    new_b = TimeSeries._with_unique_keys(keys, b.values[idx_b], b.name)
    return AlignResult(new_a, new_b, len(a) - kept, len(b) - kept)
