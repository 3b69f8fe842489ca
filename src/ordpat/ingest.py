"""Time series container, CSV reading, and key alignment.

Keys are opaque strings (typically trading dates) compared for exact
equality; no date parsing happens anywhere. Two series are made comparable
by an inner join on their keys (:func:`align`), which is how e.g. holiday
rows present in only one market's file get dropped.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DuplicateKey,
    EmptyFile,
    MissingColumn,
    NoCommonKeys,
    NonFiniteValue,
    NotAligned,
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
        # A tuple of exact strs is kept as given, so series built from one
        # key tuple share it and _check_aligned passes them by identity.
        if type(self.keys) is tuple and all(map(operator.is_, keys, self.keys)):
            keys = self.keys
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
    columns = _plain_columns(text, key_column, value_column)
    keys, values = columns or _read_records(text, path, key_column, value_column)
    return TimeSeries._with_unique_keys(keys, values, name or value_column)


def _plain_columns(
    text: str, key_column: str, value_column: str
) -> Optional[tuple[tuple[str, ...], np.ndarray]]:
    """The columns of a plain file, read by splits; None for any other file.

    A file is plain when it holds no quote character and, once trailing line
    terminators are dropped, it is a header naming both columns and at least
    one data record, no record is blank, all have one comma count and none
    is longer than csv's field limit, and every value is a finite decimal
    under a unique key. csv.reader's rules then reduce to splitting records
    at \\r\\n, \\r or \\n and fields at commas. Never raises: every other
    file is left to :func:`_read_records`, which owns every error.
    """
    if '"' in text:
        return None
    data = text.replace("\r\n", "\n").replace("\r", "\n").rstrip("\n")
    # "," and "\n" are single bytes in UTF-8 that no other character's encoding
    # contains, so each record's size and comma count can be read from the bytes.
    raw = np.frombuffer(data.encode(), np.uint8)
    ends = np.append(np.flatnonzero(raw == ord("\n")), raw.size)
    sizes = np.diff(ends, prepend=-1) - 1
    commas = np.diff(np.searchsorted(np.flatnonzero(raw == ord(",")), ends), prepend=0)
    del raw
    if (
        ends.size < 2
        or sizes.min() == 0
        or sizes.max() > csv.field_size_limit()  # bytes, so at least the characters
        or commas.min() != commas.max()
    ):
        return None
    fields = data.replace("\n", ",").split(",")
    width = int(commas[0]) + 1
    header = [cell.strip() for cell in fields[:width]]  # "key, value" names "value"
    if key_column not in header or value_column not in header:
        return None
    keys = tuple(fields[width + header.index(key_column) :: width])
    cells = fields[width + header.index(value_column) :: width]
    try:
        values = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None
    if not np.isfinite(values).all() or len(set(keys)) != len(keys):
        return None
    return keys, values


def _read_records(
    text: str, path: Path, key_column: str, value_column: str
) -> tuple[tuple[str, ...], list[float]]:
    """Read non-empty text with csv's default dialect, one record at a time.

    Each record is checked in file order and the first failing check raises.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = [cell.strip() for cell in next(reader)]  # the text holds a record
    except csv.Error as exc:
        raise ParseError(f"{path}: row 1: {exc}") from None
    for column in (key_column, value_column):
        if column not in header:
            raise MissingColumn(f"{path}: no column {column!r} in header {header}")
    key_idx, value_idx = header.index(key_column), header.index(value_column)
    need = max(key_idx, value_idx)
    series: dict[str, float] = {}
    row_no = 1
    try:
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line
            if len(row) <= need:
                raise ParseError(f"{path}: row {row_no} has only {len(row)} fields")
            key, cell = row[key_idx], row[value_idx]
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}, column {value_column!r}: "
                    f"cannot parse {cell!r} as a decimal"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: row {row_no}, column {value_column!r}: "
                    f"non-finite value {cell!r}"
                )
            if key in series:
                raise DuplicateKey(f"{path}: duplicate key {key!r} at row {row_no}")
            series[key] = value
    except csv.Error as exc:
        raise ParseError(f"{path}: row {row_no + 1}: {exc}") from None
    if not series:
        raise EmptyFile(f"{path}: no data rows")
    return tuple(series), list(series.values())


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


def _check_aligned(x: TimeSeries, y: TimeSeries) -> None:
    """Raise :class:`NotAligned` unless the two series have the same keys."""
    if x.keys is y.keys:  # align() gives both series one key tuple
        return
    if len(x) != len(y):
        raise NotAligned(
            f"series {x.name!r} has {len(x)} rows, {y.name!r} has {len(y)}; "
            "align them first"
        )
    if x.keys != y.keys:
        raise NotAligned(
            f"series {x.name!r} and {y.name!r} have different keys; align them first"
        )
