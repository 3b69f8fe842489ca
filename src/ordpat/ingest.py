"""Time series container, CSV reading, and key alignment.

Keys are opaque strings (typically trading dates) compared for exact
equality; no date parsing happens anywhere. Two series are made comparable
by an inner join on their keys (:func:`align`), which is how e.g. holiday
rows present in only one market's file get dropped.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

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
        keys = tuple(str(k) for k in self.keys)
        values = np.array(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if len(keys) != values.size:
            raise ValueError(
                f"{len(keys)} keys but {values.size} values in series {self.name!r}"
            )
        if values.size < 1:
            raise ValueError("a series needs at least one observation")
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise NonFiniteValue(
                f"non-finite value at position {bad} (key {keys[bad]!r}) "
                f"in series {self.name!r}"
            )
        if len(set(keys)) != len(keys):
            seen: set[str] = set()
            for k in keys:
                if k in seen:
                    raise DuplicateKey(f"duplicate key {k!r} in series {self.name!r}")
                seen.add(k)
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
    scientific notation); keys must be unique.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]  # "key, value" names "value"
        except StopIteration:
            raise EmptyFile(f"{path}: file is empty") from None
        for column in (key_column, value_column):
            if column not in header:
                raise MissingColumn(f"{path}: no column {column!r} in header {header}")
        key_idx = header.index(key_column)
        value_idx = header.index(value_column)

        keys: list[str] = []
        values: list[float] = []
        seen: set[str] = set()
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line
            if len(row) <= max(key_idx, value_idx):
                raise ParseError(f"{path}: row {row_no} has only {len(row)} fields")
            key = row[key_idx]
            cell = row[value_idx]
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
            if key in seen:
                raise DuplicateKey(f"{path}: duplicate key {key!r} at row {row_no}")
            seen.add(key)
            keys.append(key)
            values.append(value)

    if not keys:
        raise EmptyFile(f"{path}: no data rows")
    return TimeSeries(tuple(keys), np.asarray(values), name or value_column)


def align(a: TimeSeries, b: TimeSeries) -> AlignResult:
    """Inner-join two series on their keys, preserving ``a``'s order.

    Rows whose key appears in only one input are dropped from both outputs;
    the result reports how many rows each side lost. Aligning already-aligned
    series is the identity.
    """
    keys_b = {k: i for i, k in enumerate(b.keys)}
    kept = [(i, keys_b[k]) for i, k in enumerate(a.keys) if k in keys_b]
    if not kept:
        raise NoCommonKeys(
            f"series {a.name!r} and {b.name!r} share no keys "
            f"({len(a)} vs {len(b)} rows)"
        )
    idx_a = [i for i, _ in kept]
    idx_b = [j for _, j in kept]
    common_keys = tuple(a.keys[i] for i in idx_a)
    new_a = TimeSeries(common_keys, a.values[idx_a], a.name)
    new_b = TimeSeries(common_keys, b.values[idx_b], b.name)
    return AlignResult(new_a, new_b, len(a) - len(kept), len(b) - len(kept))
