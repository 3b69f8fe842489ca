"""Brute-force reference implementations the tests check against.

Everything here is deliberately naive (builtin sort, per-window loops) and
independent of the library's vectorized code paths.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence


def sort_pattern(window: Sequence[float], epsilon: float = 0.0) -> tuple[int, ...]:
    """Positions sorted by descending value, equal values earlier-index-first.

    With ``epsilon > 0``, neighbours in that order at most ``epsilon`` apart
    are chained into one tie group, and each group is listed by index.
    """
    order = sorted(range(len(window)), key=lambda i: (-window[i], i))
    if epsilon == 0.0:
        return tuple(order)
    groups = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if window[prev] - window[cur] <= epsilon:
            groups[-1].append(cur)
        else:
            groups.append([cur])
    return tuple(i for group in groups for i in sorted(group))


def pattern_list(
    values: Sequence[float], h: int, epsilon: float = 0.0, stride: int = 1
) -> list[tuple[int, ...]]:
    """Pattern sequence via :func:`sort_pattern`; stride 1 slides, stride h blocks."""
    return [
        sort_pattern(values[i : i + h + 1], epsilon)
        for i in range(0, len(values) - h, stride)
    ]


def pair_counts(
    xs: Sequence[float], ys: Sequence[float], h: int
) -> tuple[int, int]:
    """(coincident, reflected) window counts for two equal-length series."""
    px = pattern_list(xs, h)
    py = pattern_list(ys, h)
    coincident = sum(1 for a, b in zip(px, py) if a == b)
    reflected = sum(1 for a, b in zip(px, py) if a == tuple(reversed(b)))
    return coincident, reflected


def pair_report(
    xs: Sequence[float], ys: Sequence[float], h: int, epsilon: float = 0.0, stride: int = 1
) -> dict:
    """Window count, coincident/reflected counts and independence baselines."""
    px = pattern_list(xs, h, epsilon, stride)
    py = pattern_list(ys, h, epsilon, stride)
    n = len(px)
    fx, fy = Counter(px), Counter(py)
    return {
        "n_windows": n,
        "n_coincident": sum(1 for a, b in zip(px, py) if a == b),
        "n_reflected": sum(1 for a, b in zip(px, py) if a == tuple(reversed(b))),
        "base_eq": sum(fx[p] / n * fy[p] / n for p in fx),
        "base_neq": sum(fx[p] / n * fy[tuple(reversed(p))] / n for p in fx),
    }


def inversion_code(pattern: Sequence[int]) -> int:
    """Factorial-base code of an index tuple: the sum over p of ``b_p * p!``.

    ``b_p`` counts the indices q < p that the tuple lists after index p.
    """
    place = {index: at for at, index in enumerate(pattern)}
    code = 0
    for p in range(len(pattern)):
        after = sum(1 for q in range(p) if place[q] > place[p])
        code += after * math.factorial(p)
    return code


def three_point_pattern_from_increments(d1: float, d2: float) -> tuple[int, ...]:
    """The h=2 pattern dictated by the two increment signs and their sum.

    The six cases cover every finite window (a, b, c) with d1 = b - a and
    d2 = c - b, including the tie boundaries d1 = 0, d2 = 0, d1 + d2 = 0.
    """
    if d1 > 0 and d2 > 0:
        return (2, 1, 0)
    if d1 > 0 and d2 <= 0 and d1 + d2 > 0:
        return (1, 2, 0)
    if d1 > 0 and d2 <= 0 and d1 + d2 <= 0:
        return (1, 0, 2)
    if d1 <= 0 and d2 <= 0:
        return (0, 1, 2)
    if d1 <= 0 and d2 > 0 and d1 + d2 <= 0:
        return (0, 2, 1)
    if d1 <= 0 and d2 > 0 and d1 + d2 > 0:
        return (2, 0, 1)
    raise AssertionError(f"unreachable increment case: {d1}, {d2}")


def read_csv_rows(path, key_column: str, value_column: str) -> tuple[list[str], list[float]]:
    """Keys and values of one CSV series, read one ``csv.reader`` row at a time.

    Raises the library's typed errors with the messages ``ordpat.read_csv``
    gives, checking each row in file order.
    """
    import csv
    import math

    from ordpat.errors import DuplicateKey, EmptyFile, MissingColumn, ParseError

    with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
        reader = csv.reader(fh)
        try:
            header = [cell.strip() for cell in next(reader)]
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
    return keys, values


def dict_join(
    keys_a: Sequence[str], values_a: Sequence[float],
    keys_b: Sequence[str], values_b: Sequence[float],
) -> tuple[list[str], list[float], list[float], int, int]:
    """Inner join on keys in ``a``'s order: keys, both value lists, rows each side lost."""
    position_b = {k: i for i, k in enumerate(keys_b)}
    kept = [(i, position_b[k]) for i, k in enumerate(keys_a) if k in position_b]
    return (
        [keys_a[i] for i, _ in kept],
        [values_a[i] for i, _ in kept],
        [values_b[j] for _, j in kept],
        len(keys_a) - len(kept),
        len(keys_b) - len(kept),
    )
