"""Ordinal patterns: extraction, reflection, ranking, and window schemes.

The ordinal pattern of ``h+1`` consecutive values is the permutation of their
time indices listed by descending value, e.g. ``(0.0, 2.0, 1.0, 3.0)`` gives
``(3, 1, 2, 0)`` because value 3 at index 3 is the largest, then index 1,
then index 2, then index 0. Equal values are listed earlier-index-first, so
an all-equal window yields the identity pattern ``(0, 1, ..., h)``.

Only the up/down shape of the data enters a pattern: applying any strictly
increasing function to a window leaves its pattern unchanged, and negating a
tie-free window reverses the pattern tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import (
    NonFiniteValue,
    RankOutOfRange,
    SeriesTooShort,
    UnsupportedOrder,
    WindowTooShort,
)
from .ingest import TimeSeries


class WindowScheme(Enum):
    """How consecutive pattern windows advance along a series.

    SLIDING moves the window start forward one observation at a time. BLOCK
    moves it forward by h, so consecutive blocks share exactly one boundary
    point (the last value of one window is the first value of the next).
    """

    SLIDING = "sliding"
    BLOCK = "block"


@dataclass(frozen=True)
class OrdinalPattern:
    """A permutation of {0..h} encoding the shape of h+1 consecutive values.

    ``indices`` lists the window positions by descending value, ties broken
    by the smaller position first.
    """

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = tuple(int(i) for i in self.indices)
        if len(indices) < 2:
            raise WindowTooShort(f"a pattern needs order >= 1, got {indices}")
        if sorted(indices) != list(range(len(indices))):
            raise ValueError(f"{indices} is not a permutation of 0..{len(indices) - 1}")
        object.__setattr__(self, "indices", indices)

    @property
    def order(self) -> int:
        """Number of increments the pattern spans (= len(indices) - 1)."""
        return len(self.indices) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __str__(self) -> str:
        return pattern_label(self.indices)


def pattern_label(indices: Sequence[int]) -> str:
    """Text form of a pattern's index tuple, e.g. ``(3,1,2,0)``."""
    return "(" + ",".join(map(str, indices)) + ")"


def extract_pattern(window: Sequence[float], epsilon: float = 0.0) -> OrdinalPattern:
    """Return the ordinal pattern of one window of at least two finite values.

    With ``epsilon > 0``, values whose gap in the descending order is at most
    ``epsilon`` are chained into one tie group and listed by index; the
    default 0.0 treats only exactly equal values as tied.

    >>> str(extract_pattern((0.0, 2.0, 1.0, 3.0)))
    '(3,1,2,0)'
    >>> str(extract_pattern((5.0, 5.0, 1.0)))
    '(0,1,2)'
    """
    values = np.asarray(window, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise WindowTooShort(f"window must hold >= 2 values, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"window contains NaN or infinity: {values.tolist()}")
    # Indices by descending key, equal keys in index order, as in the kernel.
    keys = _window_keys(values, values.size - 1, 1, epsilon)[:, 0]
    return OrdinalPattern(tuple(np.argsort(-keys, kind="stable").tolist()))


def reflect(pattern: OrdinalPattern) -> OrdinalPattern:
    """Return the pattern read right-to-left (an involution).

    For tie-free data this is the pattern of the negated window.
    """
    return OrdinalPattern(pattern.indices[::-1])


def lex_rank(pattern: OrdinalPattern) -> int:
    """Lexicographic rank of the index tuple among all (h+1)! permutations."""
    indices = pattern.indices
    n = len(indices)
    rank = 0
    for j, v in enumerate(indices):
        smaller_after = sum(1 for u in indices[j + 1 :] if u < v)
        rank += smaller_after * math.factorial(n - 1 - j)
    return rank


def rank_to_pattern(rank: int, h: int) -> OrdinalPattern:
    """Inverse of :func:`lex_rank` for patterns of order ``h``."""
    size = math.factorial(h + 1)
    if not 0 <= rank < size:
        raise RankOutOfRange(f"rank {rank} outside [0, {size - 1}] for order h={h}")
    available = list(range(h + 1))
    indices: list[int] = []
    for j in range(h, -1, -1):
        digit, rank = divmod(rank, math.factorial(j))
        indices.append(available.pop(digit))
    return OrdinalPattern(tuple(indices))


class PatternSequence:
    """The ordered patterns extracted from one series under a window scheme.

    Each window is stored only as its code ``sum_p b_p * p!``, one read-only
    int64 that all counting and comparison works on; the digit ``b_p``, p =
    1..order, counts the earlier indices q < p that stand after index p in
    the pattern, so ``0 <= b_p <= p``. Exact windows of both schemes get
    their digits from the sliding recurrence, the others from the comparison
    kernel, and only the codes are kept. ``rows``, the (n_windows, order+1)
    int16 index tuples that indexing and iteration read, and :attr:`ranks`
    are decoded from the codes on first use. Orders h >= 20, whose codes
    overflow int64, are refused.

    ``PatternSequence(order, scheme, rows)`` builds a sequence from explicit
    rows; each row must be a permutation of ``0..order``.
    """

    def __init__(self, order: int, scheme: WindowScheme, rows: Sequence[Sequence[int]]) -> None:
        _check_order(order)
        rows = np.asarray(rows)
        width = order + 1
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows must be (n, {width}), got shape {rows.shape}")
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() > order):
            raise ValueError(f"rows must hold permutations of 0..{order}")
        # places[p, i] is where index p stands in row i; an index missing from
        # a row (another one repeated) keeps its -1.
        places = np.full((width, rows.shape[0]), -1, dtype=np.int8)
        np.put_along_axis(places, rows.T, np.arange(width, dtype=places.dtype)[:, None], axis=0)
        if (places < 0).any():
            raise ValueError(f"rows must hold permutations of 0..{order}")
        self.order, self.scheme, self._codes = order, scheme, _horner(_pattern_codes(-places))

    @classmethod
    def _from_codes(cls, order: int, scheme: WindowScheme, codes: np.ndarray) -> "PatternSequence":
        seq = cls.__new__(cls)
        seq.order, seq.scheme, seq._codes = order, scheme, codes
        codes.setflags(write=False)
        return seq

    @cached_property
    def ranks(self) -> np.ndarray:
        """Read-only :func:`lex_rank` of every window, computed once on first use.

        Only listing patterns in lexicographic order needs them; counting and
        comparison run on cheaper per-window codes.
        """
        # Index p stands at place q_p with b_p smaller indices after it, so it
        # adds the Lehmer digit b_p at place q_p: rank = sum_p b_p * (h - q_p)!.
        weight = np.array([math.factorial(k) for k in range(self.order, -1, -1)], np.int64)
        digits = _code_digits(self._codes, self.order)
        places = _decode_places(digits)[1:]
        ranks = (digits * weight[places]).sum(axis=0, dtype=np.int64)
        ranks.setflags(write=False)
        return ranks

    @cached_property
    def rows(self) -> np.ndarray:
        """Read-only (n_windows, order+1) int16 index tuples, built on first use."""
        # rows[i, places[p, i]] = p, as a read-only view of the (h+1, n) transpose.
        places = _decode_places(_code_digits(self._codes, self.order))
        cols = np.empty(places.shape, dtype=np.int16)
        np.put_along_axis(cols, places, np.arange(self.order + 1, dtype=np.int16)[:, None], axis=0)
        cols.setflags(write=False)
        return cols.T

    def __len__(self) -> int:
        return self._codes.size

    def __getitem__(self, i: int) -> OrdinalPattern:
        return OrdinalPattern(tuple(int(v) for v in self.rows[i]))

    def __iter__(self) -> Iterator[OrdinalPattern]:
        for i in range(len(self)):
            yield self[i]

    def patterns(self) -> tuple[OrdinalPattern, ...]:
        return tuple(self)


def _pattern_codes(keys: np.ndarray) -> np.ndarray:
    """The comparison kernel: the (h, n_windows) digits of the windows in ``keys``.

    It serves windows with ``epsilon > 0`` and explicit rows; exact windows
    take the sliding recurrence of :func:`_sliding_digits`. ``keys`` is
    (h+1, n_windows); column i holds window i's keys, and its pattern lists
    indices by descending key, equal keys earlier index first. Row p-1 of
    the result is ``b_p``: the count of earlier indices q < p with a smaller
    key, which are the earlier indices standing after p. Only the strict
    comparisons ``keys[p] > keys[q]`` for q < p enter, one call per p.
    """
    width, n = keys.shape
    digits = np.empty((width - 1, n), np.int8)
    for p in range(1, width):
        # 1 where p's key is larger than earlier index q's; bytes read as int8.
        (keys[p] > keys[:p]).view(np.int8).sum(axis=0, dtype=np.int8, out=digits[p - 1])
    return digits


def _sliding_digits(values: np.ndarray, h: int) -> np.ndarray:
    # The kernel's digits of every sliding window with exact ties (every h-th
    # column for block windows), by the inversion-count recurrence: with
    # D_k[s] = #{j in 1..k : x[s-j] < x[s]}, b_p(t) = D_p[t+p] and D_k =
    # D_{k-1} + [x[s-k] < x[s]]. Row k of buf holds D_k from point k on: one
    # comparison of two shifted slices plus row k-1 read one point later. Its
    # first N - h columns are the digits. The comparison writes its 0/1 bytes
    # through a bool view, with no cast to int8.
    n = values.size
    buf = np.zeros((h + 1, n), np.int8)
    for k in range(1, h + 1):
        row = buf[k, : n - k]
        np.less(values[: n - k], values[k:], out=row.view(np.bool_))
        row += buf[k - 1, 1 : n - k + 1]
    return buf[1:, : n - h]


def _decode_places(digits: np.ndarray) -> np.ndarray:
    # places[p, i] is where index p stands in window i's pattern, by
    # insertion: among indices 0..p, index p stands at p - b_p, and the
    # earlier indices at or after that place move back one.
    h, n = digits.shape
    places = np.zeros((h + 1, n), digits.dtype)
    for p in range(1, h + 1):
        np.subtract(p, digits[p - 1], out=places[p])
        places[:p] += places[:p] >= places[p]
    return places


def _code_digits(codes: np.ndarray, order: int) -> np.ndarray:
    # The digits of codes sum_p b_p * p!, b_p in [0, p]: b_p = code // p! mod (p+1).
    digits = np.empty((order, codes.size), np.int8)
    for p in range(1, order + 1):
        codes, digits[p - 1] = np.divmod(codes, p + 1)
    return digits


def _horner(digits: np.ndarray) -> np.ndarray:
    # Read-only int64 code = sum_p b_p * p! of each column of the (h, n) digits,
    # one-to-one with the patterns on [0, (h+1)!). Read right-to-left, b_p becomes
    # p - b_p, so the reflected pattern's code is (h+1)! - 1 - code. Horner's rule.
    codes = digits[-1].astype(np.int64)
    for p in range(digits.shape[0] - 1, 0, -1):
        codes *= p + 1
        codes += digits[p - 1]
    codes.setflags(write=False)
    return codes


def _check_order(order: int) -> None:
    # Below the int64 limit, h <= 19, every digit and place fits in int8.
    if order < 1:
        raise ValueError(f"order h must be >= 1, got {order}")
    if math.factorial(order + 1) > 2**63:
        raise UnsupportedOrder(f"ranks of order h={order} overflow 64-bit integers (h <= 19)")


def _window_keys(values: np.ndarray, h: int, stride: int, epsilon: float) -> np.ndarray:
    # The (h+1, n_windows) key matrix of the windows starting at 0, stride,
    # 2*stride, ..., read through a strided view: keys[p, t] = values[t *
    # stride + p]. With epsilon == 0 (one window of extract_pattern) the keys
    # are those values themselves. With epsilon > 0, a stable sort finds each
    # window's tie groups (sorted neighbours at most epsilon apart chain into
    # one group) and the key of a value is minus its group number, so groups
    # keep their descending order and the indices inside a group fall back
    # to index order.
    if not 0.0 <= epsilon < math.inf:  # false for NaN as well
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    values = np.ascontiguousarray(values)
    size = values.itemsize
    n_windows = (values.size - h - 1) // stride + 1
    # The buffer comes from a fresh view: an exported array keeps its buffer
    # info until it dies, so exporting the caller's array would leave some
    # on every series ever extracted.
    keys = np.ndarray((h + 1, n_windows), values.dtype, values[:], 0, (size, size * stride))
    if epsilon > 0.0:
        order = np.argsort(-keys, axis=0, kind="stable")
        cols = np.arange(n_windows)
        ranked = keys[order, cols]
        # A gap of more than epsilon to the previous sorted value opens a group;
        # one past the largest float (near +-1e308) is inf, above any epsilon.
        group = np.zeros(order.shape, dtype=np.intp)
        with np.errstate(over="ignore"):
            np.cumsum(ranked[:-1] - ranked[1:] > epsilon, axis=0, out=group[1:])
        keys = np.empty_like(group)
        keys[order, cols] = np.negative(group, out=group)
    return keys


def pattern_sequence(
    series: Union[TimeSeries, Sequence[float]],
    h: int,
    scheme: WindowScheme = WindowScheme.SLIDING,
    epsilon: float = 0.0,
) -> PatternSequence:
    """Extract the pattern of every window of ``h+1`` consecutive values.

    ``series`` may be a :class:`TimeSeries` or any one-dimensional sequence
    of finite floats. SLIDING yields ``N - h`` patterns, BLOCK yields
    ``floor((N - 1) / h)``.
    """
    stride = _stride(h, scheme)
    if isinstance(series, TimeSeries):
        values = series.values
    else:
        values = np.asarray(series, dtype=float)
        if values.ndim != 1:
            raise ValueError("series must be one-dimensional")
        if not np.isfinite(values).all():
            raise NonFiniteValue("series contains NaN or infinity")
    if values.size < h + 1:
        raise SeriesTooShort(f"need >= {h + 1} points for order h={h}, got {values.size}")
    if epsilon == 0.0:
        digits = _sliding_digits(values, h)[:, ::stride]
    else:
        digits = _pattern_codes(_window_keys(values, h, stride, epsilon))
    return PatternSequence._from_codes(h, scheme, _horner(digits))


def _stride(h: int, scheme: WindowScheme) -> int:
    # Block windows start at 0, h, 2h, ...; consecutive blocks share one point.
    _check_order(h)
    return 1 if scheme is WindowScheme.SLIDING else h

