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

import functools
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
    _, places = _pattern_codes(_window_keys(values, values.size - 1, 1, epsilon))
    return OrdinalPattern(tuple(np.argsort(places[:, 0]).tolist()))  # indices by place


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

    Each window is held as two small integer columns from the comparison
    kernel: where each index stands in its pattern, and how many earlier
    indices stand after it. Everything else is derived from them on first
    use and then kept: :attr:`ranks`, the ranks of the reflected patterns,
    and ``rows``, the read-only (n_windows, order+1) int16 matrix whose row i
    is the index tuple of window i, which indexing and iteration read for
    :class:`OrdinalPattern` objects.

    ``PatternSequence(order, scheme, rows)`` builds a sequence from explicit
    rows; each row must be a permutation of ``0..order``.
    """

    def __init__(self, order: int, scheme: WindowScheme, rows: Sequence[Sequence[int]]) -> None:
        rows = np.asarray(rows)
        width = order + 1
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError(f"rows must be (n, {width}), got shape {rows.shape}")
        if rows.size and (rows.dtype.kind not in "iu" or rows.min() < 0 or rows.max() > order):
            raise ValueError(f"rows must hold permutations of 0..{order}")
        # places[p, i] is where index p stands in row i; an index missing from
        # a row (another one repeated) keeps its -1.
        places = np.full((width, rows.shape[0]), -1, dtype=_counter_dtype(width))
        np.put_along_axis(places, rows.T, np.arange(width, dtype=places.dtype)[:, None], axis=0)
        if (places < 0).any():
            raise ValueError(f"rows must hold permutations of 0..{order}")
        self.order, self.scheme = order, scheme
        self._below, self._places = _pattern_codes(-places)

    @classmethod
    def _from_codes(
        cls, order: int, scheme: WindowScheme, below: np.ndarray, places: np.ndarray
    ) -> "PatternSequence":
        seq = cls.__new__(cls)
        seq.order, seq.scheme, seq._below, seq._places = order, scheme, below, places
        return seq

    @cached_property
    def ranks(self) -> np.ndarray:
        """Read-only :func:`lex_rank` of every window, computed once on first use.

        All pattern counting and comparison works on these integers.
        """
        # Index p stands at place q_p with b_p smaller indices after it, so it
        # adds the Lehmer digit b_p at place q_p: rank = sum_p b_p * (h - q_p)!.
        return _digit_sum(self._below, _digit_tables(self.order)[0], self._places)

    @cached_property
    def _reflected_ranks(self) -> np.ndarray:
        # Ranks of the windows read right-to-left: index p moves to place
        # h - q_p, and the p - b_p smaller indices ahead of it now follow it.
        index = np.arange(self.order + 1, dtype=self._below.dtype)[:, None]
        return _digit_sum(index - self._below, _digit_tables(self.order)[1], self._places)

    @cached_property
    def rows(self) -> np.ndarray:
        """Read-only (n_windows, order+1) int16 index tuples, built on first use."""
        return _rows(self._places)

    def __len__(self) -> int:
        return self._places.shape[1]

    def __getitem__(self, i: int) -> OrdinalPattern:
        return OrdinalPattern(tuple(int(v) for v in self.rows[i]))

    def __iter__(self) -> Iterator[OrdinalPattern]:
        for i in range(len(self)):
            yield self[i]

    def patterns(self) -> tuple[OrdinalPattern, ...]:
        return tuple(self)


#: Windows per block of the rank sums.
_BLOCK = 8192


def _counter_dtype(width: int) -> np.dtype:
    # The smallest signed type holding -width..width: int8 up to h = 126.
    return np.min_scalar_type(-width)


def _pattern_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The comparison kernel: ``(below, places)`` of the windows in ``keys``.

    ``keys`` is (h+1, n_windows); column i holds window i's keys, and its
    pattern lists indices by descending key, equal keys earlier index first.
    ``places[p, i]`` is where index p stands in that pattern and
    ``below[p, i]`` counts the earlier indices q < p with a smaller key, which
    are the earlier indices standing after p. Only the strict comparisons
    ``keys[p] > keys[q]`` for q < p enter, one call per p.
    """
    width, n = keys.shape
    dtype = _counter_dtype(width)
    below = np.zeros((width, n), dtype)
    places = np.zeros((width, n), dtype)
    for p in range(1, width):
        # 1 where p's key is larger than earlier index q's; bytes read as int8.
        larger = (keys[p] > keys[:p]).view(np.int8)
        larger.sum(axis=0, dtype=dtype, out=below[p])
        places[:p] += larger  # p stands ahead of those earlier indices
    # place = (later indices ahead, summed so far) + (earlier ones: p - below)
    places -= below
    places += np.arange(width, dtype=dtype)[:, None]
    return below, places


def _rows(places: np.ndarray) -> np.ndarray:
    # rows[i, places[p, i]] = p, as a read-only view of the (h+1, n) transpose.
    width = places.shape[0]
    cols = np.empty(places.shape, dtype=np.int16)
    np.put_along_axis(cols, places, np.arange(width, dtype=np.int16)[:, None], axis=0)
    cols.setflags(write=False)
    return cols.T


@functools.cache
def _digit_tables(order: int) -> np.ndarray:
    # Lehmer digit d at place q is worth d * (h - q)! in a rank (row 0) and
    # d * q! in a reflected rank (row 1), stored at d * (h+1) + q; read-only.
    if math.factorial(order + 1) > 2**63:
        raise UnsupportedOrder(f"ranks of order h={order} overflow 64-bit integers (h <= 19)")
    factorials = np.array([math.factorial(k) for k in range(order + 1)], dtype=np.int64)
    digits = np.arange(order + 1, dtype=np.int64)[:, None]
    tables = np.stack([(digits * factorials[::-1]).ravel(), (digits * factorials).ravel()])
    tables.setflags(write=False)
    return tables


def _digit_sum(digits: np.ndarray, table: np.ndarray, places: np.ndarray) -> np.ndarray:
    # sum_p table[digits[p] * (h+1) + places[p]] for every window, read-only
    # int64. Index 0's digit is always 0, so its row is skipped. Blocks of
    # windows keep the (h, block) temporaries small.
    width, n = places.shape
    total = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK):
        index = np.multiply(digits[1:, lo : lo + _BLOCK], width, dtype=np.int16)
        index += places[1:, lo : lo + _BLOCK]
        table.take(index).sum(axis=0, out=total[lo : lo + _BLOCK])
    total.setflags(write=False)
    return total


def _window_keys(values: np.ndarray, h: int, stride: int, epsilon: float) -> np.ndarray:
    # The (h+1, n_windows) key matrix of the windows starting at 0, stride,
    # 2*stride, ... With epsilon == 0 the keys are the values themselves, read
    # through a strided view: keys[p, t] = values[t * stride + p]. With
    # epsilon > 0, a stable sort finds each window's tie groups (sorted
    # neighbours at most epsilon apart chain into one group) and the key of a
    # value is minus its group number, so groups keep their descending order
    # and the indices inside a group fall back to index order.
    if not epsilon >= 0.0:  # false for NaN as well
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    values = np.ascontiguousarray(values)
    size = values.itemsize
    n_windows = (values.size - h - 1) // stride + 1
    # The buffer comes from a fresh view: an exported array keeps its buffer
    # info until it dies, so exporting the caller's array would leave some
    # on every series ever extracted.
    keys = np.ndarray((h + 1, n_windows), values.dtype, values[:], 0, (size, size * stride))
    if stride > 1:
        # One copy of about N values; comparing rows read with a stride of h
        # values is several times slower than comparing contiguous ones.
        keys = keys.copy()
    if epsilon > 0.0:
        order = np.argsort(-keys, axis=0, kind="stable")
        cols = np.arange(n_windows)
        ranked = keys[order, cols]
        # A gap of more than epsilon to the previous sorted value opens a group.
        group = np.zeros(order.shape, dtype=np.intp)
        np.cumsum(ranked[:-1] - ranked[1:] > epsilon, axis=0, out=group[1:])
        keys = np.empty_like(group)
        keys[order, cols] = -group
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
    codes = _pattern_codes(_window_keys(values, h, stride, epsilon))
    return PatternSequence._from_codes(h, scheme, *codes)


def _stride(h: int, scheme: WindowScheme) -> int:
    # Block windows start at 0, h, 2h, ...; consecutive blocks share one point.
    if h < 1:
        raise ValueError(f"order h must be >= 1, got {h}")
    return 1 if scheme is WindowScheme.SLIDING else h


def stretch_sequence(
    series: TimeSeries,
    h: int,
    scheme: WindowScheme,
    starts: np.ndarray,
    lengths: Union[int, np.ndarray],
    epsilon: float = 0.0,
) -> tuple[PatternSequence, np.ndarray, Union[int, np.ndarray], np.ndarray]:
    """Patterns of the stretches ``series[starts[i] : starts[i] + lengths[i]]``.

    Returns ``(seq, lo, count, phase)``: the windows of stretch i are rows
    ``lo[i] : lo[i] + count[i]`` of ``seq``, and its phase's windows are rows
    ``phase[i, 0] : phase[i, 1]``. Each phase ``p = start % stride`` in use
    (SLIDING has only phase 0) is extracted once, as
    ``pattern_sequence(values[p:], h, scheme, epsilon)``; the phases are
    joined in order, so the window starting at point s is row
    ``phase[i, 0] + s // stride`` for any stretch i in the phase of s.
    """
    stride = _stride(h, scheme)
    starts = np.asarray(starts, dtype=np.int64)
    # Not np.unique: under numpy 2.4 its plain form imports numpy.ma, which
    # adds about 10 ms to a CLI call. With no stretch, phase 0 still checks
    # the series.
    phases = sorted(set((starts % stride).tolist())) or [0]
    bounds = np.zeros((stride, 2), dtype=np.int64)  # each phase's rows [first, stop)
    seqs: list[PatternSequence] = []
    rows = 0
    for p in phases:
        seqs.append(pattern_sequence(series.values[p:], h, scheme, epsilon))
        bounds[p] = rows, rows + len(seqs[-1])
        rows += len(seqs[-1])
    if len(seqs) > 1:
        below = np.concatenate([seq._below for seq in seqs], axis=1)
        places = np.concatenate([seq._places for seq in seqs], axis=1)
        seqs = [PatternSequence._from_codes(h, scheme, below, places)]
    count = (lengths - h - 1) // stride + 1
    phase = bounds[starts % stride]
    return seqs[0], phase[:, 0] + starts // stride, count, phase
