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

from .errors import NonFiniteValue, RankOutOfRange, SeriesTooShort, WindowTooShort
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
    return OrdinalPattern(tuple(_descending_argsort(values[None], epsilon)[0].tolist()))


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


@dataclass(frozen=True)
class PatternSequence:
    """The ordered patterns extracted from one series under a window scheme.

    ``rows`` is an (n_windows, order+1) integer matrix; row i is the index
    tuple of window i. It is stored column-major (a read-only view of the
    contiguous (order+1, n_windows) transpose), so ranking walks contiguous
    columns; use :meth:`patterns` or indexing for :class:`OrdinalPattern`
    objects.
    """

    order: int
    scheme: WindowScheme
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asfortranarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != self.order + 1:
            raise ValueError(
                f"rows must be (n, {self.order + 1}), got shape {rows.shape}"
            )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @cached_property
    def ranks(self) -> np.ndarray:
        """Read-only :func:`lex_rank` of every row, computed once on first use.

        All pattern counting and comparison works on these integers.
        """
        return _rank_rows(self.rows)

    @cached_property
    def _reflected_ranks(self) -> np.ndarray:
        # Ranks of the rows read right-to-left, i.e. of the reflected patterns;
        # the reversed rows are a view, their columns in reverse order.
        return _rank_rows(self.rows[:, ::-1])

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i: int) -> OrdinalPattern:
        return OrdinalPattern(tuple(int(v) for v in self.rows[i]))

    def __iter__(self) -> Iterator[OrdinalPattern]:
        for i in range(len(self)):
            yield self[i]

    def patterns(self) -> tuple[OrdinalPattern, ...]:
        return tuple(self)


def _descending_argsort(windows: np.ndarray, epsilon: float = 0.0) -> np.ndarray:
    # Pattern rows of a stack of windows along the last axis. A stable sort on
    # the negated values keeps equal values in index order (the tie rule); with
    # epsilon > 0, sorted neighbours at most epsilon apart chain into one group
    # and each group is relisted by index.
    if not epsilon >= 0.0:  # false for NaN as well
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    order = np.argsort(-windows, axis=-1, kind="stable")
    if epsilon > 0.0:
        ranked = np.take_along_axis(windows, order, axis=-1)
        steps = np.diff(ranked, axis=-1, prepend=ranked[..., :1])  # <= 0; the first is 0
        group = np.cumsum(steps < -epsilon, axis=-1)
        width = order.shape[-1]
        order = np.sort(group * width + order, axis=-1) % width
    return order


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
    windows = values[np.arange(0, values.size - h, stride)[:, None] + np.arange(h + 1)]
    cols = np.ascontiguousarray(_descending_argsort(windows, epsilon).T, dtype=np.int16)
    return PatternSequence(h, scheme, cols.T)


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
) -> tuple[PatternSequence, np.ndarray, Union[int, np.ndarray]]:
    """Patterns of the stretches ``series[starts[i] : starts[i] + lengths[i]]``.

    Returns ``(seq, lo, count)``: the windows of stretch i are rows
    ``lo[i] : lo[i] + count[i]`` of ``seq``. Each phase ``p = start % stride``
    in use (SLIDING has only phase 0) is extracted once, as
    ``pattern_sequence(values[p:], h, scheme, epsilon)``; the phases are
    joined in order, so the window starting at point s is row
    ``offset[s % stride] + s // stride``.
    """
    stride = _stride(h, scheme)
    starts = np.asarray(starts, dtype=np.int64)
    # Not np.unique: under numpy 2.4 its plain form imports numpy.ma, which
    # adds about 10 ms to a CLI call. With no stretch, phase 0 still checks
    # the series.
    phases = sorted(set((starts % stride).tolist())) or [0]
    offset = np.zeros(stride, dtype=np.int64)
    seqs: list[PatternSequence] = []
    for p in phases:
        offset[p] = sum(len(seq) for seq in seqs)
        seqs.append(pattern_sequence(series.values[p:], h, scheme, epsilon))
    if len(seqs) > 1:
        cols = np.concatenate([seq.rows.T for seq in seqs], axis=1)
        seqs = [PatternSequence(h, scheme, cols.T)]
    count = (lengths - h - 1) // stride + 1
    return seqs[0], offset[starts % stride] + starts // stride, count


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Vectorized :func:`lex_rank` over the rows of a pattern matrix (read-only).

    Works column by column: ``cols[j]`` is position j of every pattern, so
    each step compares contiguous columns when ``rows`` is column-major.
    """
    cols = rows.T
    width = cols.shape[0]
    ranks = np.zeros(cols.shape[1], dtype=np.int64)
    for j in range(width - 1):
        ranks += (cols[j + 1 :] < cols[j]).sum(axis=0) * math.factorial(width - 1 - j)
    ranks.setflags(write=False)
    return ranks
