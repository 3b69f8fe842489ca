"""Coincident/reflected pattern dependence between two aligned series.

Two series can agree in shape (their windows show the same pattern at the
same time) or mirror each other (one window's pattern is the other read
right-to-left). The estimators here compare the observed rate of each kind
of agreement against the product baseline expected under independence:

    p_eq   = share of windows with identical patterns
    p_neq  = share of windows with mutually reflected patterns
    alpha  = p_eq  - sum_pi  freqX(pi) * freqY(pi)
    beta   = p_neq - sum_pi  freqX(pi) * freqY(reflect(pi))

A positive alpha indicates positive (shape-following) dependence, a positive
beta negative (shape-mirroring) dependence. Both are model free: they use
only relative pattern frequencies, so they are invariant under strictly
increasing transforms of either series and robust to a few large outliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    DelayTooLarge,
    EmptySequence,
    LengthMismatch,
    NotAligned,
    OrderMismatch,
    SeriesTooShort,
    ZeroVariance,
)
from .ingest import TimeSeries
from .patterns import (
    OrdinalPattern,
    PatternSequence,
    WindowScheme,
    _rows,
    lex_rank,
    pattern_sequence,
    stretch_sequence,
)

#: Patterns tracked by default in rolling reports at h=3.
DEFAULT_WATCH: tuple[OrdinalPattern, ...] = (
    OrdinalPattern((0, 1, 2, 3)),
    OrdinalPattern((0, 3, 2, 1)),
    OrdinalPattern((1, 0, 2, 3)),
)


@dataclass(frozen=True)
class PatternDistribution:
    """Per-pattern counts and relative frequencies for one series.

    ``counts`` maps each observed pattern to its count, keyed in ascending
    lexicographic rank order; unobserved patterns simply have frequency 0.
    """

    order: int
    counts: Mapping[OrdinalPattern, int]
    total: int

    def __post_init__(self) -> None:
        if self.total < 1:
            raise EmptySequence("distribution needs at least one pattern")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts do not sum to total")
        for p in self.counts:
            if p.order != self.order:
                raise OrderMismatch(
                    f"pattern {p} has order {p.order}, distribution has {self.order}"
                )

    @classmethod
    def from_counts(cls, counts: Mapping[OrdinalPattern, int]) -> "PatternDistribution":
        """Build a distribution from a pattern -> count mapping."""
        if not counts:
            raise EmptySequence("no counts given")
        ordered = dict(sorted(counts.items(), key=lambda kv: lex_rank(kv[0])))
        order = next(iter(ordered)).order
        return cls(order, ordered, sum(ordered.values()))

    def freq(self, pattern: OrdinalPattern) -> float:
        """Relative frequency of ``pattern`` (0.0 if never observed)."""
        return self.counts.get(pattern, 0) / self.total


@dataclass(frozen=True)
class DependenceReport:
    """All estimates for one series pair at one order and window scheme.

    ``z_eq``/``z_neq`` are heuristic diagnostics: the coincident/reflected
    counts standardized by the binomial moments of the independence baseline.
    They ignore the serial dependence of overlapping windows and are None
    when the baseline variance is zero; they never gate any result.
    """

    h: int
    n_windows: int
    n_coincident: int
    n_reflected: int
    p_eq: float
    p_neq: float
    base_eq: float
    base_neq: float
    alpha_tilde: float
    beta_tilde: float
    z_eq: Optional[float]
    z_neq: Optional[float]


@dataclass(frozen=True)
class RollingWindow:
    """One rolling window: its key range, report, and watch-pattern counts.

    ``watch_counts`` maps each watched pattern to its (count in X, count in Y)
    pair inside this window.
    """

    start_key: str
    end_key: str
    report: DependenceReport
    watch_counts: Mapping[OrdinalPattern, tuple[int, int]]


@dataclass(frozen=True)
class RollingReport:
    """Consecutive equal-length windows over an aligned pair."""

    windows: tuple[RollingWindow, ...]

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self) -> Iterator[RollingWindow]:
        return iter(self.windows)


def distribution(seq: PatternSequence) -> PatternDistribution:
    """Count every pattern occurrence in a sequence."""
    if len(seq) == 0:
        raise EmptySequence("cannot build a distribution from zero windows")
    _, first, cnt = np.unique(seq.ranks, return_index=True, return_counts=True)
    rows = _rows(seq._places[:, first]).tolist()  # each distinct pattern's first occurrence
    counts = {OrdinalPattern(tuple(row)): c for row, c in zip(rows, cnt.tolist())}
    return PatternDistribution(seq.order, counts, len(seq))


def coincident_reflected_counts(
    seq_x: PatternSequence, seq_y: PatternSequence
) -> tuple[int, int]:
    """Count windows with identical patterns and with mutually reflected ones."""
    if len(seq_x) != len(seq_y):
        raise LengthMismatch(f"{len(seq_x)} windows vs {len(seq_y)}")
    if seq_x.order != seq_y.order:
        raise OrderMismatch(f"order {seq_x.order} vs {seq_y.order}")
    coincident = int(np.count_nonzero(seq_x.ranks == seq_y.ranks))
    reflected = int(np.count_nonzero(seq_x.ranks == seq_y._reflected_ranks))
    return coincident, reflected


def _cross_sums(
    h: int, rx: np.ndarray, ry: np.ndarray, ry_reflected: np.ndarray
) -> tuple[int, int]:
    # Sum of cX*cY and of cX*cY(reflected) over dense per-rank histograms. The
    # integer sums are exact, so no summation order enters the baselines.
    size = math.factorial(h + 1)
    cx, cy, cy_reflected = (np.bincount(r, minlength=size) for r in (rx, ry, ry_reflected))
    return int(cx @ cy), int(cx @ cy_reflected)


def _dense_counts(dist: PatternDistribution) -> np.ndarray:
    # Row 0: the count of each rank; row 1: the count of each reflected rank.
    # A distribution's patterns are distinct, so are their ranks.
    seq = PatternSequence(dist.order, WindowScheme.SLIDING, [p.indices for p in dist.counts])
    dense = np.zeros((2, math.factorial(dist.order + 1)), dtype=np.int64)
    counts = list(dist.counts.values())
    dense[0, seq.ranks] = counts
    dense[1, seq._reflected_ranks] = counts
    return dense


def alpha_beta(
    dist_x: PatternDistribution,
    dist_y: PatternDistribution,
    p_eq: float,
    p_neq: float,
) -> tuple[float, float]:
    """Excess of observed agreement rates over the independence baselines.

    Returns ``(alpha, beta)`` where ``alpha = p_eq - sum freqX*freqY`` and
    ``beta = p_neq - sum freqX*freqY(reflected)``.
    """
    if dist_x.order != dist_y.order:
        raise OrderMismatch(f"order {dist_x.order} vs {dist_y.order}")
    if not (0.0 <= p_eq <= 1.0 and 0.0 <= p_neq <= 1.0):
        raise ValueError(f"p_eq={p_eq} and p_neq={p_neq} must lie in [0, 1]")
    cx = _dense_counts(dist_x)[0]
    cy, cy_reflected = _dense_counts(dist_y)
    cross_eq, cross_neq = int(cx @ cy), int(cx @ cy_reflected)
    pairs = dist_x.total * dist_y.total
    return p_eq - cross_eq / pairs, p_neq - cross_neq / pairs


def _z_score(count: int, n: int, base: float) -> Optional[float]:
    variance = n * base * (1.0 - base)
    if variance <= 0.0:
        return None
    return (count - n * base) / math.sqrt(variance)


def _pair_report(
    h: int, rx: np.ndarray, ry: np.ndarray, ry_reflected: np.ndarray
) -> DependenceReport:
    # Ranks of X's and Y's windows, and of Y's windows read right-to-left.
    return _report(
        h,
        rx.size,
        int(np.count_nonzero(rx == ry)),
        int(np.count_nonzero(rx == ry_reflected)),
        *_cross_sums(h, rx, ry, ry_reflected),
    )


def _report(
    h: int, n: int, n_coincident: int, n_reflected: int, cross_eq: int, cross_neq: int
) -> DependenceReport:
    # Python ints in, so each baseline is one correctly rounded division.
    p_eq = n_coincident / n
    p_neq = n_reflected / n
    base_eq = cross_eq / (n * n)
    base_neq = cross_neq / (n * n)
    return DependenceReport(
        h=h,
        n_windows=n,
        n_coincident=n_coincident,
        n_reflected=n_reflected,
        p_eq=p_eq,
        p_neq=p_neq,
        base_eq=base_eq,
        base_neq=base_neq,
        alpha_tilde=p_eq - base_eq,
        beta_tilde=p_neq - base_neq,
        z_eq=_z_score(n_coincident, n, base_eq),
        z_neq=_z_score(n_reflected, n, base_neq),
    )


def _check_aligned(x: TimeSeries, y: TimeSeries) -> None:
    if len(x) != len(y):
        raise NotAligned(
            f"series {x.name!r} has {len(x)} rows, {y.name!r} has {len(y)}; "
            "align them first"
        )
    if x.keys != y.keys:
        raise NotAligned(
            f"series {x.name!r} and {y.name!r} have different keys; align them first"
        )


def analyze_pair(
    x: TimeSeries,
    y: TimeSeries,
    h: int,
    scheme: WindowScheme = WindowScheme.SLIDING,
    epsilon: float = 0.0,
) -> DependenceReport:
    """Full dependence report for an aligned pair at order ``h``."""
    _check_aligned(x, y)
    seq_x = pattern_sequence(x, h, scheme, epsilon)
    seq_y = pattern_sequence(y, h, scheme, epsilon)
    return _pair_report(h, seq_x.ranks, seq_y.ranks, seq_y._reflected_ranks)


def delay_scan(
    x: TimeSeries,
    y: TimeSeries,
    h: int,
    scheme: WindowScheme,
    delays: Sequence[int],
    epsilon: float = 0.0,
) -> list[tuple[int, DependenceReport]]:
    """Reports for the pair with Y shifted by each delay.

    Positive delay d compares X's window starting at i with Y's window
    starting at i + d (Y later in key order); negative d shifts X instead.
    Each report is computed on the overlapping region only, so d = 0
    reproduces :func:`analyze_pair` exactly.
    """
    _check_aligned(x, y)
    n = len(x)
    delays = [int(d) for d in delays]
    for d in delays:
        if n - abs(d) < h + 1:
            raise DelayTooLarge(
                f"delay {d} leaves {max(n - abs(d), 0)} overlapping points, "
                f"need >= {h + 1}"
            )
    d = np.array(delays, dtype=np.int64)
    overlap = n - np.abs(d)
    # The overlap starts at point max(-d, 0) of X and max(d, 0) of Y; each
    # side is one contiguous run of its sequence, a prefix or a suffix of
    # the rows of one phase.
    seq_x, x_lo, count, x_phase = stretch_sequence(
        x, h, scheme, np.maximum(-d, 0), overlap, epsilon
    )
    seq_y, y_lo, _, y_phase = stretch_sequence(y, h, scheme, np.maximum(d, 0), overlap, epsilon)
    rx, ry, ry_reflected = seq_x.ranks, seq_y.ranks, seq_y._reflected_ranks
    # Each phase in use is histogrammed once. For d >= 0 the overlap is a
    # prefix of X's phase and a suffix of Y's, for d < 0 the other way round,
    # so the delays sharing a sign and a pair of phases form one chain: with
    # the suffix side read backwards, its overlaps are the first k windows of
    # both sides. A chain's cross sums are its whole phases' minus what the
    # windows past k take off, found for every k of the chain at once.
    size = math.factorial(h + 1)
    cx = {p: np.bincount(rx[slice(*p)], minlength=size) for p in set(map(tuple, x_phase.tolist()))}
    cy = {  # rows: ranks, reflected ranks
        p: np.array([np.bincount(r[slice(*p)], minlength=size) for r in (ry, ry_reflected)])
        for p in set(map(tuple, y_phase.tolist()))
    }
    chains: dict[tuple[bool, int, int, int, int], list[int]] = {}
    for i, (delay, px, py) in enumerate(zip(delays, x_phase.tolist(), y_phase.tolist())):
        chains.setdefault((delay >= 0, *px, *py), []).append(i)
    cross = np.empty((2, len(delays)), dtype=np.int64)  # rows: equal, reflected
    for (later, fx, ex, fy, ey), members in chains.items():
        k = count[members]
        lo = int(k.min())
        # The windows past the chain's shortest overlap, in the order that
        # shorter overlaps leave them out.
        if later:
            ends_x = rx[fx + lo : ex]
            ends_y = np.array((ry[fy : ey - lo], ry_reflected[fy : ey - lo]))[:, ::-1]
        else:
            ends_x = rx[fx : ex - lo][::-1]
            ends_y = np.array((ry[fy + lo : ey], ry_reflected[fy + lo : ey]))
        hx, hy = cx[fx, ex], cy[fy, ey]
        cross[:, members] = (hy @ hx)[:, None] - _cut_sums(hx, hy, ends_x, ends_y)[:, k - lo]
    return [
        (
            delay,
            _report(
                h,
                k,
                int(np.count_nonzero(rx[a : a + k] == ry[b : b + k])),
                int(np.count_nonzero(rx[a : a + k] == ry_reflected[b : b + k])),
                cross_eq,
                cross_neq,
            ),
        )
        for delay, a, b, k, cross_eq, cross_neq in zip(
            delays, x_lo.tolist(), y_lo.tolist(), count.tolist(), *cross.tolist()
        )
    ]


def _cut_sums(hx: np.ndarray, hy: np.ndarray, ends_x: np.ndarray, ends_y: np.ndarray) -> np.ndarray:
    # Column j is what leaving out the windows ends_x[j:] from histogram hx
    # and ends_y[r, j:] from hy[r] takes off hy[r] @ hx, for rows r = 0, 1 and
    # j = 0 .. min(len(ends_x), ends_y.shape[1]):
    #     sum_{u in ends_x[j:]} hy[r, u] + sum_{v in ends_y[r, j:]} hx[v]
    #         - #{(s, t): s, t >= j, ends_x[s] == ends_y[r, t]}.
    # A matching pair (s, t) is counted at min(s, t), by searching sorted keys
    # (r * (h+1)! + rank) * span + position, never with a len(ends_x) x
    # len(ends_y) matrix. Ranks are below (h+1)!, so a key overflows int64
    # only where the dense histograms could not be held.
    nx, ny = ends_x.size, ends_y.shape[1]
    span = max(nx, ny) + 1
    at = np.arange(span)
    lift = np.array([[0], [hx.size]])
    first_x = ends_x * span  # a window's key less its position
    first_y = ends_y * span
    keys_x = first_x + at[:nx]
    keys_x.sort()
    keys_y = (first_y + at[:ny] + lift * span).ravel()
    keys_y.sort()
    first_x = first_x + lift * span
    # What position j adds to the columns up to j: its windows' terms less
    # the matching pairs (j, t >= j) and (s > j, j).
    parts = np.zeros((2, span), dtype=np.int64)
    parts[:, :nx] = hy[:, ends_x] - (
        keys_y.searchsorted(first_x + span) - keys_y.searchsorted(first_x + at[:nx])
    )
    parts[:, :ny] += hx[ends_y] - (
        keys_x.searchsorted(first_y + span) - keys_x.searchsorted(first_y + at[:ny], "right")
    )
    return np.cumsum(parts[:, ::-1], axis=1)[:, ::-1]


def rolling_analysis(
    x: TimeSeries,
    y: TimeSeries,
    h: int,
    scheme: WindowScheme,
    window_len: int,
    step: int,
    watch: Optional[Sequence[OrdinalPattern]] = None,
    epsilon: float = 0.0,
) -> RollingReport:
    """One dependence report per full window of ``window_len`` observations.

    Windows start at 0, step, 2*step, ...; a trailing window shorter than
    ``window_len`` is dropped so every report covers the same pattern count.
    ``watch`` patterns (default: :data:`DEFAULT_WATCH` when h is 3, none
    otherwise) get per-window occurrence counts in each series. ``epsilon``
    is the tie tolerance of :func:`pattern_sequence`, so every window's
    report equals :func:`analyze_pair` with that ``epsilon`` on the window.
    """
    _check_aligned(x, y)
    if window_len < h + 1:
        raise SeriesTooShort(f"window_len {window_len} < h + 1 = {h + 1}")
    if window_len > len(x):
        raise SeriesTooShort(
            f"window_len {window_len} exceeds series length {len(x)}"
        )
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if watch is None:
        watch = DEFAULT_WATCH if h == 3 else ()
    for p in watch:
        if p.order != h:
            raise OrderMismatch(f"watch pattern {p} has order {p.order}, expected {h}")

    starts = np.arange(0, len(x) - window_len + 1, step)
    seq_x, lo, k, _ = stretch_sequence(x, h, scheme, starts, window_len, epsilon)
    seq_y, _, _, _ = stretch_sequence(y, h, scheme, starts, window_len, epsilon)
    rx, ry, ry_reflected = seq_x.ranks, seq_y.ranks, seq_y._reflected_ranks
    # Row i holds window i's rank in X, its rank in Y plus (h+1)! and its
    # reflected rank in Y plus 2 (h+1)!, so a rolling window's rows are one
    # contiguous run and one bincount of it gives all three histograms.
    size = math.factorial(h + 1)
    keys = np.empty((rx.size, 3), dtype=np.int64)
    keys[:, 0] = rx
    np.add(ry, size, out=keys[:, 1])
    np.add(ry_reflected, 2 * size, out=keys[:, 2])
    # Running totals of matching and of mirrored windows; each window's counts
    # are differences of two totals.
    totals = np.zeros((2, rx.size + 1), dtype=np.int32)
    np.cumsum(rx == ry, dtype=np.int32, out=totals[0, 1:])
    np.cumsum(rx == ry_reflected, dtype=np.int32, out=totals[1, 1:])
    watch_ranks = [lex_rank(p) for p in watch]
    watch_keys = np.array(watch_ranks + [r + size for r in watch_ranks], dtype=np.intp)
    m = len(watch)
    windows: list[RollingWindow] = []
    for start, a, (n_coincident, n_reflected) in zip(
        starts.tolist(), lo.tolist(), (totals[:, lo + k] - totals[:, lo]).T.tolist()
    ):
        counts = np.bincount(keys[a : a + k].ravel(), minlength=3 * size)
        cross_eq, cross_neq = (counts[size:].reshape(2, size) @ counts[:size]).tolist()
        watched = counts[watch_keys].tolist()
        windows.append(
            RollingWindow(
                start_key=x.keys[start],
                end_key=x.keys[start + window_len - 1],
                report=_report(h, k, n_coincident, n_reflected, cross_eq, cross_neq),
                watch_counts=dict(zip(watch, zip(watched[:m], watched[m:]))),
            )
        )
    return RollingReport(tuple(windows))


def increment_correlation(x: TimeSeries, y: TimeSeries) -> float:
    """Pearson correlation of the two series' first differences."""
    _check_aligned(x, y)
    if len(x) < 3:
        raise SeriesTooShort(f"need >= 3 points for increments, got {len(x)}")
    dx = np.diff(x.values)
    dy = np.diff(y.values)
    if dx.std() == 0.0 or dy.std() == 0.0:
        raise ZeroVariance("an increment series is constant")
    return float(np.corrcoef(dx, dy)[0, 1])
