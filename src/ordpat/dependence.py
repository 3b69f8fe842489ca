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
import operator
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DelayTooLarge,
    EmptySequence,
    LengthMismatch,
    OrderMismatch,
    SeriesTooShort,
    ZeroVariance,
)
from .ingest import TimeSeries, _check_aligned
from .patterns import (
    OrdinalPattern,
    PatternSequence,
    WindowScheme,
    _stride,
    lex_rank,
    pattern_sequence,
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
        for p, count in self.counts.items():
            if p.order != self.order:
                raise OrderMismatch(
                    f"pattern {p} has order {p.order}, distribution has {self.order}"
                )
            if not isinstance(count, (int, np.integer)) or count < 0:
                raise ValueError(f"pattern {p} has count {count!r}, not an integer >= 0")

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


@dataclass(frozen=True, eq=False, repr=False)
class RollingReport:
    """Consecutive equal-length windows over an aligned pair, held as columns.

    Window i covers the points ``starts[i]`` to ``starts[i] + window_len - 1``
    of a series with key tuple ``keys``. ``columns`` maps each
    :class:`DependenceReport` field, in field order, to a read-only array
    with one entry per window; ``z_eq``/``z_neq`` are NaN where the report
    has None. ``watch_counts[i, j]`` holds the (count in X, count in Y) of
    ``watch[j]`` in window i. :attr:`windows` builds the per-window objects
    on first read.
    """

    keys: tuple[str, ...]
    window_len: int
    starts: np.ndarray
    columns: Mapping[str, np.ndarray]
    watch: tuple[OrdinalPattern, ...]
    watch_counts: np.ndarray

    def __len__(self) -> int:
        return self.starts.size

    def __iter__(self) -> Iterator[RollingWindow]:
        return iter(self.windows)

    def __eq__(self, other: object) -> bool:
        # As the windows compare, a NaN z equal to NaN as None is to None, and
        # watch counts matched by pattern, whatever the watch order.
        if not isinstance(other, RollingReport):
            return NotImplemented
        if set(self.watch) != set(other.watch) or self.key_ranges() != other.key_ranges():
            return False
        order = [other.watch.index(p) for p in self.watch]
        same = (np.array_equal(c, other.columns[n], equal_nan=True) for n, c in self.columns.items())
        return np.array_equal(self.watch_counts, other.watch_counts[:, order]) and all(same)

    def __repr__(self) -> str:
        return f"RollingReport(windows={self.windows!r})"

    def key_ranges(self) -> list[tuple[str, str]]:
        """Each window's first and last key."""
        keys, last = self.keys, self.window_len - 1
        return [(keys[s], keys[s + last]) for s in self.starts.tolist()]

    def values(self, name: str) -> list:
        """A report field's column as Python values, None where the report has None."""
        values = self.columns[name].tolist()
        if name in ("z_eq", "z_neq"):
            return [None if math.isnan(v) else v for v in values]
        return values

    @cached_property
    def windows(self) -> tuple[RollingWindow, ...]:
        """One :class:`RollingWindow` per window, built from the columns."""
        reports = map(DependenceReport, *map(self.values, self.columns))
        watched = (dict(zip(self.watch, map(tuple, w))) for w in self.watch_counts.tolist())
        return tuple(
            RollingWindow(start_key, end_key, report, counts)
            for (start_key, end_key), report, counts in zip(self.key_ranges(), reports, watched)
        )


def distribution(seq: PatternSequence) -> PatternDistribution:
    """Count every pattern occurrence in a sequence."""
    if len(seq) == 0:
        raise EmptySequence("cannot build a distribution from zero windows")
    distinct, cnt = _distinct(seq)
    by_rank = np.argsort(distinct.ranks)
    rows = distinct.rows[by_rank].tolist()
    counts = {OrdinalPattern(tuple(row)): c for row, c in zip(rows, cnt[by_rank].tolist())}
    return PatternDistribution(seq.order, counts, len(seq))


def _distinct(seq: PatternSequence) -> tuple[PatternSequence, np.ndarray]:
    # Each distinct pattern of seq once, in code order, and its count. Only
    # these patterns are decoded from their codes.
    codes, counts = np.unique(seq._codes, return_counts=True)
    return PatternSequence._from_codes(seq.order, seq.scheme, codes), counts


def coincident_reflected_counts(
    seq_x: PatternSequence, seq_y: PatternSequence
) -> tuple[int, int]:
    """Count windows with identical patterns and with mutually reflected ones."""
    if len(seq_x) != len(seq_y):
        raise LengthMismatch(f"{len(seq_x)} windows vs {len(seq_y)}")
    if seq_x.order != seq_y.order:
        raise OrderMismatch(f"order {seq_x.order} vs {seq_y.order}")
    rx, ry = seq_x._codes, seq_y._codes
    coincident = int(np.count_nonzero(rx == ry))
    reflected = int(np.count_nonzero(rx + ry == math.factorial(seq_x.order + 1) - 1))
    return coincident, reflected


def _cross_sums(
    h: int, rx: np.ndarray, ry: np.ndarray, ry_reflected: np.ndarray
) -> tuple[int, int]:
    # Sum of cX*cY and of cX*cY(reflected) over the codes. Summed over Y's
    # windows instead, cX[ry[j]], only X's histogram is needed. The integer
    # sums are exact, so no summation order enters the baselines.
    cx = np.bincount(rx, minlength=math.factorial(h + 1))
    return int(cx.take(ry).sum()), int(cx.take(ry_reflected).sum())


def _dense_counts(dist: PatternDistribution) -> np.ndarray:
    # The count of each code. A distribution's patterns are distinct, so are
    # their codes; reversed, the vector counts each reflected pattern.
    rows = [p.indices for p in dist.counts]
    codes = PatternSequence(dist.order, WindowScheme.SLIDING, rows)._codes
    dense = np.zeros(math.factorial(dist.order + 1), dtype=np.int64)
    dense[codes] = list(dist.counts.values())
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
    cx, cy = _dense_counts(dist_x), _dense_counts(dist_y)
    cross_eq, cross_neq = int(cx @ cy), int(cx @ cy[::-1])
    pairs = dist_x.total * dist_y.total
    return p_eq - cross_eq / pairs, p_neq - cross_neq / pairs


def _z_score(count: int, n: int, base: float) -> Optional[float]:
    variance = n * base * (1.0 - base)
    if variance <= 0.0:
        return None
    return (count - n * base) / math.sqrt(variance)


def _pair_report(h: int, rx: np.ndarray, ry: np.ndarray) -> DependenceReport:
    # Codes of X's and Y's windows. Y's windows read right-to-left have codes
    # (h+1)! - 1 - ry, made once here for the count and the cross sum.
    ry_reflected = (math.factorial(h + 1) - 1) - ry
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
    return _pair_report(h, seq_x._codes, seq_y._codes)


def delay_scan(
    x: TimeSeries,
    y: TimeSeries,
    h: int,
    scheme: WindowScheme,
    delays: Iterable[int],
    epsilon: float = 0.0,
) -> list[tuple[int, DependenceReport]]:
    """Reports for the pair with Y shifted by each delay.

    Positive delay d compares X's window starting at i with Y's window
    starting at i + d (Y later in key order); negative d shifts X instead.
    Each report is computed on the overlapping region only, so d = 0
    reproduces :func:`analyze_pair` exactly. Delays must be integers. The
    first delay that is not, or that leaves fewer than h + 1 overlapping
    points, raises before any later one is read.
    """
    _check_aligned(x, y)
    n = len(x)
    checked: list[int] = []
    for d in delays:
        d = _integer("delay", d)
        if n - abs(d) < h + 1:
            raise DelayTooLarge(
                f"delay {d} leaves {max(n - abs(d), 0)} overlapping points, "
                f"need >= {h + 1}"
            )
        checked.append(d)
    stride = _stride(h, scheme)
    runs = []  # per delay: d, X's phase and first window in it, Y's, the window count
    for d in checked:
        # The overlap starts at point max(-d, 0) of X and max(d, 0) of Y.
        ox, px = divmod(max(-d, 0), stride)
        oy, py = divmod(max(d, 0), stride)
        runs.append((d, px, ox, py, oy, (n - abs(d) - h - 1) // stride + 1))
    rx = _phase_codes(x, h, scheme, {run[1] for run in runs}, epsilon)
    ry = _phase_codes(y, h, scheme, {run[3] for run in runs}, epsilon)
    size = math.factorial(h + 1)
    ry_reflected = {p: (size - 1) - codes for p, codes in ry.items()}  # Y read right-to-left
    # Each phase in use is histogrammed once. For d >= 0 the overlap is a
    # prefix of X's phase and a suffix of Y's, for d < 0 the other way round,
    # so the delays sharing a sign and a pair of phases form one chain: with
    # the suffix side read backwards, its overlaps are the first k windows of
    # both sides. A chain's cross sums are its whole phases' minus what the
    # windows past k take off, found for every k of the chain at once.
    cx = {p: np.bincount(codes, minlength=size) for p, codes in rx.items()}
    cy = {}  # rows: histograms of Y's codes and of its reflected codes, the first reversed
    for p, codes in ry.items():
        counts = np.bincount(codes, minlength=size)
        cy[p] = np.array((counts, counts[::-1]))
    chains: dict[tuple[bool, int, int], list[int]] = {}
    for i, (d, px, _, py, _, _) in enumerate(runs):
        chains.setdefault((d >= 0, px, py), []).append(i)
    count = np.array([run[5] for run in runs], dtype=np.int64)
    cross = np.empty((2, len(runs)), dtype=np.int64)  # rows: equal, reflected
    for (later, px, py), members in chains.items():
        k = count[members]
        lo = int(k.min())
        # The windows past the chain's shortest overlap, in the order that
        # shorter overlaps leave them out.
        if later:
            stop = ry[py].size - lo
            ends_x = rx[px][lo:]
            ends_y = np.array((ry[py][:stop], ry_reflected[py][:stop]))[:, ::-1]
        else:
            ends_x = rx[px][: rx[px].size - lo][::-1]
            ends_y = np.array((ry[py][lo:], ry_reflected[py][lo:]))
        hx, hy = cx[px], cy[py]
        cross[:, members] = (hy @ hx)[:, None] - _cut_sums(hx, hy, ends_x, ends_y)[:, k - lo]
    reports = []
    for (d, px, ox, py, oy, k), cross_eq, cross_neq in zip(runs, *cross.tolist()):
        a, b = rx[px][ox : ox + k], slice(oy, oy + k)
        n_coincident = int(np.count_nonzero(a == ry[py][b]))
        n_reflected = int(np.count_nonzero(a == ry_reflected[py][b]))
        reports.append((d, _report(h, k, n_coincident, n_reflected, cross_eq, cross_neq)))
    return reports


def _cut_sums(hx: np.ndarray, hy: np.ndarray, ends_x: np.ndarray, ends_y: np.ndarray) -> np.ndarray:
    # Column j is what leaving out the windows ends_x[j:] from histogram hx
    # and ends_y[r, j:] from hy[r] takes off hy[r] @ hx, for rows r = 0, 1 and
    # j = 0 .. min(len(ends_x), ends_y.shape[1]):
    #     sum_{u in ends_x[j:]} hy[r, u] + sum_{v in ends_y[r, j:]} hx[v]
    #         - #{(s, t): s, t >= j, ends_x[s] == ends_y[r, t]}.
    # A matching pair (s, t) is counted at min(s, t), by searching sorted keys
    # (r * (h+1)! + code) * span + position, never with a len(ends_x) x
    # len(ends_y) matrix. Codes are below (h+1)!, so a key overflows int64
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
    watch: Optional[Iterable[OrdinalPattern | Sequence[int]]] = None,
    epsilon: float = 0.0,
) -> RollingReport:
    """One dependence report per full window of ``window_len`` observations.

    ``window_len`` and ``step`` must be integers. Windows start at 0, step,
    2*step, ...; a trailing window shorter than ``window_len`` is dropped so
    every report covers the same pattern count.
    ``watch`` patterns (default: :data:`DEFAULT_WATCH` when h is 3, none
    otherwise), given as :class:`OrdinalPattern` objects or index tuples, get
    per-window occurrence counts in each series; a pattern given twice is
    counted once. ``epsilon`` is the tie tolerance of
    :func:`pattern_sequence`, so every window's report equals
    :func:`analyze_pair` with that ``epsilon`` on the window.
    """
    _check_aligned(x, y)
    window_len, step = _integer("window_len", window_len), _integer("step", step)
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
    # Each pattern once, in first-seen order.
    watch = tuple(
        dict.fromkeys(p if isinstance(p, OrdinalPattern) else OrdinalPattern(p) for p in watch)
    )
    for p in watch:
        if p.order != h:
            raise OrderMismatch(f"watch pattern {p} has order {p.order}, expected {h}")

    stride = _stride(h, scheme)
    starts = np.arange(0, len(x) - window_len + 1, step)
    offset, phase = np.divmod(starts, stride)  # window s is window s // stride of phase s % stride
    k = (window_len - h - 1) // stride + 1
    phases = set(phase.tolist())
    rx = _phase_codes(x, h, scheme, phases, epsilon)
    ry = _phase_codes(y, h, scheme, phases, epsilon)
    # A rolling window is one contiguous run of a phase's X codes and of its
    # Y codes; with Y's lifted by (h+1)!, one bincount of both runs gives
    # both histograms. Running totals of matching and of mirrored windows
    # give each window's counts as differences of two totals.
    size = math.factorial(h + 1)
    watch_rows = np.array([p.indices for p in watch], dtype=np.int16).reshape(-1, h + 1)
    watch_codes = PatternSequence(h, WindowScheme.SLIDING, watch_rows)._codes
    watch_keys = (watch_codes[:, None] + (0, size)).ravel()  # X's, then Y's, per pattern
    matches = np.empty((2, starts.size), dtype=np.int64)  # rows: coincident, reflected
    cross = np.empty((2, starts.size), dtype=np.int64)  # rows: cY @ cX, cY(reflected) @ cX
    watched = np.empty((starts.size, watch_keys.size), dtype=np.int64)
    # A phase's windows start at every step // gcd(step, stride)-th of its rows.
    gap = step // math.gcd(step, stride)
    for p in phases:
        a, b = rx[p], ry[p]
        totals = np.zeros((2, a.size + 1), dtype=np.int32)
        np.cumsum(a == b, dtype=np.int32, out=totals[0, 1:])
        np.cumsum(a + b == size - 1, dtype=np.int32, out=totals[1, 1:])
        here = phase == p
        first = offset[here]
        matches[:, here] = totals[:, first + k] - totals[:, first]
        cross[:, here], watched[here] = _window_sums(
            a[first[0] :], b[first[0] :], gap, first.size, k, size, watch_keys
        )
    columns = {"h": np.full(starts.size, h), "n_windows": np.full(starts.size, k)}
    columns.update(_report_columns(k, matches, cross))
    for column in (starts, watched, columns["h"], columns["n_windows"]):
        column.flags.writeable = False
    return RollingReport(
        x.keys,
        window_len,
        starts,
        MappingProxyType(columns),
        watch,
        watched.reshape(starts.size, len(watch), 2),
    )


def _window_sums(
    rx: np.ndarray, ry: np.ndarray, gap: int, count: int, k: int, size: int, picks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # For the count windows of k codes starting at entries 0, gap, 2 * gap,
    # ... of a phase's X codes rx and Y codes ry: the cross sums cY @ cX and
    # cY(reflected) @ cX (Y's reflected histogram is its histogram reversed,
    # as a reflected code is size - 1 - code), and the entries picks of each
    # window's histogram (X's codes, then Y's plus size). r windows at a time
    # are copied into a (2, r, k) matrix, X's runs then Y's, window j lifted
    # by j * 2 * size, so one bincount makes their r histograms as the rows
    # of an (r, 2 * size) matrix. Both stay within 2**17 entries (1 MB),
    # unless one histogram alone is larger (h = 8), when r is 1. Each half is
    # one contiguous block: the halves of an (r, 2, k) matrix fill slower.
    bins = 2 * size
    rows = max(1, 2**16 // max(k, size))
    # Row j: the codes of the j-th window, read in place. The last window
    # ends at or before the last code, so the views stay inside the arrays.
    runs_x = as_strided(rx, (count, k), (gap * rx.strides[0], rx.strides[0]), writeable=False)
    runs_y = as_strided(ry, (count, k), (gap * ry.strides[0], ry.strides[0]), writeable=False)
    lift = np.arange(0, rows * bins, bins)[:, None] + np.array([0, size])[:, None, None]
    gathered = np.empty((2, min(rows, count), k), dtype=np.int64)
    cross = np.empty((2, count), dtype=np.int64)
    picked = np.empty((count, picks.size), dtype=np.int64)
    for lo in range(0, count, rows):
        r = min(rows, count - lo)
        np.add(runs_x[lo : lo + r], lift[0, :r], out=gathered[0, :r])
        np.add(runs_y[lo : lo + r], lift[1, :r], out=gathered[1, :r])
        hist = np.bincount(gathered[:, :r].ravel(), minlength=r * bins).reshape(r, bins)
        cx, cy = hist[:, :size], hist[:, size:]
        cross[0, lo : lo + r] = np.einsum("ij,ij->i", cy, cx)
        cross[1, lo : lo + r] = np.einsum("ij,ij->i", cy[:, ::-1], cx)
        picked[lo : lo + r] = hist[:, picks]
    return cross, picked


def _report_columns(n: int, counts: np.ndarray, cross: np.ndarray) -> dict[str, np.ndarray]:
    # _report over int64 columns, row 0 for coincident and row 1 for
    # reflected windows, with _report's operations in _report's order, so
    # every float is _report's bit for bit: an int64 below 2**53 converts to
    # float64 exactly, and IEEE arithmetic and sqrt round as Python's do. A
    # zero variance gives NaN where _report gives None.
    p = _quotient(counts, n)
    base = _quotient(cross, n * n)
    variance = n * base * (1.0 - base)
    z = np.full(base.shape, np.nan)
    np.divide(counts - n * base, np.sqrt(variance), out=z, where=variance > 0.0)
    tilde = p - base
    for column in (counts, p, base, tilde, z):
        column.flags.writeable = False
    return {
        "n_coincident": counts[0],
        "n_reflected": counts[1],
        "p_eq": p[0],
        "p_neq": p[1],
        "base_eq": base[0],
        "base_neq": base[1],
        "alpha_tilde": tilde[0],
        "beta_tilde": tilde[1],
        "z_eq": z[0],
        "z_neq": z[1],
    }


def _quotient(counts: np.ndarray, d: int) -> np.ndarray:
    # counts / d, each correctly rounded as Python's int division is. Every
    # count is at most d, so below 2**53 both convert to float64 exactly.
    if d < 2**53:
        return counts / d
    return np.array([[c / d for c in row] for row in counts.tolist()], dtype=np.float64)


def _phase_codes(
    series: TimeSeries, h: int, scheme: WindowScheme, phases: Iterable[int], epsilon: float
) -> dict[int, np.ndarray]:
    # Phase p -> the contiguous codes of the windows starting at p, p +
    # stride, ..., so the window starting at point s is codes[s % stride][s
    # // stride]. Exact input is extracted once, phase p being the sliding
    # codes p::stride; with epsilon > 0 each phase in use is extracted once.
    # With no phase in use, phase 0 still checks the series.
    stride = _stride(h, scheme)
    phases = sorted(phases) or [0]
    if epsilon == 0.0:
        codes = pattern_sequence(series, h, WindowScheme.SLIDING)._codes
        return {p: np.ascontiguousarray(codes[p::stride]) for p in phases}
    return {p: pattern_sequence(series.values[p:], h, scheme, epsilon)._codes for p in phases}


def _integer(name: str, value: object) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def increment_correlation(x: TimeSeries, y: TimeSeries) -> float:
    """Pearson correlation of the two series' first differences."""
    _check_aligned(x, y)
    if len(x) < 3:
        raise SeriesTooShort(f"need >= 3 points for increments, got {len(x)}")
    # Two halved floats differ by at most the largest float, so the
    # increments of values near +-1e308 stay finite.
    dx = _unit_scaled(np.diff(x.values / 2))
    dy = _unit_scaled(np.diff(y.values / 2))
    if dx.std() == 0.0 or dy.std() == 0.0:
        raise ZeroVariance("an increment series is constant")
    return float(np.corrcoef(dx, dy)[0, 1])


def _unit_scaled(v: np.ndarray) -> np.ndarray:
    # Scaling by a power of two is exact and leaves the correlation as it
    # was; with every magnitude below 1, the sums of squares inside std and
    # corrcoef cannot overflow.
    _, exponent = np.frexp(np.max(np.abs(v)))
    return np.ldexp(v, -exponent)
