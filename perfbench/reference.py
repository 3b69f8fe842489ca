"""Independent reference for ordinal patterns and dependence reports.

Nothing here imports ordpat, and the algorithm differs from the library's:
instead of sorting window positions, each position's place in the pattern
is counted from pairwise comparisons of tie-group numbers.

Tie rule (the library's documented semantics): sort a window's values in
descending order; neighbours whose gap is at most ``epsilon`` are chained
into one group (epsilon 0 chains only equal values); the pattern lists the
positions group by group, highest group first, ascending position inside a
group. A pattern of order h is encoded as the integer
``sum_k pattern[k] * (h+1)**k``; its reflection (the tuple read right to
left) has the code ``sum_k pattern[h-k] * (h+1)**k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SLIDING, BLOCK = "sliding", "block"
CHUNK = 8192  # windows per batch; keeps the reference's memory small

#: Patterns the library tracks by default in rolling reports at h=3.
DEFAULT_WATCH = ((0, 1, 2, 3), (0, 3, 2, 1), (1, 0, 2, 3))


@dataclass(frozen=True)
class Codes:
    """Per-window pattern codes of one series."""

    h: int
    code: np.ndarray  # int64 pattern code
    reflected: np.ndarray  # int64 code of the reflected pattern
    tied: np.ndarray  # bool: the window has a tie or an epsilon merge

    def __len__(self) -> int:
        return self.code.size

    def sliced(self, start: int, stop: int) -> "Codes":
        return Codes(
            self.h, self.code[start:stop], self.reflected[start:stop], self.tied[start:stop]
        )


def window_starts(n: int, h: int, scheme: str) -> np.ndarray:
    return np.arange(0, n - h, 1 if scheme == SLIDING else h)


def encode(pattern: Sequence[int]) -> int:
    base = len(pattern)
    return sum(int(p) * base**k for k, p in enumerate(pattern))


def decode(code: int, h: int) -> tuple[int, ...]:
    base = h + 1
    return tuple((int(code) // base**k) % base for k in range(base))


def codes(values, h: int, scheme: str = SLIDING, epsilon: float = 0.0) -> Codes:
    """Pattern codes of every window of ``h+1`` values under ``scheme``."""
    values = np.asarray(values, dtype=float)
    starts = window_starts(values.size, h, scheme)
    parts = [
        _window_codes(values[starts[i : i + CHUNK, None] + np.arange(h + 1)], h, epsilon)
        for i in range(0, max(starts.size, 1), CHUNK)
    ]
    return Codes(h, *(np.concatenate([p[j] for p in parts]) for j in range(3)))


def _window_codes(win: np.ndarray, h: int, epsilon: float):
    base = h + 1
    ordered = -np.sort(-win, axis=1)
    cut = (ordered[:, :-1] - ordered[:, 1:]) > epsilon  # gap k separates groups
    # A position's group number is the count of separating gaps above it.
    group = np.zeros(win.shape, dtype=np.int64)
    for k in range(h):
        group += cut[:, k : k + 1] & (ordered[:, k + 1 : k + 2] >= win)
    # Place of position i in the pattern: positions in a higher group, plus
    # earlier positions of the same group.
    place = np.zeros(win.shape, dtype=np.int64)
    for j in range(base):
        gj = group[:, j : j + 1]
        place += gj < group
        place[:, j + 1 :] += gj == group[:, j + 1 :]
    positions = np.arange(base, dtype=np.int64)
    code = (positions * base**place).sum(axis=1)
    reflected = (positions * base ** (h - place)).sum(axis=1)
    return code, reflected, ~cut.all(axis=1)


@dataclass(frozen=True)
class Report:
    """Reference values of one dependence report."""

    h: int
    n_windows: int
    n_coincident: int
    n_reflected: int
    base_eq: float
    base_neq: float
    tied_windows: int  # windows with a tie, counted in both series
    distinct: int  # distinct patterns in the more varied series

    @property
    def p_eq(self) -> float:
        return self.n_coincident / self.n_windows

    @property
    def p_neq(self) -> float:
        return self.n_reflected / self.n_windows

    @property
    def alpha_tilde(self) -> float:
        return self.p_eq - self.base_eq

    @property
    def beta_tilde(self) -> float:
        return self.p_neq - self.base_neq

    @property
    def z_eq(self) -> Optional[float]:
        return z_score(self.n_coincident, self.n_windows, self.base_eq)

    @property
    def z_neq(self) -> Optional[float]:
        return z_score(self.n_reflected, self.n_windows, self.base_neq)


def z_score(count: int, n: int, base: float) -> Optional[float]:
    variance = n * base * (1.0 - base)
    if variance <= 0.0:
        return None
    return (count - n * base) / math.sqrt(variance)


def _cross(ua, ca, ub, cb) -> int:
    """sum over codes c of count_a(c) * count_b(c), exactly."""
    _, ia, ib = np.intersect1d(ua, ub, assume_unique=True, return_indices=True)
    return int((ca[ia].astype(np.int64) * cb[ib]).sum())


def pair_report(cx: Codes, cy: Codes) -> Report:
    n = len(cx)
    ux, nx = np.unique(cx.code, return_counts=True)
    uy, ny = np.unique(cy.code, return_counts=True)
    ur, nr = np.unique(cy.reflected, return_counts=True)
    return Report(
        h=cx.h,
        n_windows=n,
        n_coincident=int((cx.code == cy.code).sum()),
        n_reflected=int((cx.code == cy.reflected).sum()),
        base_eq=_cross(ux, nx, uy, ny) / (n * n),
        base_neq=_cross(ux, nx, ur, nr) / (n * n),
        tied_windows=int(cx.tied.sum() + cy.tied.sum()),
        distinct=max(ux.size, uy.size),
    )


def analyze(x, y, h: int, scheme: str = SLIDING, epsilon: float = 0.0) -> Report:
    return pair_report(codes(x, h, scheme, epsilon), codes(y, h, scheme, epsilon))


def delay_reports(x, y, h: int, scheme: str, delays, epsilon: float = 0.0) -> list[Report]:
    """Positive d pairs X's window at i with Y's window at i + d."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if scheme == SLIDING:
        full_x, full_y = codes(x, h, SLIDING, epsilon), codes(y, h, SLIDING, epsilon)
    out = []
    for d in delays:
        if scheme == SLIDING:
            m = n - abs(d) - h  # windows in the overlap
            ox, oy = (0, d) if d >= 0 else (-d, 0)
            out.append(pair_report(full_x.sliced(ox, ox + m), full_y.sliced(oy, oy + m)))
        else:
            vx, vy = (x[: n - d], y[d:]) if d >= 0 else (x[-d:], y[: n + d])
            out.append(analyze(vx, vy, h, scheme, epsilon))
    return out


@dataclass(frozen=True)
class RollingRow:
    start: int  # first observation of the rolling window
    stop: int  # one past its last observation
    report: Report
    watch: tuple[tuple[int, int], ...]  # (count in X, count in Y) per pattern


def rolling_reports(
    x, y, h: int, scheme: str, window: int, step: int,
    watch: Optional[Sequence[Sequence[int]]] = None, epsilon: float = 0.0,
) -> list[RollingRow]:
    """One report per full window of ``window`` observations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if watch is None:
        watch = DEFAULT_WATCH if h == 3 else ()
    watch_codes = [encode(p) for p in watch]
    if scheme == SLIDING:
        # A sliding window's patterns are a slice of the whole series' ones.
        full_x, full_y = codes(x, h, SLIDING, epsilon), codes(y, h, SLIDING, epsilon)
    rows = []
    for start in range(0, x.size - window + 1, step):
        stop = start + window
        if scheme == SLIDING:
            cx, cy = full_x.sliced(start, stop - h), full_y.sliced(start, stop - h)
        else:
            cx = codes(x[start:stop], h, scheme, epsilon)
            cy = codes(y[start:stop], h, scheme, epsilon)
        counts = tuple(
            (int((cx.code == c).sum()), int((cy.code == c).sum())) for c in watch_codes
        )
        rows.append(RollingRow(start, stop, pair_report(cx, cy), counts))
    return rows


def distribution(values, h: int, scheme: str = SLIDING, epsilon: float = 0.0) -> dict:
    """pattern tuple -> count, for every pattern that occurs."""
    uniq, cnt = np.unique(codes(values, h, scheme, epsilon).code, return_counts=True)
    return {decode(u, h): int(c) for u, c in zip(uniq, cnt)}


def ar1(n: int, phi: float, rho: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The AR(1) pair ``ordpat simulate ar1`` documents, by direct recursion.

    Noise: z and z' are consecutive standard-normal draws of a Philox stream
    seeded with ``seed``; w = rho*z + sqrt(1-rho^2)*z'. Then
    X_t = phi*X_{t-1} + z_t and Y_t = phi*Y_{t-1} + w_t from zero state.
    """
    gen = np.random.Generator(np.random.Philox(seed))
    z = gen.standard_normal(n)
    z_extra = gen.standard_normal(n)
    w = rho * z + math.sqrt(1.0 - rho * rho) * z_extra
    out = []
    for noise in (z, w):
        series = np.empty(n)
        prev = 0.0
        for t, e in enumerate(noise.tolist()):
            prev = e + phi * prev
            series[t] = prev
        out.append(series)
    return out[0], out[1]


def align(a_keys, a_values, b_keys, b_values):
    """Inner join on keys in ``a``'s order; returns values and dropped rows."""
    position = {k: i for i, k in enumerate(b_keys)}
    kept = [(i, position[k]) for i, k in enumerate(a_keys) if k in position]
    ia = np.array([i for i, _ in kept], dtype=np.int64)
    ib = np.array([j for _, j in kept], dtype=np.int64)
    keys = [a_keys[i] for i in ia]
    return (
        keys,
        np.asarray(a_values)[ia],
        np.asarray(b_values)[ib],
        len(a_keys) - len(kept),
        len(b_keys) - len(kept),
    )
