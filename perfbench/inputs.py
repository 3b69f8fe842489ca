"""Seeded workload inputs, generated without ordpat.

Every generator draws from its own Philox stream keyed by (seed, stream), so
the same seed always gives the same inputs and a change to ``ordpat.synth``
cannot change what the benchmark feeds the library.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WALK, TIES, PRICES, ORDER = 1, 2, 3, 4  # stream ids

SMALL_MAX_N = 250
SMALL_EPSILON = 0.25
MISSING_SHARE = 0.01  # of the dates each price file lacks


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def walk_pair(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two independent Gaussian random walks (tie-free with probability 1)."""
    steps = rng(seed, WALK).standard_normal((2, n))
    return np.cumsum(steps[0]), np.cumsum(steps[1])


@dataclass(frozen=True)
class SmallCall:
    """One short ``analyze_pair`` call of the small_ties workload."""

    h: int
    scheme: str  # "sliding" or "block"
    epsilon: float
    x: np.ndarray
    y: np.ndarray


def small_calls(seed: int, count: int) -> list[SmallCall]:
    """Short pairs on a half-unit grid, so tied windows are common.

    h is uniform in 1..4 and n uniform in [h+1, 250]; the scheme alternates
    every call and every other pair of calls uses epsilon 0.25, which on a
    half-unit grid merges exactly the tied values.
    """
    gen = rng(seed, TIES)
    calls = []
    for i in range(count):
        h = int(gen.integers(1, 5))
        n = int(gen.integers(h + 1, SMALL_MAX_N + 1))
        steps = np.round(gen.standard_normal((2, n)) * 1.5) / 2.0
        calls.append(
            SmallCall(
                h=h,
                scheme="sliding" if i % 2 == 0 else "block",
                epsilon=SMALL_EPSILON if (i // 2) % 2 else 0.0,
                x=np.cumsum(steps[0]),
                y=np.cumsum(steps[1]),
            )
        )
    return calls


@dataclass(frozen=True)
class PricePair:
    """Two ``date,close`` files sharing most dates; values as written."""

    x_path: Path
    y_path: Path
    x_keys: list[str]
    x_values: np.ndarray
    y_keys: list[str]
    y_values: np.ndarray


def price_pair(seed: int, n: int, out_dir: Path) -> PricePair:
    """Write two close-price files of ``n`` candidate dates each.

    Prices are random walks rounded to cents; each side independently drops
    about 1% of the dates, so an inner join drops rows on both sides.
    """
    gen = rng(seed, PRICES)
    start = datetime.date(1700, 1, 1).toordinal()
    dates = [datetime.date.fromordinal(start + i).isoformat() for i in range(n)]
    closes = 5000.0 + np.cumsum(gen.standard_normal((2, n)), axis=1)
    keep = gen.random((2, n)) >= MISSING_SHARE
    sides = []
    for side, path in ((0, out_dir / "prices_x.csv"), (1, out_dir / "prices_y.csv")):
        rows = np.flatnonzero(keep[side])
        keys = [dates[i] for i in rows]
        texts = [f"{v:.2f}" for v in closes[side, rows]]
        path.write_text(
            "date,close\n" + "".join(f"{k},{t}\n" for k, t in zip(keys, texts)),
            encoding="utf-8",
        )
        # Values as the file states them, parsed the way a CSV reader would.
        sides.append((path, keys, np.array([float(t) for t in texts])))
    (xp, xk, xv), (yp, yk, yv) = sides
    return PricePair(xp, yp, xk, xv, yk, yv)


def command_order(seed: int, count: int) -> list[int]:
    """Seeded order in which a CLI workload issues its commands."""
    return [int(i) for i in rng(seed, ORDER).permutation(count)]
