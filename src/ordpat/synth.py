"""Seeded generators for synthetic experiments.

All generators draw from a counter-based Philox bit generator, so the same
seed always reproduces the same series (and distinct seeds can safely run
concurrently). Series get synthetic integer keys "0".."n-1".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidRho, TooManyOutliers
from .ingest import TimeSeries, _check_aligned


@dataclass(frozen=True)
class Ar1Config:
    """Parameters for a correlated AR(1) pair.

    ``phi`` is the autoregression coefficient, ``rho`` the correlation of the
    two driving noise sequences.
    """

    n: int
    phi: float
    rho: float
    seed: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        if not abs(self.rho) <= 1.0:
            raise InvalidRho(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class OutlierConfig:
    """k positions to overwrite with +magnitude in X and -magnitude in Y."""

    k: int
    magnitude: float
    seed: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"magnitude must be finite, got {self.magnitude}")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _integer_keys(n: int) -> tuple[str, ...]:
    return tuple(map(str, range(n)))  # unique by construction


def gaussian_walk_pair(
    n: int, seed: int, names: tuple[str, str] = ("walk_x", "walk_y")
) -> tuple[TimeSeries, TimeSeries]:
    """Two independent random walks with standard-normal increments.

    The k-th value is the cumulative sum of the first k+1 increments.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    increments = _rng(seed).standard_normal((2, n))
    keys = _integer_keys(n)
    return (
        TimeSeries._with_unique_keys(keys, np.cumsum(increments[0]), names[0]),
        TimeSeries._with_unique_keys(keys, np.cumsum(increments[1]), names[1]),
    )


def correlated_ar1_pair(cfg: Ar1Config) -> tuple[TimeSeries, TimeSeries]:
    """AR(1) pair X_t = phi*X_{t-1} + Z_t, Y_t = phi*Y_{t-1} + W_t.

    The noise pair is built as W = rho*Z + sqrt(1 - rho^2)*Z' from two
    independent standard-normal sequences, so Cor(Z_t, W_t) = rho exactly.
    The recursions start from zero state (first values are Z_1 and W_1).
    With phi = 0 the outputs are plain iid N(0,1) sequences.
    """
    gen = _rng(cfg.seed)
    z = gen.standard_normal(cfg.n)
    z_extra = gen.standard_normal(cfg.n)
    w = cfg.rho * z + math.sqrt(1.0 - cfg.rho * cfg.rho) * z_extra
    x = _ar1_recursion(z, cfg.phi)
    y = _ar1_recursion(w, cfg.phi)
    keys = _integer_keys(cfg.n)
    return (
        TimeSeries._with_unique_keys(keys, x, "ar1_x"),
        TimeSeries._with_unique_keys(keys, y, "ar1_y"),
    )


def _ar1_recursion(noise: np.ndarray, phi: float) -> np.ndarray:
    # out[t] = noise[t] + phi * out[t-1] from zero state, one float step at a time.
    return np.fromiter(accumulate(noise.tolist(), lambda o, z: z + phi * o), float, noise.size)


def inject_outliers(
    x: TimeSeries, y: TimeSeries, cfg: OutlierConfig
) -> tuple[TimeSeries, TimeSeries]:
    """Overwrite k seeded-random positions with +magnitude in X, -magnitude in Y.

    The same positions are hit in both series (mimicking simultaneous
    measurement errors); all other values are unchanged.
    """
    _check_aligned(x, y)
    n = len(x)
    if cfg.k > n:
        raise TooManyOutliers(f"k={cfg.k} exceeds series length {n}")
    vx = x.values.copy()
    vy = y.values.copy()
    if cfg.k > 0:
        positions = _rng(cfg.seed).choice(n, size=cfg.k, replace=False)
        vx[positions] = cfg.magnitude
        vy[positions] = -cfg.magnitude
    return (
        TimeSeries._with_unique_keys(x.keys, vx, x.name),
        TimeSeries._with_unique_keys(y.keys, vy, y.name),
    )
