"""In-process workloads: batch_large and small_ties.

Both call ordpat's public API through the ``ordpat`` package at call time,
so the tracer's wrappers apply when they are installed.
"""

from __future__ import annotations

import ordpat
import numpy as np

import checks
import inputs
import reference as ref
from common import Op

BATCH_ORDERS = (2, 3, 5, 8)
BATCH_DELAYS = range(-10, 11)
SCHEMES = (ref.SLIDING, ref.BLOCK)


def _series(values: np.ndarray, keys: tuple[str, ...], name: str):
    return ordpat.TimeSeries(keys[: values.size], values, name)


def _analyze_op(label, x, y, h, scheme, epsilon, expected: ref.Report) -> Op:
    mode = ordpat.WindowScheme(scheme)
    return Op(
        label,
        lambda: ordpat.analyze_pair(x, y, h, mode, epsilon),
        lambda rep: checks.report(rep, expected, label),
        expected.n_windows,
    )


class BatchLarge:
    """One tie-free random-walk pair of n = 200,000, analysed every way.

    A pass runs analyze_pair at h in {2,3,5,8} under both schemes, a
    delay_scan at h=3 over delays -10..10 and a rolling_analysis at h=3
    with window 1000 and step 100. Only complete passes are measured.
    """

    whole_units = True

    def __init__(self, seed: int, smoke: bool = False):
        n, self.window, self.step = (4000, 200, 50) if smoke else (200_000, 1000, 100)
        xv, yv = inputs.walk_pair(seed, n)
        keys = tuple(str(i) for i in range(n))
        x, y = _series(xv, keys, "walk_x"), _series(yv, keys, "walk_y")
        self._ops = []
        tied = windows = distinct_h8 = 0
        for h in BATCH_ORDERS:
            for scheme in SCHEMES:
                expected = ref.analyze(xv, yv, h, scheme)
                tied += expected.tied_windows
                windows += 2 * expected.n_windows
                if h == 8:
                    distinct_h8 = max(distinct_h8, expected.distinct)
                self._ops.append(
                    _analyze_op(f"analyze_pair h={h} {scheme}", x, y, h, scheme, 0.0, expected)
                )
        delays = ref.delay_reports(xv, yv, 3, ref.SLIDING, BATCH_DELAYS)
        self._ops.append(Op(
            "delay_scan h=3",
            lambda: ordpat.delay_scan(x, y, 3, ordpat.WindowScheme.SLIDING, BATCH_DELAYS),
            lambda scan: _check_scan(scan, delays),
            sum(r.n_windows for r in delays),
        ))
        rows = ref.rolling_reports(xv, yv, 3, ref.SLIDING, self.window, self.step)
        self._ops.append(Op(
            "rolling_analysis h=3",
            lambda: ordpat.rolling_analysis(
                x, y, 3, ordpat.WindowScheme.SLIDING, self.window, self.step),
            lambda result: checks.rolling(result, rows, keys, ref.DEFAULT_WATCH, "rolling"),
            sum(r.report.n_windows for r in rows),
        ))
        self.inputs = {
            "n": n,
            "tied_window_share": tied / windows,
            "rows_dropped": 0,
            "distinct_patterns_h8": distinct_h8,
        }

    def ops(self) -> list[Op]:
        return self._ops

    traced_ops = ops


def _check_scan(scan, expected: list[ref.Report]) -> list[str]:
    delays = [d for d, _ in scan]
    if delays != list(BATCH_DELAYS):
        return [f"delay_scan returned delays {delays}"]
    problems = []
    for (d, rep), want in zip(scan, expected):
        problems += checks.report(rep, want, f"delay_scan d={d}")
    return problems


class SmallTies:
    """3,000 short analyze_pair calls on half-unit grid data, cycled.

    Half the calls use epsilon 0.25, which takes the per-window epsilon path;
    on this grid it merges exactly the equal values.
    """

    whole_units = False
    pool_size = 3000

    def __init__(self, seed: int, smoke: bool = False):
        calls = inputs.small_calls(seed, 200 if smoke else self.pool_size)
        keys = tuple(str(i) for i in range(inputs.SMALL_MAX_N))
        self._ops = []
        tied = windows = 0
        for i, c in enumerate(calls):
            expected = ref.analyze(c.x, c.y, c.h, c.scheme, c.epsilon)
            tied += expected.tied_windows
            windows += 2 * expected.n_windows
            label = f"call {i}: n={c.x.size} h={c.h} {c.scheme} eps={c.epsilon}"
            self._ops.append(_analyze_op(
                label, _series(c.x, keys, "x"), _series(c.y, keys, "y"),
                c.h, c.scheme, c.epsilon, expected))
        self.inputs = {
            "calls": len(calls),
            "tied_window_share": tied / windows,
            "rows_dropped": 0,
            "distinct_patterns_h8": None,  # no call uses h=8
        }

    def ops(self) -> list[Op]:
        return self._ops

    traced_ops = ops


def warm_up(workload: str) -> None:
    """A small run of the workload's calls, so lazy set-up is done."""
    if workload == "batch_large":
        xv, yv = inputs.walk_pair(0, 600)
        keys = tuple(str(i) for i in range(600))
        x, y = _series(xv, keys, "x"), _series(yv, keys, "y")
        for h in BATCH_ORDERS:
            for scheme in ordpat.WindowScheme:
                ordpat.analyze_pair(x, y, h, scheme)
        ordpat.delay_scan(x, y, 3, ordpat.WindowScheme.SLIDING, range(-2, 3))
        ordpat.rolling_analysis(x, y, 3, ordpat.WindowScheme.SLIDING, 200, 100)
    else:
        keys = tuple(str(i) for i in range(inputs.SMALL_MAX_N))
        for c in inputs.small_calls(0, 16):
            ordpat.analyze_pair(_series(c.x, keys, "x"), _series(c.y, keys, "y"),
                                c.h, ordpat.WindowScheme(c.scheme), c.epsilon)
