"""Self-test: the reference against tests/oracles.py, then every workload's
smallest point end to end.

Usage: python3 perfbench/run.py --self-test
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import numpy as np

import reference as ref
from common import ROOT

ORDERS = (1, 2, 3, 5, 8)


def _chained(window, epsilon):
    """The documented tie rule, one window at a time in plain Python."""
    order = sorted(range(len(window)), key=lambda i: (-window[i], i))
    groups, group = [], [order[0]]
    for prev, cur in zip(order, order[1:]):
        if window[prev] - window[cur] <= epsilon:
            group.append(cur)
        else:
            groups.append(sorted(group))
            group = [cur]
    groups.append(sorted(group))
    return tuple(i for g in groups for i in g)


def check_reference() -> list[str]:
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    gen = np.random.default_rng(20150225)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for h in ORDERS:
        for n in (h + 1, h + 2, 3 * h + 7, 60):
            # Few distinct values, so most windows hold ties.
            x = gen.integers(0, 4, n).astype(float).tolist()
            y = gen.integers(0, 4, n).astype(float).tolist()
            where = f"h={h} n={n}"
            c = ref.codes(x, h)
            expect([ref.decode(v, h) for v in c.code] == oracles.pattern_list(x, h),
                   f"{where}: sliding patterns differ from oracles.pattern_list")
            expect([ref.decode(v, h) for v in c.reflected]
                   == [p[::-1] for p in oracles.pattern_list(x, h)],
                   f"{where}: reflected codes are not the reversed patterns")
            block = [oracles.sort_pattern(x[s : s + h + 1]) for s in range(0, n - h, h)]
            expect([ref.decode(v, h) for v in ref.codes(x, h, ref.BLOCK).code] == block,
                   f"{where}: block patterns differ from oracles.sort_pattern")
            rep = ref.analyze(x, y, h)
            expect((rep.n_coincident, rep.n_reflected) == oracles.pair_counts(x, y, h),
                   f"{where}: counts differ from oracles.pair_counts")
            px, py = oracles.pattern_list(x, h), oracles.pattern_list(y, h)
            m = len(px)
            eq = sum(px.count(p) * py.count(p) for p in set(px))
            neq = sum(px.count(p) * py.count(p[::-1]) for p in set(px))
            expect(rep.base_eq == float(Fraction(eq, m * m))
                   and rep.base_neq == float(Fraction(neq, m * m)),
                   f"{where}: baselines differ from the oracle pattern frequencies")
            delays = [d for d in range(-3, 4) if n - abs(d) >= h + 1]
            for scheme in (ref.SLIDING, ref.BLOCK):
                for d, got in zip(delays, ref.delay_reports(x, y, h, scheme, delays)):
                    vx, vy = (x[: n - d], y[d:]) if d >= 0 else (x[-d:], y[: n + d])
                    step = 1 if scheme == ref.SLIDING else h
                    wx = [oracles.sort_pattern(vx[s : s + h + 1]) for s in range(0, len(vx) - h, step)]
                    wy = [oracles.sort_pattern(vy[s : s + h + 1]) for s in range(0, len(vy) - h, step)]
                    want = (sum(a == b for a, b in zip(wx, wy)),
                            sum(a == b[::-1] for a, b in zip(wx, wy)))
                    expect((got.n_coincident, got.n_reflected) == want,
                           f"{where} {scheme} delay {d}: counts differ from the oracle")
            window = max(h + 1, n // 2)
            for scheme in (ref.SLIDING, ref.BLOCK):
                for row in ref.rolling_reports(x, y, h, scheme, window, max(1, window // 3)):
                    want = ref.analyze(x[row.start : row.stop], y[row.start : row.stop], h, scheme)
                    expect(row.report == want, f"{where} {scheme} rolling {row.start}: "
                                               "slice differs from a direct analysis")
            for epsilon in (0.0, 0.5, 1.0, 2.5):
                grid = (gen.integers(0, 9, n) / 2.0).tolist()
                got = [ref.decode(v, h) for v in ref.codes(grid, h, ref.SLIDING, epsilon).code]
                want = [_chained(grid[s : s + h + 1], epsilon) for s in range(n - h)]
                expect(got == want, f"{where} epsilon {epsilon}: chaining differs")
                if epsilon == 0.0:
                    expect(want == oracles.pattern_list(grid, h),
                           f"{where}: plain chaining differs from oracles.pattern_list")
    return problems


def run_smallest_points() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
                   workload["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            where = f"{workload['name']} trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: outputs failed their checks")
            if sorted(result["metrics"]) != sorted(m["name"] for m in listed):
                problems.append(f"{where}: metrics {sorted(result['metrics'])}")
            print(f"self-test: {where}: ok, {result['attempted']} operations", flush=True)
    return problems


def main() -> int:
    problems = check_reference()
    print(f"self-test: reference against tests/oracles.py: "
          f"{'ok' if not problems else 'FAILED'}", flush=True)
    if not problems:
        problems = run_smallest_points()
    for p in problems:
        print("self-test FAILED: " + p)
    return 1 if problems else 0
