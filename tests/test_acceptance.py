"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated at run time.
"""

import functools
import itertools
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from ordpat import (
    Ar1Config,
    OrdinalPattern,
    OutlierConfig,
    PatternDistribution,
    TimeSeries,
    WindowScheme,
    alpha_beta,
    analyze_pair,
    coincident_reflected_counts,
    correlated_ar1_pair,
    extract_pattern,
    gaussian_walk_pair,
    increment_correlation,
    inject_outliers,
    lex_rank,
    pattern_sequence,
    rank_to_pattern,
    read_csv,
    reflect,
)
from ordpat.patterns import _pattern_codes, _rows
from oracles import pair_counts, pattern_list, sort_pattern, three_point_pattern_from_increments

FIXTURES = Path(__file__).parent / "fixtures"


def _band(samples, low=0.5, high=99.5):
    return float(np.percentile(samples, low)), float(np.percentile(samples, high))


def _inside(value, band):
    return band[0] <= value <= band[1]


@functools.cache
def _walk_monte_carlo(n_seeds=200, n=503):
    """Reflected/coincident counts for independent walks, h=2 sliding."""
    reflected, coincident = [], []
    for seed in range(n_seeds):
        x, y = gaussian_walk_pair(n, seed)
        rep = analyze_pair(x, y, 2)
        reflected.append(rep.n_reflected)
        coincident.append(rep.n_coincident)
    return np.array(reflected), np.array(coincident)


def _series(values):
    values = np.asarray(values, dtype=float)
    return TimeSeries(tuple(str(i) for i in range(len(values))), values)


def test_criterion_1_brute_force_oracle_equivalence():
    started = time.perf_counter()

    # Every tie-free window of length 3 and 4 drawing values from {0,1,2,3},
    # plus every window with ties, against the built-in-sort oracle.
    for length in (3, 4):
        for window in itertools.permutations(range(4), length):
            assert extract_pattern(window).indices == sort_pattern(window)
        for window in itertools.product(range(4), repeat=length):
            assert extract_pattern(window).indices == sort_pattern(window)

    # Every series over alphabet {0,1,2,3} of length 3..8: the h=2 pattern
    # sequence must equal the oracle's window-by-window list. Lengths up to 6
    # go through pattern_sequence per series; 7 and 8 run the same extraction
    # kernel batched, which is the code path pattern_sequence uses.
    for length in range(3, 7):
        for raw in itertools.product(range(4), repeat=length):
            seq = pattern_sequence(np.asarray(raw, dtype=float), 2)
            assert [tuple(map(int, r)) for r in seq.rows] == pattern_list(raw, 2)
    for length in (7, 8):
        grid = np.array(list(itertools.product(range(4), repeat=length)), dtype=float)
        windows = np.lib.stride_tricks.sliding_window_view(grid, 3, axis=1)
        _, places = _pattern_codes(windows.reshape(-1, 3).T)
        rows = _rows(places).reshape(windows.shape)
        for i, raw in enumerate(map(tuple, grid.astype(int))):
            assert [tuple(map(int, r)) for r in rows[i]] == pattern_list(raw, 2)

    # Pair counts. All 4096 length-3 pairs run end-to-end through
    # analyze_pair; all 65536 length-4 pairs through the counting API on
    # cached sequences. Because the per-series sequences were verified
    # exhaustively above for every length up to 8 and counting is a
    # position-by-position comparison of those sequences, these two exhaustive
    # levels pin the counts for every longer pair as well; a deterministic
    # sample of longer pairs re-checks the composed path end-to-end.
    all3 = [_series(raw) for raw in itertools.product(range(4), repeat=3)]
    raw3 = list(itertools.product(range(4), repeat=3))
    for i, x in enumerate(all3):
        for j, y in enumerate(all3):
            rep = analyze_pair(x, y, 2)
            assert (rep.n_coincident, rep.n_reflected) == pair_counts(raw3[i], raw3[j], 2)

    raw4 = list(itertools.product(range(4), repeat=4))
    seqs4 = [pattern_sequence(np.asarray(r, dtype=float), 2) for r in raw4]
    oracle4 = [pattern_list(r, 2) for r in raw4]
    for i in range(len(raw4)):
        for j in range(len(raw4)):
            got = coincident_reflected_counts(seqs4[i], seqs4[j])
            a, b = oracle4[i], oracle4[j]
            expected = (
                sum(1 for u, v in zip(a, b) if u == v),
                sum(1 for u, v in zip(a, b) if u == tuple(reversed(v))),
            )
            assert got == expected

    rng = np.random.default_rng(1)
    for _ in range(2000):
        length = int(rng.integers(5, 9))
        xs = rng.integers(0, 4, size=length).astype(float)
        ys = rng.integers(0, 4, size=length).astype(float)
        rep = analyze_pair(_series(xs), _series(ys), 2)
        assert (rep.n_coincident, rep.n_reflected) == pair_counts(xs, ys, 2)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle equivalence took {elapsed:.2f}s, budget 5s"
    print(f"ACCEPTANCE 1 oracle equivalence (exhaustive, {elapsed:.2f}s): PASS")


def test_criterion_2_three_point_increment_characterization():
    # 100k windows on a dyadic grid (all differences and sums exact in float),
    # with forced boundary slices: d1 = 0, d2 = 0, and d1 + d2 = 0.
    rng = np.random.default_rng(20260810)
    grid = rng.integers(-(2**20), 2**20, size=(100_000, 3))
    grid[:5_000, 1] = grid[:5_000, 0]
    grid[5_000:10_000, 2] = grid[5_000:10_000, 1]
    grid[10_000:15_000, 2] = grid[10_000:15_000, 0]
    windows = grid / 1024.0

    mismatches = 0
    for w in windows:
        d1 = w[1] - w[0]
        d2 = w[2] - w[1]
        if extract_pattern(w).indices != three_point_pattern_from_increments(d1, d2):
            mismatches += 1
    assert mismatches == 0
    print("ACCEPTANCE 2 increment-sign characterization (100000 windows): PASS")


def test_criterion_3_independent_walk_baseline():
    reflected, coincident = _walk_monte_carlo()
    mean_reflected = reflected.mean()
    # 501 sliding windows; analytic reflected baseline 3/16 puts the mean near
    # 500 * 3/16 = 93.75
    assert abs(mean_reflected - 93.75) <= 3.0, mean_reflected
    refl_band = _band(reflected)
    coin_band = _band(coincident)
    # single published realization: 101 reflected, 82 coincident
    assert _inside(101, refl_band), refl_band
    assert _inside(82, coin_band), coin_band
    print(
        f"ACCEPTANCE 3 independence baseline (mean {mean_reflected:.2f}, "
        f"bands {refl_band}/{coin_band}): PASS"
    )


AR1_REFERENCE = {
    # h: (coincident, reflected) for n=5791, phi=0.99, rho=-0.8, sliding
    1: (1205, 4586),
    2: (180, 3063),
    3: (28, 1832),
    4: (3, 1021),
    5: (0, 522),
    6: (0, 255),
}


def test_criterion_4_ar1_reproduction():
    started = time.perf_counter()
    reflected = {h: [] for h in AR1_REFERENCE}
    coincident = {h: [] for h in AR1_REFERENCE}
    for seed in range(100):
        x, y = correlated_ar1_pair(Ar1Config(n=5791, phi=0.99, rho=-0.8, seed=seed))
        for h in AR1_REFERENCE:
            counts = coincident_reflected_counts(
                pattern_sequence(x, h), pattern_sequence(y, h)
            )
            coincident[h].append(counts[0])
            reflected[h].append(counts[1])
    for h, (coin_ref, refl_ref) in AR1_REFERENCE.items():
        refl_band = _band(reflected[h])
        coin_band = _band(coincident[h])
        assert _inside(refl_ref, refl_band), (h, refl_ref, refl_band)
        assert _inside(coin_ref, coin_band), (h, coin_ref, coin_band)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"AR(1) Monte Carlo took {elapsed:.2f}s, budget 10s"
    print(f"ACCEPTANCE 4 AR(1) reproduction (100 seeds, {elapsed:.2f}s): PASS")


def test_criterion_5_outlier_robustness():
    corrs, reflected_h2, reflected_h3 = [], [], []
    for seed in range(100):
        x, y = correlated_ar1_pair(Ar1Config(n=503, phi=0.0, rho=0.0, seed=seed))
        ox, oy = inject_outliers(
            x, y, OutlierConfig(k=12, magnitude=10.0, seed=seed + 500_000)
        )
        corrs.append(increment_correlation(ox, oy))
        reflected_h2.append(analyze_pair(ox, oy, 2).n_reflected)
        reflected_h3.append(analyze_pair(ox, oy, 3).n_reflected)
    corrs = np.array(corrs)
    reflected_h2 = np.array(reflected_h2)
    reflected_h3 = np.array(reflected_h3)

    assert np.median(np.abs(corrs)) >= 0.5
    walk_reflected, _ = _walk_monte_carlo()
    independence_band = _band(walk_reflected)
    assert _inside(np.median(reflected_h2), independence_band)
    # published realization: correlation -0.6937, 79 reflected at h=2, 27 at h=3
    assert _inside(-0.6937, _band(corrs))
    assert _inside(79, _band(reflected_h2))
    assert _inside(27, _band(reflected_h3))
    print(
        f"ACCEPTANCE 5 outlier robustness (median corr {np.median(corrs):.3f}, "
        f"median refl {np.median(reflected_h2):.0f} in {independence_band}): PASS"
    )


# Reference 500-window daily SPX/VIX table (h=3, 2010-01-27..2012-01-24):
# pattern, count in SPX, count in VIX, published freqX*freqY(reflected) product.
SPX_VIX_TABLE = [
    ((0, 1, 2, 3), 45, 91, 0.009180),
    ((0, 1, 3, 2), 24, 37, 0.002400),
    ((0, 3, 1, 2), 27, 19, 0.001836),
    ((3, 0, 1, 2), 10, 15, 0.000640),
    ((0, 2, 1, 3), 11, 14, 0.000836),
    ((0, 2, 3, 1), 7, 12, 0.000196),
    ((0, 3, 2, 1), 15, 13, 0.000960),
    ((3, 0, 2, 1), 17, 18, 0.001088),
    ((2, 0, 1, 3), 11, 9, 0.000220),
    ((2, 0, 3, 1), 10, 7, 0.000080),
    ((2, 3, 0, 1), 8, 14, 0.000320),
    ((3, 2, 0, 1), 38, 28, 0.005928),
    ((1, 0, 2, 3), 32, 39, 0.003584),
    ((1, 0, 3, 2), 12, 10, 0.000672),
    ((1, 3, 0, 2), 8, 2, 0.000224),
    ((3, 1, 0, 2), 12, 5, 0.000432),
    ((1, 2, 0, 3), 18, 16, 0.001296),
    ((1, 2, 3, 0), 11, 16, 0.000572),
    ((1, 3, 2, 0), 6, 7, 0.000288),
    ((3, 1, 2, 0), 18, 19, 0.001008),
    ((2, 1, 0, 3), 19, 16, 0.001140),
    ((2, 1, 3, 0), 23, 17, 0.001748),
    ((2, 3, 1, 0), 28, 25, 0.004144),
    ((3, 2, 1, 0), 90, 51, 0.032760),
]


def test_criterion_6_estimator_arithmetic():
    # exact identities on the bundled golden fixture
    x = read_csv(FIXTURES / "golden_x.csv", "key", "value")
    y = read_csv(FIXTURES / "golden_y.csv", "key", "value")
    for h in (2, 3):
        rep = analyze_pair(x, y, h)
        assert rep.alpha_tilde + rep.base_eq == rep.p_eq
        assert rep.beta_tilde + rep.base_neq == rep.p_neq
        assert rep.p_eq == rep.n_coincident / rep.n_windows
        assert rep.p_neq == rep.n_reflected / rep.n_windows

    # negative-dependence estimate rebuilt from the published frequency table
    dist_x = PatternDistribution.from_counts(
        {OrdinalPattern(p): cx for p, cx, _, _ in SPX_VIX_TABLE}
    )
    dist_y = PatternDistribution.from_counts(
        {OrdinalPattern(p): cy for p, _, cy, _ in SPX_VIX_TABLE}
    )
    assert dist_x.total == dist_y.total == 500
    p_neq = 144 / 500  # 144 reflected windows out of 500
    _, beta = alpha_beta(dist_x, dist_y, p_eq=5 / 500, p_neq=p_neq)
    assert abs(beta - 0.2164) < 5e-4
    # and from a hand-entered copy of the published product column
    product_column_sum = sum(prod for _, _, _, prod in SPX_VIX_TABLE)
    assert abs(product_column_sum - 0.07155) < 5e-6
    assert abs((p_neq - product_column_sum) - 0.2164) < 5e-4
    print(f"ACCEPTANCE 6 estimator arithmetic (beta {beta:.6f}): PASS")


def test_criterion_7_structural_invariants():
    rng = np.random.default_rng(99)

    # monotone invariance and negation duality on random tie-free windows
    for _ in range(300):
        size = int(rng.integers(2, 8))
        window = rng.permutation(np.arange(-40.0, 40.0))[:size]
        base = extract_pattern(window).indices
        assert extract_pattern(3.0 * window + 11.0).indices == base
        assert extract_pattern(np.exp(window / 41.0)).indices == base
        assert extract_pattern(window**3).indices == base
        assert extract_pattern(-window).indices == reflect(extract_pattern(window)).indices

    # reflection is an involution without fixed points; ranks are a bijection
    for h in range(1, 6):
        seen = set()
        for rank in range(math.factorial(h + 1)):
            p = rank_to_pattern(rank, h)
            assert lex_rank(p) == rank
            assert reflect(reflect(p)) == p
            assert reflect(p) != p
            seen.add(p.indices)
        assert len(seen) == math.factorial(h + 1)

    # window-count closed forms over every series length
    for h in range(1, 6):
        for n in range(h + 1, 51):
            values = rng.standard_normal(n)
            assert len(pattern_sequence(values, h)) == n - h
            block = pattern_sequence(values, h, WindowScheme.BLOCK)
            assert len(block) == (n - 1) // h
    print("ACCEPTANCE 7 structural invariants: PASS")


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "ordpat", *[str(a) for a in args]],
        capture_output=True,
    )


def test_criterion_8_cli_determinism(tmp_path):
    gx, gy = FIXTURES / "golden_x.csv", FIXTURES / "golden_y.csv"
    commands = [
        ("dist", "--x", gx, "--h", 3, "--format", "tsv"),
        ("dist", "--x", gx, "--h", 2, "--format", "json"),
        ("analyze", "--x", gx, "--y", gy, "--h", 2),
        ("analyze", "--x", gx, "--y", gy, "--h", 3, "--format", "json"),
        ("delay", "--x", gx, "--y", gy, "--h", 2, "--from-delay", -2, "--to-delay", 2),
        ("rolling", "--x", gx, "--y", gy, "--h", 3, "--window", 40, "--format", "md"),
    ]
    for command in commands:
        first = _run(*command)
        second = _run(*command)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout
        assert first.stdout  # something was actually printed

    for kind, extra in (("walk", ()), ("ar1", ("--phi", 0.9, "--rho", -0.5))):
        runs = []
        for tag in ("a", "b"):
            out_x = tmp_path / f"{kind}_{tag}_x.csv"
            out_y = tmp_path / f"{kind}_{tag}_y.csv"
            res = _run("simulate", kind, "--n", 400, "--seed", 11, *extra,
                       "--out-x", out_x, "--out-y", out_y)
            assert res.returncode == 0, res.stderr
            runs.append((out_x.read_bytes(), out_y.read_bytes()))
        assert runs[0] == runs[1]

    inj = []
    out_x, out_y = tmp_path / "inj_x.csv", tmp_path / "inj_y.csv"
    for _ in range(2):
        res = _run("inject", "--x", tmp_path / "walk_a_x.csv",
                   "--y", tmp_path / "walk_a_y.csv",
                   "--k", 7, "--magnitude", 10, "--seed", 3,
                   "--out-x", out_x, "--out-y", out_y)
        assert res.returncode == 0, res.stderr
        inj.append((res.stdout, out_x.read_bytes(), out_y.read_bytes()))
    assert inj[0] == inj[1]
    print("ACCEPTANCE 8 CLI determinism: PASS")
