import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ordpat import (
    DEFAULT_WATCH,
    DelayTooLarge,
    EmptySequence,
    LengthMismatch,
    NotAligned,
    OrderMismatch,
    OrdinalPattern,
    PatternDistribution,
    PatternSequence,
    SeriesTooShort,
    TimeSeries,
    UnsupportedOrder,
    WindowScheme,
    ZeroVariance,
    alpha_beta,
    analyze_pair,
    coincident_reflected_counts,
    delay_scan,
    distribution,
    increment_correlation,
    lex_rank,
    pattern_sequence,
    reflect,
    rolling_analysis,
)
from oracles import pair_counts, pattern_list
from oracles import pair_report as oracle_pair_report

def series(values, name="s"):
    values = np.asarray(values, dtype=float)
    return TimeSeries(tuple(str(i) for i in range(len(values))), values, name)


def random_series(n, seed, name="s"):
    rng = np.random.default_rng(seed)
    return series(rng.standard_normal(n), name)


# --- distribution ----------------------------------------------------------------


def test_distribution_counts_and_freqs():
    seq = pattern_sequence([1.0, 2.0, 3.0, 2.5, 1.5, 0.5], 2)
    dist = distribution(seq)
    assert dist.total == len(seq) == 4
    assert sum(dist.counts.values()) == dist.total
    assert dist.freq(OrdinalPattern((2, 1, 0))) == 1 / 4
    assert dist.freq(OrdinalPattern((0, 2, 1))) == 0.0


def test_distribution_single_pattern():
    seq = pattern_sequence(np.arange(10.0), 2)
    dist = distribution(seq)
    assert dist.counts == {OrdinalPattern((2, 1, 0)): 8}
    assert dist.freq(OrdinalPattern((2, 1, 0))) == 1.0


def test_distribution_keys_are_rank_ordered():
    dist = distribution(pattern_sequence(random_series(300, 11).values, 3))
    ranks = [lex_rank(p) for p in dist.counts]
    assert ranks == sorted(ranks)


def test_distribution_empty_sequence():
    seq = PatternSequence(2, WindowScheme.SLIDING, np.empty((0, 3), dtype=np.int16))
    with pytest.raises(EmptySequence):
        distribution(seq)


def test_distribution_matches_naive_counter():
    x = random_series(200, 3)
    seq = pattern_sequence(x, 3)
    dist = distribution(seq)
    for p in dist.counts:
        naive = sum(1 for q in seq if q == p)
        assert dist.counts[p] == naive


def test_from_counts_round_trip():
    counts = {OrdinalPattern((2, 1, 0)): 3, OrdinalPattern((0, 1, 2)): 1}
    dist = PatternDistribution.from_counts(counts)
    assert dist.total == 4
    assert dist.order == 2
    assert dist.freq(OrdinalPattern((2, 1, 0))) == 0.75


def test_from_counts_refuses_negative_and_fractional_counts():
    up, down = OrdinalPattern((0, 1, 2)), OrdinalPattern((2, 1, 0))
    for counts in ({up: 3, down: -1}, {up: 2.5, down: 0.5}, {up: 2.0, down: 1}):
        with pytest.raises(ValueError, match=r"pattern \(\d,\d,\d\) has count"):
            PatternDistribution.from_counts(counts)
    with pytest.raises(ValueError, match=r"pattern \(2,1,0\) has count -1"):
        PatternDistribution(2, {up: 3, down: -1}, 2)
    dist = PatternDistribution.from_counts({up: np.int64(3), down: 0, OrdinalPattern((1, 0, 2)): 1})
    assert (dist.total, dist.freq(up), dist.freq(down)) == (4, 0.75, 0.0)


def test_pattern_distribution_validation():
    up, down = OrdinalPattern((0, 1, 2)), OrdinalPattern((2, 1, 0))
    with pytest.raises(EmptySequence, match="at least one pattern"):
        PatternDistribution(2, {}, 0)
    with pytest.raises(ValueError, match="^counts do not sum to total$"):
        PatternDistribution(2, {up: 3, down: 1}, 5)
    with pytest.raises(OrderMismatch, match=r"^pattern \(0,1,2,3\) has order 3, distribution has 2$"):
        PatternDistribution(2, {up: 1, OrdinalPattern((0, 1, 2, 3)): 1}, 2)
    with pytest.raises(EmptySequence, match="^no counts given$"):
        PatternDistribution.from_counts({})


# --- pairwise counts ---------------------------------------------------------------


def test_identical_tie_free_sequences():
    x = random_series(100, 7)
    sx = pattern_sequence(x, 3)
    assert coincident_reflected_counts(sx, sx) == (len(sx), 0)


def test_elementwise_reflected_sequences():
    x = random_series(100, 8)
    sx = pattern_sequence(x, 3)
    sy = pattern_sequence(-x.values, 3)
    assert coincident_reflected_counts(sx, sy) == (0, len(sx))


def test_count_mismatch_errors():
    a = pattern_sequence(np.arange(10.0), 2)
    b = pattern_sequence(np.arange(9.0), 2)
    with pytest.raises(LengthMismatch):
        coincident_reflected_counts(a, b)
    c = pattern_sequence(np.arange(11.0), 3)
    with pytest.raises(OrderMismatch):
        coincident_reflected_counts(a, c)


# --- alpha/beta ---------------------------------------------------------------------


def test_alpha_zero_for_concentrated_identical_distributions():
    dist = PatternDistribution.from_counts({OrdinalPattern((2, 1, 0)): 10})
    alpha, beta = alpha_beta(dist, dist, p_eq=1.0, p_neq=0.0)
    assert alpha == 0.0  # baseline equals 1 when both sit on one pattern
    assert beta == 0.0


def test_alpha_beta_validation():
    d2 = PatternDistribution.from_counts({OrdinalPattern((2, 1, 0)): 1})
    d3 = PatternDistribution.from_counts({OrdinalPattern((3, 2, 1, 0)): 1})
    with pytest.raises(OrderMismatch):
        alpha_beta(d2, d3, 0.5, 0.5)
    with pytest.raises(ValueError):
        alpha_beta(d2, d2, 1.5, 0.0)


def test_baseline_symmetry_under_reflection():
    # base_neq(X, Y) equals base_eq(X, Y-with-reflected-patterns)
    x = random_series(150, 21)
    y = random_series(150, 22)
    dx = distribution(pattern_sequence(x, 3))
    dy = distribution(pattern_sequence(y, 3))
    reflected_dy = PatternDistribution.from_counts(
        {reflect(p): c for p, c in dy.counts.items()}
    )
    _, beta = alpha_beta(dx, dy, 0.0, 0.0)
    alpha_refl, _ = alpha_beta(dx, reflected_dy, 0.0, 0.0)
    assert math.isclose(-beta, -alpha_refl, rel_tol=1e-12, abs_tol=1e-15)


def test_baseline_cauchy_schwarz_bound():
    for seed in range(5):
        dx = distribution(pattern_sequence(random_series(80, 30 + seed), 2))
        dy = distribution(pattern_sequence(random_series(80, 60 + seed), 2))
        alpha, _ = alpha_beta(dx, dy, 0.0, 0.0)
        base_eq = -alpha
        bound = math.sqrt(sum(f * f for f in (c / dx.total for c in dx.counts.values())))
        bound *= math.sqrt(sum(f * f for f in (c / dy.total for c in dy.counts.values())))
        assert 0.0 <= base_eq <= bound + 1e-15 <= 1.0 + 1e-15


# --- analyze_pair ----------------------------------------------------------------------


def test_self_comparison():
    x = random_series(200, 5)
    rep = analyze_pair(x, x, 3)
    assert rep.p_eq == 1.0
    assert rep.n_reflected == 0
    assert rep.alpha_tilde > 0


def test_antisymmetric_pair():
    x = random_series(200, 6)
    y = TimeSeries(x.keys, -x.values, "neg")
    rep = analyze_pair(x, y, 3)
    assert rep.p_neq == 1.0
    assert rep.n_coincident == 0


def test_monotone_invariance_of_full_report():
    x = random_series(150, 9)
    y = random_series(150, 10)
    rep = analyze_pair(x, y, 3)
    fx = TimeSeries(x.keys, np.exp(0.3 * x.values) + 5.0, "fx")
    gy = TimeSeries(y.keys, y.values**3 + 2.0 * y.values, "gy")  # strictly increasing
    rep2 = analyze_pair(fx, gy, 3)
    assert dataclasses.asdict(rep) == dataclasses.asdict(rep2)


def test_estimator_identity_is_exact():
    for seed in range(10):
        x = random_series(60, 100 + seed)
        y = random_series(60, 200 + seed)
        rep = analyze_pair(x, y, 2)
        assert rep.alpha_tilde + rep.base_eq == rep.p_eq
        assert rep.beta_tilde + rep.base_neq == rep.p_neq


def test_analyze_pair_matches_brute_force_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        xs = rng.integers(0, 4, size=n).astype(float)
        ys = rng.integers(0, 4, size=n).astype(float)
        rep = analyze_pair(series(xs), series(ys), 2)
        assert (rep.n_coincident, rep.n_reflected) == pair_counts(xs, ys, 2)


def test_z_diagnostics_none_when_baseline_degenerate():
    x = series(np.arange(10.0))
    rep = analyze_pair(x, x, 2)
    assert rep.base_eq == 1.0
    assert rep.z_eq is None  # variance 0: diagnostic undefined
    assert rep.z_neq is None  # base_neq == 0 for a monotone pair


def test_analyze_pair_validation():
    x = random_series(20, 1)
    y = random_series(19, 2)
    with pytest.raises(NotAligned):
        analyze_pair(x, y, 2)
    shuffled = TimeSeries(tuple(reversed(x.keys)), x.values, "r")
    with pytest.raises(NotAligned):
        analyze_pair(x, shuffled, 2)
    # Distinct key tuples of equal length are still compared key by key.
    renamed = TimeSeries(x.keys[:-1] + ("other",), x.values, "k")
    assert renamed.keys is not x.keys
    with pytest.raises(NotAligned, match="different keys"):
        analyze_pair(x, renamed, 2)
    with pytest.raises(SeriesTooShort):
        analyze_pair(series([1.0, 2.0]), series([2.0, 1.0]), 2)


# --- delay scan -------------------------------------------------------------------------


def test_delay_zero_reproduces_analyze_pair():
    x = random_series(120, 13)
    y = random_series(120, 14)
    rep = analyze_pair(x, y, 2)
    [(d, scanned)] = delay_scan(x, y, 2, WindowScheme.SLIDING, [0])
    assert d == 0
    assert dataclasses.asdict(scanned) == dataclasses.asdict(rep)


def test_positive_delay_matches_lagged_construction():
    # y runs one step behind x, so comparing X at i with Y at i+1 aligns them.
    x = random_series(80, 15)
    lagged = np.concatenate(([x.values[0] - 1.0], x.values[:-1]))
    y = TimeSeries(x.keys, lagged, "lagged")
    scan = dict(delay_scan(x, y, 2, WindowScheme.SLIDING, [-1, 0, 1]))
    assert scan[1].p_eq == 1.0
    assert scan[-1].p_eq < 1.0


def test_delay_too_large():
    x = random_series(10, 16)
    y = random_series(10, 17)
    with pytest.raises(DelayTooLarge):
        delay_scan(x, y, 2, WindowScheme.SLIDING, [8])
    # 10 - 7 = 3 points = h + 1 still works
    scan = delay_scan(x, y, 2, WindowScheme.SLIDING, [7])
    assert scan[0][1].n_windows == 1


def test_delay_scan_refuses_a_delay_before_reading_the_rest():
    x, y = random_series(50, 18), random_series(50, 19)

    def delays():
        yield from (0, 1, 10**9)
        for pulled in itertools.count(4):
            assert pulled <= 1000, "delay_scan read on past an out-of-range delay"
            yield 0

    with pytest.raises(DelayTooLarge, match=r"^delay 1000000000 leaves 0 overlapping points"):
        delay_scan(x, y, 2, WindowScheme.SLIDING, delays())


@pytest.mark.parametrize("scheme", list(WindowScheme))
def test_delays_window_and_step_must_be_integers(monkeypatch, scheme):
    # A fractional delay, window or step is refused by name before any
    # window is extracted, not truncated or failing deep inside. numpy
    # integers work and give the same reports as Python ints.
    import ordpat.dependence as dependence

    x, y = random_series(50, 20), random_series(50, 21)
    with monkeypatch.context() as patched:
        patched.setattr(dependence, "pattern_sequence", None)  # any extraction fails
        with pytest.raises(TypeError, match=r"^delay must be an integer, got 1\.5$"):
            delay_scan(x, y, 2, scheme, [0, 1.5])
        with pytest.raises(TypeError, match=r"^delay must be an integer, got '1'$"):
            delay_scan(x, y, 2, scheme, ["1"])
        with pytest.raises(TypeError, match=r"^window_len must be an integer, got 10\.5$"):
            rolling_analysis(x, y, 2, scheme, 10.5, 1)
        with pytest.raises(TypeError, match=r"^step must be an integer, got 2\.5$"):
            rolling_analysis(x, y, 2, scheme, 10, 2.5)
    scan = delay_scan(x, y, 2, scheme, np.arange(-3, 4))
    assert scan == delay_scan(x, y, 2, scheme, range(-3, 4))
    assert {type(d) for d, _ in scan} == {int}
    rolling = rolling_analysis(x, y, 2, scheme, np.int64(10), np.int32(3))
    assert rolling == rolling_analysis(x, y, 2, scheme, 10, 3)
    assert {type(w.report.n_windows) for w in rolling} == {int}


def test_delay_shift_collapses_ar1_dependence():
    # strong reflected dependence at zero delay vanishes one step away
    from ordpat import Ar1Config, correlated_ar1_pair

    x, y = correlated_ar1_pair(Ar1Config(n=2000, phi=0.99, rho=-0.8, seed=1))
    scan = dict(delay_scan(x, y, 2, WindowScheme.SLIDING, [-1, 0, 1]))
    assert scan[0].beta_tilde > 0.3
    assert abs(scan[-1].beta_tilde) < 0.1
    assert abs(scan[1].beta_tilde) < 0.1


def test_independent_walks_have_near_zero_estimates():
    from ordpat import gaussian_walk_pair

    for seed in (10, 11, 12, 13, 14):
        x, y = gaussian_walk_pair(503, seed)
        rep = analyze_pair(x, y, 2)
        assert abs(rep.alpha_tilde) < 0.06
        assert abs(rep.beta_tilde) < 0.06


def test_rolling_independent_walks_stay_in_independence_band():
    from ordpat import gaussian_walk_pair

    x, y = gaussian_walk_pair(503 * 4, 3)
    rolling = rolling_analysis(x, y, 2, WindowScheme.SLIDING, 503, 503)
    assert len(rolling) == 4
    for w in rolling:
        assert 60 <= w.report.n_reflected <= 130


def test_delay_scan_block_scheme():
    x = random_series(30, 18)
    y = random_series(30, 19)
    [(_, rep)] = delay_scan(x, y, 2, WindowScheme.BLOCK, [1])
    assert rep.n_windows == (29 - 1) // 2


# --- rolling ---------------------------------------------------------------------------


def test_rolling_full_length_equals_analyze_pair():
    x = random_series(100, 23)
    y = random_series(100, 24)
    rolling = rolling_analysis(x, y, 3, WindowScheme.SLIDING, len(x), 1)
    assert len(rolling) == 1
    w = rolling.windows[0]
    assert w.start_key == x.keys[0] and w.end_key == x.keys[-1]
    assert dataclasses.asdict(w.report) == dataclasses.asdict(analyze_pair(x, y, 3))


def test_rolling_window_arithmetic_and_partial_drop():
    x = random_series(22, 25)
    y = random_series(22, 26)
    rolling = rolling_analysis(x, y, 1, WindowScheme.SLIDING, 2, 2)
    assert len(rolling) == 11
    rolling2 = rolling_analysis(x, y, 1, WindowScheme.SLIDING, 4, 3)
    # starts 0,3,6,9,12,15,18 fit; start 21 would need 24 points
    assert len(rolling2) == 7
    assert rolling2.windows[-1].end_key == x.keys[18 + 3]


def test_rolling_default_watch_at_h3():
    x = random_series(60, 27)
    y = random_series(60, 28)
    rolling = rolling_analysis(x, y, 3, WindowScheme.SLIDING, 30, 30)
    assert tuple(rolling.windows[0].watch_counts) == DEFAULT_WATCH
    rolling2 = rolling_analysis(x, y, 2, WindowScheme.SLIDING, 30, 30)
    assert rolling2.windows[0].watch_counts == {}


def test_rolling_watch_counts_match_distribution():
    x = random_series(90, 29)
    y = random_series(90, 31)
    watch = (OrdinalPattern((0, 1, 2, 3)), OrdinalPattern((3, 2, 1, 0)))
    rolling = rolling_analysis(x, y, 3, WindowScheme.SLIDING, 45, 45, watch)
    for w, start in zip(rolling, (0, 45)):
        dist_x = distribution(pattern_sequence(x.values[start : start + 45], 3))
        dist_y = distribution(pattern_sequence(y.values[start : start + 45], 3))
        for p in watch:
            nx, ny = w.watch_counts[p]
            assert nx == dist_x.counts.get(p, 0)
            assert ny == dist_y.counts.get(p, 0)


def test_rolling_reports_compare_as_their_windows_do():
    # == reads the columns; it must agree with comparing the window objects.
    x, y = random_series(90, 36), random_series(90, 37)
    watch = (OrdinalPattern((0, 1, 2, 3)), OrdinalPattern((3, 2, 1, 0)))
    base = rolling_analysis(x, y, 3, WindowScheme.SLIDING, 30, 7, watch)
    changed = base.columns["n_coincident"].copy()
    changed[-1] += 1
    counts = base.watch_counts.copy()
    counts[0, 1, 0] += 1
    flat = series([2.5] * 90)
    constant = rolling_analysis(flat, flat, 3, WindowScheme.BLOCK, 30, 7)
    assert math.isnan(constant.columns["z_eq"][0])
    pairs = [
        (base, rolling_analysis(x, y, 3, WindowScheme.SLIDING, 30, 7, watch)),
        (base, rolling_analysis(x, y, 3, WindowScheme.SLIDING, 30, 7, watch[::-1])),
        (constant, rolling_analysis(flat, flat, 3, WindowScheme.BLOCK, 30, 7)),
        (base, rolling_analysis(x, y, 3, WindowScheme.SLIDING, 30, 8, watch)),
        (base, dataclasses.replace(base, columns={**base.columns, "n_coincident": changed})),
        (base, dataclasses.replace(base, watch_counts=counts)),
        (base, rolling_analysis(x, y, 3, WindowScheme.SLIDING, 30, 7, watch[:1])),
    ]
    assert [a == b for a, b in pairs] == [True] * 3 + [False] * 4
    for a, b in pairs:
        assert (a == b) == (b == a) == (a.windows == b.windows)


def test_rolling_watch_accepts_any_iterable_of_patterns_or_index_tuples():
    # The watch list is read once, as OrdinalPatterns or index tuples; a
    # pattern given twice is one key, counted once.
    x, y = random_series(90, 34), random_series(90, 35)
    patterns = (OrdinalPattern((0, 1, 2, 3)), OrdinalPattern((3, 2, 1, 0)))
    rolling = rolling_analysis(x, y, 3, WindowScheme.SLIDING, 45, 20, patterns)
    for watch in (iter(patterns), [(0, 1, 2, 3), [3, 2, 1, 0]], patterns + patterns[:1]):
        again = rolling_analysis(x, y, 3, WindowScheme.SLIDING, 45, 20, watch)
        assert again == rolling and again.watch == patterns
    with pytest.raises(ValueError, match="not a permutation"):
        rolling_analysis(x, y, 3, WindowScheme.SLIDING, 45, 20, [(0, 1, 1, 3)])


def test_rolling_validation():
    x = random_series(30, 32)
    y = random_series(30, 33)
    with pytest.raises(SeriesTooShort):
        rolling_analysis(x, y, 3, WindowScheme.SLIDING, 3, 1)
    with pytest.raises(SeriesTooShort):
        rolling_analysis(x, y, 3, WindowScheme.SLIDING, 31, 1)
    with pytest.raises(ValueError):
        rolling_analysis(x, y, 2, WindowScheme.SLIDING, 10, 0)
    with pytest.raises(OrderMismatch):
        rolling_analysis(x, y, 2, WindowScheme.SLIDING, 10, 10,
                         watch=(OrdinalPattern((0, 1, 2, 3)),))


# --- increment correlation ----------------------------------------------------------------


def test_increment_correlation_affine():
    x = random_series(50, 41)
    y = TimeSeries(x.keys, 2.0 * x.values + 1.0, "affine")
    assert increment_correlation(x, y) == pytest.approx(1.0)


def test_increment_correlation_negation():
    x = random_series(50, 42)
    y = TimeSeries(x.keys, -x.values, "neg")
    assert increment_correlation(x, y) == pytest.approx(-1.0)


@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_increment_correlation_near_the_largest_float(scale):
    rng = np.random.default_rng(46)
    x, y = series(rng.uniform(-1, 1, 200)), series(rng.uniform(-1, 1, 200))
    expected = increment_correlation(x, y)
    huge = increment_correlation(series(x.values * scale), series(y.values * scale))
    assert math.isfinite(huge)
    assert huge == pytest.approx(expected, abs=1e-12)


def test_increment_correlation_errors():
    x = series([1.0, 2.0, 3.0])
    const = series([5.0, 5.0, 5.0])
    with pytest.raises(ZeroVariance):
        increment_correlation(x, const)
    with pytest.raises(SeriesTooShort):
        increment_correlation(series([1.0, 2.0]), series([2.0, 1.0]))
    with pytest.raises(NotAligned):
        increment_correlation(x, random_series(4, 43))


# --- property tests over random pairs -------------------------------------------------------


@settings(max_examples=60)
@given(
    st.lists(st.integers(0, 3), min_size=4, max_size=8),
    st.lists(st.integers(0, 3), min_size=4, max_size=8),
)
def test_pair_counts_match_oracle_on_small_alphabet(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = [float(v) for v in xs[:n]], [float(v) for v in ys[:n]]
    rep = analyze_pair(series(xs), series(ys), 2)
    assert (rep.n_coincident, rep.n_reflected) == pair_counts(xs, ys, 2)
    assert 0.0 <= rep.base_eq <= 1.0 and 0.0 <= rep.base_neq <= 1.0
    assert -1.0 <= rep.alpha_tilde <= 1.0 and -1.0 <= rep.beta_tilde <= 1.0


# --- delay/rolling slicing against a per-slice brute force ----------------------------------

_RNG = np.random.default_rng(123)
ORACLE_DATA = {
    "walk": np.cumsum(_RNG.standard_normal((2, 40)), axis=1),
    # half-unit grid with frequent exact ties and neighbours 0.5 apart
    "halves": np.cumsum(_RNG.integers(-2, 3, size=(2, 40)), axis=1) / 2.0,
}
ORACLE_CASES = [("walk", 0.0), ("halves", 0.0), ("halves", 0.25), ("halves", 0.5)]


def _assert_matches_oracle(rep, want):
    got = (rep.n_windows, rep.n_coincident, rep.n_reflected)
    assert got == (want["n_windows"], want["n_coincident"], want["n_reflected"])
    assert abs(rep.base_eq - want["base_eq"]) <= 1e-12
    assert abs(rep.base_neq - want["base_neq"]) <= 1e-12


@pytest.mark.parametrize("h", [1, 2, 8])
@pytest.mark.parametrize("scheme", list(WindowScheme))
@pytest.mark.parametrize("data, epsilon", ORACLE_CASES)
def test_delay_scan_matches_per_slice_oracle(h, scheme, data, epsilon):
    stride = 1 if scheme is WindowScheme.SLIDING else h
    for n in (h + 1, 30):
        xs, ys = ORACLE_DATA[data][:, :n]
        m = n - h - 1  # the largest delay with h + 1 overlapping points
        lists = [range(-m, m + 1)]
        if m >= 2:  # unsorted, with repeats and both extremes
            lists.append([2, -m, 0, 2, m, -1])
        for delays in lists:
            scan = delay_scan(series(xs), series(ys), h, scheme, delays, epsilon)
            assert [d for d, _ in scan] == list(delays)
            for d, rep in scan:
                vx, vy = (xs[: n - d], ys[d:]) if d >= 0 else (xs[-d:], ys[: n + d])
                _assert_matches_oracle(rep, oracle_pair_report(vx, vy, h, epsilon, stride))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 2), min_size=4, max_size=60),
    st.lists(st.integers(0, 2), min_size=4, max_size=60),
    st.integers(1, 3),
    st.sampled_from(list(WindowScheme)),
    st.sampled_from([0.0, 1.0]),
    st.data(),
)
def test_delay_scan_equals_analyze_pair_on_each_overlap(xs, ys, h, scheme, epsilon, data):
    # Three levels make long runs of equal patterns, so many windows left out
    # at the ends match each other; every report must equal a fresh analysis
    # of the overlap, float for float.
    n = min(len(xs), len(ys))
    m = n - h - 1
    if m < 0:
        return
    delays = data.draw(st.lists(st.integers(-m, m), max_size=12))
    scan = delay_scan(series(xs[:n]), series(ys[:n]), h, scheme, delays, epsilon)
    assert [d for d, _ in scan] == delays
    for d, rep in scan:
        vx, vy = (xs[: n - d], ys[d:n]) if d >= 0 else (xs[-d:n], ys[: n + d])
        assert rep == analyze_pair(series(vx), series(vy), h, scheme, epsilon)


@pytest.mark.parametrize("h", [1, 2, 8])
@pytest.mark.parametrize("scheme", list(WindowScheme))
@pytest.mark.parametrize("data, epsilon", ORACLE_CASES)
def test_rolling_analysis_matches_per_slice_oracle(h, scheme, data, epsilon):
    stride = 1 if scheme is WindowScheme.SLIDING else h
    watch = (OrdinalPattern(tuple(range(h + 1))), OrdinalPattern(tuple(range(h, -1, -1))))
    # At h = 8, also a pattern that no window of either series shows, in any
    # phase.
    seen = {p.indices for p in watch}
    seen.update(*(pattern_list(values, h, epsilon) for values in ORACLE_DATA[data]))
    unseen = [p for p in itertools.permutations(range(h + 1)) if p not in seen][:1]
    assert h < 8 or unseen
    watch += tuple(map(OrdinalPattern, unseen))
    for n, window_len in ((h + 1, h + 1), (40, h + 1), (40, h + 12)):
        xs, ys = ORACLE_DATA[data][:, :n]
        for step in (1, 3, window_len):
            rolling = rolling_analysis(
                series(xs), series(ys), h, scheme, window_len, step, watch, epsilon
            )
            starts = range(0, n - window_len + 1, step)
            assert len(rolling) == len(starts)
            for w, start in zip(rolling, starts):
                vx, vy = xs[start : start + window_len], ys[start : start + window_len]
                assert (w.start_key, w.end_key) == (str(start), str(start + window_len - 1))
                _assert_matches_oracle(
                    w.report, oracle_pair_report(vx, vy, h, epsilon, stride)
                )
                px = pattern_list(vx, h, epsilon, stride)
                py = pattern_list(vy, h, epsilon, stride)
                assert w.watch_counts == {
                    p: (px.count(p.indices), py.count(p.indices)) for p in watch
                }


@pytest.mark.parametrize("h", [1, 3, 8])
@pytest.mark.parametrize("scheme", list(WindowScheme))
@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=9, max_size=50),
    st.lists(st.integers(0, 4), min_size=9, max_size=50),
    st.integers(0, 50),
    st.sampled_from([(0, 1), (0, 3), (1, 0), (1, 5)]),
)
@example([2] * 30, [3] * 30, 10, (0, 3))
def test_rolling_windows_equal_analyze_pair_on_each_slice(h, scheme, epsilon, xs, ys, extra, step):
    # Values on a half-unit grid, so epsilon 0.5 merges neighbours; the step
    # is 1, 3, the window or the window + 5. Every window's report must equal
    # a fresh analysis of its slice, float for float and None for None.
    n = min(len(xs), len(ys))
    xs, ys = [v / 2 for v in xs[:n]], [v / 2 for v in ys[:n]]
    window_len = min(h + 1 + extra, n)
    step = step[0] * window_len + step[1]
    rolling = rolling_analysis(series(xs), series(ys), h, scheme, window_len, step, (), epsilon)
    starts = range(0, n - window_len + 1, step)
    assert len(rolling) == len(starts)
    constant = len(set(xs)) == len(set(ys)) == 1
    for w, start in zip(rolling, starts):
        vx, vy = xs[start : start + window_len], ys[start : start + window_len]
        assert w.report == analyze_pair(series(vx), series(vy), h, scheme, epsilon)
        if constant:
            assert (w.report.base_eq, w.report.z_eq, w.report.z_neq) == (1.0, None, None)


def test_rolling_quotients_are_python_divisions_beyond_2_to_53():
    # Where the divisor no longer converts to float64 exactly (a window of
    # 95 million points, squared), each rolling quotient is still Python's
    # correctly rounded int division; converting both sides to float64
    # first would round these three counts twice and miss by one ulp.
    from ordpat.dependence import _quotient

    d = 3**34
    counts = [14452323777604319, 1136833878997956, 2124231790572604]
    assert (np.array(counts, dtype=float) / float(d)).tolist() != [c / d for c in counts]
    assert _quotient(np.array([counts]), d).tolist() == [[c / d for c in counts]]


def test_nan_or_negative_epsilon_is_rejected_everywhere():
    x = random_series(20, 50)
    y = random_series(20, 51)
    for epsilon in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            analyze_pair(x, y, 2, epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            delay_scan(x, y, 2, WindowScheme.SLIDING, [0, 1], epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            rolling_analysis(x, y, 2, WindowScheme.SLIDING, 10, 10, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("scheme", list(WindowScheme))
def test_delay_and_rolling_extract_each_window_at_most_once(monkeypatch, scheme, epsilon):
    # Exact input: one sliding extraction per series, whatever the scheme and
    # the phases (block windows are every h-th sliding one). With epsilon:
    # sliding, each series once; block, each series once per phase in use.
    import ordpat.dependence as dependence
    import ordpat.patterns as patterns

    extracted = []

    def counting(*args, **kwargs):
        seq = pattern_sequence(*args, **kwargs)
        extracted.append(len(seq))
        return seq

    monkeypatch.setattr(dependence, "pattern_sequence", counting)
    monkeypatch.setattr(patterns, "pattern_sequence", counting)
    n, h = 200, 3
    x, y = random_series(n, 60), random_series(n, 61)
    delays, starts = range(-10, 11), range(0, n - 50 + 1, 7)
    calls = [  # (call, first points read in X, first points read in Y)
        (lambda: delay_scan(x, y, h, scheme, delays, epsilon), [max(-d, 0) for d in delays],
         [max(d, 0) for d in delays]),
        (lambda: delay_scan(x, y, h, scheme, [0, h, -2 * h], epsilon), [0, 2 * h], [0, h]),
        (lambda: rolling_analysis(x, y, h, scheme, 50, 7, epsilon=epsilon), starts, starts),
        (lambda: rolling_analysis(x, y, h, scheme, 50, h, epsilon=epsilon), [0], [0]),
    ]
    for call, x_points, y_points in calls:
        extracted.clear()
        call()
        if epsilon == 0.0:
            assert extracted == [n - h, n - h]
        elif scheme is WindowScheme.SLIDING:
            assert sum(extracted) <= 2 * (n - h)
        else:
            phases = len({p % h for p in x_points}) + len({p % h for p in y_points})
            assert sum(extracted) <= (n - 1) // h * phases


@pytest.mark.parametrize("scheme", list(WindowScheme))
def test_delay_scan_histograms_each_phase_once(monkeypatch, scheme):
    # At most one bincount of X's codes per X phase in use and one of Y's
    # codes per Y phase, however many delays there are: Y's reflected
    # histogram is its histogram reversed.
    import ordpat.dependence as dependence

    calls = []
    bincount = np.bincount

    def counting(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    monkeypatch.setattr(dependence.np, "bincount", counting)
    n, h = 200, 3
    stride = 1 if scheme is WindowScheme.SLIDING else h
    x, y = random_series(n, 64), random_series(n, 65)
    for delays in (range(-10, 11), [5] * 30, [0, 7, -7, 7]):
        calls.clear()
        scan = delay_scan(x, y, h, scheme, delays)
        assert len(scan) == len(delays)
        x_phases = {max(-d, 0) % stride for d in delays}
        y_phases = {max(d, 0) % stride for d in delays}
        assert len(calls) <= len(x_phases) + len(y_phases)


def test_orders_beyond_64_bit_codes_are_refused_before_counting():
    # h = 20 has 21! patterns, more than int64 holds: every counting entry
    # point refuses it before any (h+1)!-long histogram is made.
    h, message = 20, r"ranks of order h=20 overflow 64-bit integers \(h <= 19\)"
    x, y = random_series(h + 2, 66), random_series(h + 2, 67)
    for scheme in WindowScheme:
        with pytest.raises(UnsupportedOrder, match=message):
            analyze_pair(x, y, h, scheme)
        with pytest.raises(UnsupportedOrder, match=message):
            delay_scan(x, y, h, scheme, [0, 1])
        with pytest.raises(UnsupportedOrder, match=message):
            rolling_analysis(x, y, h, scheme, h + 1, 1)
        with pytest.raises(UnsupportedOrder, match=message):
            coincident_reflected_counts(pattern_sequence(x, h, scheme), pattern_sequence(y, h, scheme))
    dist = PatternDistribution.from_counts({OrdinalPattern(tuple(range(h + 1))): 1})
    with pytest.raises(UnsupportedOrder, match=message):
        alpha_beta(dist, dist, 0.0, 0.0)


@pytest.mark.parametrize("scheme", list(WindowScheme))
def test_delay_and_rolling_reject_order_below_one(scheme):
    x, y = random_series(40, 62), random_series(40, 63)
    for h in (0, -1):
        with pytest.raises(ValueError, match="order h must be >= 1"):
            delay_scan(x, y, h, scheme, [0, 2])
        with pytest.raises(ValueError, match="order h must be >= 1"):
            delay_scan(x, y, h, scheme, [])
        with pytest.raises(ValueError, match="order h must be >= 1"):
            rolling_analysis(x, y, h, scheme, 10, 5)
