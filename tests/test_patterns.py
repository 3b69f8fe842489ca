import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordpat import (
    NonFiniteValue,
    OrdinalPattern,
    PatternSequence,
    RankOutOfRange,
    SeriesTooShort,
    TimeSeries,
    UnsupportedOrder,
    WindowScheme,
    WindowTooShort,
    extract_pattern,
    lex_rank,
    pattern_sequence,
    rank_to_pattern,
    reflect,
)
from ordpat.dependence import _phase_codes, distribution
from ordpat.patterns import _code_type
from oracles import (
    inversion_code,
    pattern_list,
    sort_pattern,
    three_point_pattern_from_increments,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


# --- extraction ------------------------------------------------------------


@pytest.mark.parametrize(
    "window, expected",
    [
        ((0.0, 2.0, 1.0, 3.0), (3, 1, 2, 0)),
        ((5.0, 5.0, 1.0), (0, 1, 2)),  # tie at positions 0,1: earlier index first
        ((1.0, 2.0, 3.0), (2, 1, 0)),
        ((7.0, 7.0, 7.0), (0, 1, 2)),  # all-tie window forces the identity
    ],
)
def test_extract_pattern_examples(window, expected):
    assert extract_pattern(window).indices == expected


def test_extract_pattern_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        extract_pattern((1.0, float("nan"), 2.0))
    with pytest.raises(NonFiniteValue):
        extract_pattern((1.0, float("inf")))


def test_extract_pattern_rejects_short_window():
    with pytest.raises(WindowTooShort):
        extract_pattern((1.0,))
    with pytest.raises(WindowTooShort):
        extract_pattern(())


def test_extract_pattern_epsilon_groups_near_ties():
    window = (1.0, 1.0000001, 0.5)
    assert extract_pattern(window).indices == (1, 0, 2)
    assert extract_pattern(window, epsilon=1e-3).indices == (0, 1, 2)


def test_extract_pattern_epsilon_chains_groups():
    # 1.0 and 1.4 differ by more than epsilon but are chained through 1.2.
    window = (1.4, 1.2, 1.0, 0.0)
    assert extract_pattern(window, epsilon=0.25).indices == (0, 1, 2, 3)


@given(st.lists(finite_floats, min_size=2, max_size=7))
def test_extract_pattern_matches_sort_oracle(window):
    assert extract_pattern(window).indices == sort_pattern(window)


@given(
    st.lists(st.integers(-500, 500), min_size=2, max_size=7),
    st.sampled_from(["affine", "exp", "cube"]),
)
def test_monotone_invariance(window, transform):
    # integer-valued windows keep the images of distinct values distinct in
    # float arithmetic, so the mathematical property holds verbatim
    w = np.asarray(window, dtype=float)
    if transform == "affine":
        f = 2.5 * w + 7.0
    elif transform == "exp":
        f = np.exp(w / 501.0)
    else:
        f = w**3
    assert extract_pattern(f).indices == extract_pattern(w).indices


@given(st.lists(finite_floats, min_size=2, max_size=7, unique=True))
def test_negation_reverses_tie_free_patterns(window):
    w = np.asarray(window)
    assert extract_pattern(-w) == reflect(extract_pattern(w))


@given(st.integers(-20, 20), st.integers(-20, 20))
def test_three_point_increment_characterization(q1, q2):
    # quarter-integer increments make every sum exact in float arithmetic
    d1, d2 = q1 / 4.0, q2 / 4.0
    window = (0.5, 0.5 + d1, 0.5 + d1 + d2)
    assert extract_pattern(window).indices == three_point_pattern_from_increments(d1, d2)


@pytest.mark.parametrize("d1, d2", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0),
                                    (1.0, -1.0), (-2.0, 2.0), (0.0, -3.0)])
def test_three_point_characterization_boundaries(d1, d2):
    window = (0.0, d1, d1 + d2)
    assert extract_pattern(window).indices == three_point_pattern_from_increments(d1, d2)


# --- pattern type, reflection ------------------------------------------------


def test_pattern_validation():
    with pytest.raises(ValueError):
        OrdinalPattern((0, 2))
    with pytest.raises(ValueError):
        OrdinalPattern((0, 1, 1))
    with pytest.raises(WindowTooShort):
        OrdinalPattern((0,))


def test_pattern_str_and_order():
    p = OrdinalPattern((3, 1, 2, 0))
    assert str(p) == "(3,1,2,0)"
    assert p.order == 3


@pytest.mark.parametrize(
    "pattern, expected",
    [((3, 1, 2, 0), (0, 2, 1, 3)), ((2, 1, 0), (0, 1, 2))],
)
def test_reflect_examples(pattern, expected):
    assert reflect(OrdinalPattern(pattern)).indices == expected


def test_reflect_is_involution_and_fixpoint_free():
    for h in range(1, 5):
        for perm in itertools.permutations(range(h + 1)):
            p = OrdinalPattern(perm)
            assert reflect(reflect(p)) == p
            assert reflect(p) != p  # distinct entries forbid palindromes


# --- ranking ------------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern, rank",
    [((0, 1, 2), 0), ((2, 1, 0), 5), ((0, 1, 3, 2), 1)],
)
def test_lex_rank_examples(pattern, rank):
    assert lex_rank(OrdinalPattern(pattern)) == rank


def test_lex_rank_matches_enumeration_order():
    # Oracle: index within the sorted list of all permutations.
    for h in (1, 2, 3):
        perms = sorted(itertools.permutations(range(h + 1)))
        for i, perm in enumerate(perms):
            assert lex_rank(OrdinalPattern(perm)) == i
            assert rank_to_pattern(i, h).indices == perm


@pytest.mark.parametrize("rank, h, expected", [(0, 2, (0, 1, 2)), (5, 2, (2, 1, 0)),
                                               (23, 3, (3, 2, 1, 0))])
def test_rank_to_pattern_examples(rank, h, expected):
    assert rank_to_pattern(rank, h).indices == expected


def test_rank_bijection_exhaustive():
    for h in range(1, 6):
        seen = set()
        for rank in range(math.factorial(h + 1)):
            p = rank_to_pattern(rank, h)
            assert lex_rank(p) == rank
            seen.add(p.indices)
        assert len(seen) == math.factorial(h + 1)


def _rank_kernel_cases():
    # Every permutation for h 1..7, a seeded sample of 5,000 at h=8.
    for h in range(1, 8):
        yield h, np.array(list(itertools.permutations(range(h + 1))), dtype=np.int16)
    rng = np.random.default_rng(8)
    yield 8, np.argsort(rng.random((5000, 9)), axis=1).astype(np.int16)


def test_rank_kernel_matches_lex_rank():
    for h, rows in _rank_kernel_cases():
        patterns = [OrdinalPattern(tuple(r)) for r in rows.tolist()]
        ranks = [lex_rank(p) for p in patterns]
        codes = [inversion_code(p.indices) for p in patterns]
        reflected = [inversion_code(reflect(p).indices) for p in patterns]
        # Rows as passed in, row- or column-major, and the codes themselves.
        for seq in (
            PatternSequence(h, WindowScheme.SLIDING, np.asarray(rows, order="C")),
            PatternSequence(h, WindowScheme.SLIDING, np.asarray(rows, order="F")),
            PatternSequence._from_codes(h, WindowScheme.SLIDING, np.array(codes, dtype=np.int64)),
        ):
            assert seq.ranks.tolist() == ranks
            assert seq._codes.tolist() == codes
            assert (math.factorial(h + 1) - 1 - seq._codes).tolist() == reflected
            assert seq.rows.tolist() == rows.tolist()


@pytest.mark.parametrize("h", range(1, 7))
def test_codes_are_a_bijection_onto_the_factorial_range(h):
    rows = list(itertools.permutations(range(h + 1)))
    seq = PatternSequence(h, WindowScheme.SLIDING, rows)
    size = math.factorial(h + 1)
    assert sorted(seq._codes.tolist()) == list(range(size))
    assert seq._codes.tolist() == [inversion_code(r) for r in rows]
    # The reflected pattern's code is (h+1)! - 1 - code.
    assert (size - 1 - seq._codes).tolist() == [inversion_code(r[::-1]) for r in rows]
    assert not seq._codes.flags.writeable


def test_a_sequence_stores_only_its_codes():
    # One read-only code of type _code_type(order) per window is the only
    # array kept; rows and ranks join it once read, and no digit matrix
    # outlives extraction.
    values = np.cumsum(np.random.default_rng(3).standard_normal(40))
    for seq in (
        pattern_sequence(values, 3),
        pattern_sequence(values, 3, WindowScheme.BLOCK),
        pattern_sequence(values, 3, WindowScheme.BLOCK, 0.5),
        PatternSequence(2, WindowScheme.SLIDING, [[0, 1, 2], [2, 0, 1]]),
    ):
        assert set(vars(seq)) == {"order", "scheme", "_codes"}
        codes = seq._codes
        assert codes.dtype == _code_type(seq.order)
        assert codes.flags.c_contiguous and not codes.flags.writeable
        seq.rows, seq.ranks
        assert set(vars(seq)) == {"order", "scheme", "_codes", "rows", "ranks"}
    assert not hasattr(seq, "_digits") and not hasattr(PatternSequence, "_from_digits")


@pytest.mark.parametrize("h", range(1, 20))
def test_code_type_is_the_narrowest_that_holds_the_top_code(h):
    # uint8, uint16 or uint32, the first that holds (h+1)! - 1, else int64;
    # every sequence the library builds stores its codes in that type.
    top = math.factorial(h + 1) - 1
    unsigned = [np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)]
    code_type = _code_type(h)
    assert code_type in unsigned or code_type == np.int64
    assert np.iinfo(code_type).max >= top
    narrower = unsigned[: unsigned.index(code_type)] if code_type in unsigned else unsigned
    assert all(np.iinfo(t).max < top for t in narrower)
    n = 3 * h + 4
    values = np.cumsum(np.random.default_rng(h).integers(-2, 3, n)) / 2.0
    series = TimeSeries(tuple(map(str, range(n))), values)
    seqs = [
        PatternSequence(h, WindowScheme.SLIDING, [list(range(h + 1)), list(range(h, -1, -1))]),
        pattern_sequence(np.arange(h + 1.0), h),  # the top code
    ]
    for scheme, epsilon in itertools.product(WindowScheme, (0.0, 0.5)):
        seq = pattern_sequence(values, h, scheme, epsilon)
        seqs += [seq, distribution(seq).distinct[0]]
        stride = 1 if scheme is WindowScheme.SLIDING else h
        phases = _phase_codes(series, h, scheme, range(stride), epsilon).values()
        seqs += [PatternSequence._from_codes(h, scheme, codes) for codes in phases]
    assert seqs[1]._codes.tolist() == [top]
    for seq in seqs:
        assert seq._codes.dtype == code_type


def test_pattern_sequence_rejects_rows_that_are_not_permutations():
    for rows in ([[0, 0, 1], [5, 1, 2]], [[0, 0, 1]], [[0, 1, 3]], [[-1, 0, 1]], [[0.0, 1.0, 2.0]]):
        with pytest.raises(ValueError, match="permutations"):
            PatternSequence(2, WindowScheme.SLIDING, rows)
    with pytest.raises(ValueError, match="rows must be"):
        PatternSequence(2, WindowScheme.SLIDING, [[0, 1]])


def test_ranks_beyond_64_bits_are_refused(monkeypatch):
    seq = pattern_sequence(np.arange(20.0), 19)
    assert seq.ranks.tolist() == [math.factorial(20) - 1]  # (19, 18, ..., 0)
    assert seq._codes.tolist() == [math.factorial(20) - 1]
    # The largest order also holds with epsilon ties and from explicit rows.
    for scheme in WindowScheme:
        seq = pattern_sequence(np.arange(20.0), 19, scheme, 0.5)
        assert seq._codes.tolist() == [math.factorial(20) - 1]
        seq = pattern_sequence(np.arange(40.0, 0.0, -1.0), 19, scheme, 0.5)
        assert seq._codes.tolist() == [0] * (21 if scheme is WindowScheme.SLIDING else 2)
    rows = [list(range(19, -1, -1)), list(range(20))]
    seq = PatternSequence(19, WindowScheme.SLIDING, rows)
    assert seq._codes.tolist() == [math.factorial(20) - 1, 0]
    # h = 20 has 21! patterns, more than int64 holds: no sequence is built,
    # and the refusal comes before any extraction work.
    for helper in ("_sliding_digits", "_window_keys"):
        monkeypatch.setattr(f"ordpat.patterns.{helper}", None)
    message = r"ranks of order h=20 overflow 64-bit integers \(h <= 19\)"
    for scheme, epsilon in itertools.product(WindowScheme, (0.0, 0.5)):
        with pytest.raises(UnsupportedOrder, match=message):
            pattern_sequence(np.arange(21.0), 20, scheme, epsilon)
    with pytest.raises(UnsupportedOrder, match=message):
        PatternSequence(20, WindowScheme.SLIDING, [list(range(21))])
    monkeypatch.undo()
    # A single window still extracts at any length.
    assert extract_pattern(np.arange(25.0)).indices == tuple(range(24, -1, -1))


def test_every_extraction_runs_the_sliding_recurrence(monkeypatch):
    # Exact, epsilon and explicit-row windows of both schemes get their
    # digits from the one recurrence; there is no second digit kernel.
    import ordpat.patterns as patterns

    assert not hasattr(patterns, "_pattern_codes")
    calls = []
    sliding_digits = patterns._sliding_digits

    def counted(z, h):
        calls.append(h)
        return sliding_digits(z, h)

    monkeypatch.setattr(patterns, "_sliding_digits", counted)
    values = np.cumsum(np.round(np.random.default_rng(8).standard_normal(30) * 1.5) / 2.0)
    for scheme, epsilon in itertools.product(WindowScheme, (0.0, 0.5)):
        calls.clear()
        pattern_sequence(values, 3, scheme, epsilon)
        assert calls == [3]
    calls.clear()
    PatternSequence(3, WindowScheme.SLIDING, [[3, 1, 2, 0], [0, 1, 2, 3]])
    assert calls == [3]


def test_rank_out_of_range():
    with pytest.raises(RankOutOfRange):
        rank_to_pattern(6, 2)
    with pytest.raises(RankOutOfRange):
        rank_to_pattern(-1, 2)


# --- window schemes -------------------------------------------------------------


@pytest.mark.parametrize(
    "n, h, scheme, expected",
    [
        (503, 3, WindowScheme.SLIDING, 500),
        (1002, 2, WindowScheme.BLOCK, 500),
        (1503, 3, WindowScheme.BLOCK, 500),
    ],
)
def test_sequence_lengths_match_reference_setups(n, h, scheme, expected):
    seq = pattern_sequence(np.arange(n, dtype=float), h, scheme)
    assert len(seq) == expected


def test_window_count_closed_forms():
    rng = np.random.default_rng(5)
    for h in range(1, 6):
        for n in range(h + 1, 51):
            values = rng.standard_normal(n)
            assert len(pattern_sequence(values, h)) == n - h
            assert len(pattern_sequence(values, h, WindowScheme.BLOCK)) == (n - 1) // h


def test_block_windows_share_one_boundary_point():
    values = np.array([3.0, 1.0, 4.0, 1.5, 9.0, 2.0, 6.0])
    seq = pattern_sequence(values, 3, WindowScheme.BLOCK)
    assert len(seq) == 2
    assert seq[0] == extract_pattern(values[0:4])  # covers x0..x3
    assert seq[1] == extract_pattern(values[3:7])  # covers x3..x6


def test_pattern_sequence_validation():
    with pytest.raises(SeriesTooShort):
        pattern_sequence([1.0, 2.0], 2)
    with pytest.raises(ValueError):
        pattern_sequence([1.0, 2.0, 3.0], 0)
    with pytest.raises(ValueError, match="^order h must be >= 1, got 0$"):
        PatternSequence(0, WindowScheme.SLIDING, [[0]])
    with pytest.raises(NonFiniteValue):
        pattern_sequence([1.0, float("nan"), 3.0], 1)
    with pytest.raises(ValueError, match="^series must be one-dimensional$"):
        pattern_sequence([[1.0, 2.0], [3.0, 4.0]], 1)


def test_pattern_sequence_indexing_and_iteration():
    seq = pattern_sequence([1.0, 3.0, 2.0, 4.0], 2)
    assert len(seq) == 2
    assert seq[0].indices == (1, 2, 0)
    assert [p.indices for p in seq] == [(1, 2, 0), (2, 0, 1)]
    assert seq.patterns() == (OrdinalPattern((1, 2, 0)), OrdinalPattern((2, 0, 1)))


@given(st.lists(st.integers(0, 3), min_size=3, max_size=12))
def test_vectorized_and_scalar_extraction_agree(values):
    # small integer alphabet makes ties frequent
    values = [float(v) for v in values]
    seq = pattern_sequence(values, 2)
    for i in range(len(values) - 2):
        assert tuple(int(v) for v in seq.rows[i]) == extract_pattern(values[i : i + 3]).indices


@settings(max_examples=50)
@given(st.lists(finite_floats, min_size=4, max_size=30), st.floats(0.001, 2.0))
def test_epsilon_sequence_matches_scalar_path(values, epsilon):
    seq = pattern_sequence(values, 3, epsilon=epsilon)
    for i in range(len(values) - 3):
        expected = extract_pattern(values[i : i + 4], epsilon=epsilon)
        assert tuple(int(v) for v in seq.rows[i]) == expected.indices


@settings(max_examples=100)
@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=14),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
    st.integers(1, 4),
)
def test_epsilon_kernel_matches_chaining_oracle(halves, epsilon, h):
    # Half-unit values: exact ties plus chains of neighbours 0.5 apart.
    values = [v / 2.0 for v in halves]
    assert extract_pattern(values, epsilon).indices == sort_pattern(values, epsilon)
    if len(values) > h:
        for scheme, stride in ((WindowScheme.SLIDING, 1), (WindowScheme.BLOCK, h)):
            seq = pattern_sequence(values, h, scheme, epsilon)
            rows = [tuple(int(v) for v in r) for r in seq.rows]
            assert rows == pattern_list(values, h, epsilon, stride)


def test_nan_or_negative_epsilon_is_rejected():
    for epsilon in (float("nan"), -0.5, float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            extract_pattern((1.0, 2.0, 3.0), epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            pattern_sequence([1.0, 2.0, 3.0, 4.0], 2, epsilon=epsilon)


# --- extraction kernel against the sort oracle ----------------------------------


def _kernel_inputs():
    rng = np.random.default_rng(21)
    return {
        "walk": np.cumsum(rng.standard_normal(60)),
        # half-unit steps: exact ties, and neighbours 0.5 apart that chain
        "grid": np.cumsum(np.round(rng.standard_normal(60) * 1.5) / 2.0),
        "constant": np.full(60, 2.5),  # every window all ties
        # neighbours up to 2e308 apart, beyond the largest float; signed zeros
        "extreme": rng.choice([1e308, -1e308, 5e307, -5e307, 0.0, -0.0, 5e-324], 60),
    }


def _assert_matches_oracle(rows, ranks, codes, expected):
    patterns = [OrdinalPattern(p) for p in expected]
    assert [tuple(map(int, r)) for r in rows] == expected
    assert ranks.tolist() == [lex_rank(p) for p in patterns]
    assert codes.tolist() == [inversion_code(p) for p in expected]
    # The reflected patterns, found by the code identity alone.
    size = math.factorial(rows.shape[1])
    assert (size - 1 - codes).tolist() == [inversion_code(reflect(p).indices) for p in patterns]


@pytest.mark.parametrize("data", ["walk", "grid", "constant", "extreme"])
@pytest.mark.parametrize("epsilon", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("h", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("scheme", list(WindowScheme))
def test_comparison_kernel_matches_sort_oracle(data, epsilon, h, scheme):
    # Every window takes the inversion-count recurrence, exact windows over
    # their values and the rest over their tie-group keys; both directly and
    # through the per-phase codes that delay and rolling read. A block window
    # is the sliding window starting at a multiple of h.
    values = _kernel_inputs()[data]
    stride = 1 if scheme is WindowScheme.SLIDING else h
    for n in (values.size, h + 1):
        seq = pattern_sequence(values[:n], h, scheme, epsilon)
        sliding = pattern_sequence(values[:n], h, WindowScheme.SLIDING, epsilon)
        assert np.array_equal(seq._codes, sliding._codes[::stride])
        expected = pattern_list(values[:n].tolist(), h, epsilon, stride)
        _assert_matches_oracle(seq.rows, seq.ranks, seq._codes, expected)
        series = TimeSeries(tuple(map(str, range(n))), values[:n])
        starts = sorted({0, (n - h - 1) // 2, n - h - 1})
        codes = _phase_codes(series, h, scheme, {s % stride for s in starts}, epsilon)
        for s in starts:
            expected = pattern_list(values[s:n].tolist(), h, epsilon, stride)
            _assert_codes_match_oracle(h, codes[s % stride][s // stride :], expected)


def _assert_codes_match_oracle(h, codes, expected):
    # Rows and ranks decoded from the codes alone.
    assert codes.flags.c_contiguous and codes.dtype == _code_type(h)
    seq = PatternSequence._from_codes(h, WindowScheme.SLIDING, codes)
    _assert_matches_oracle(seq.rows, seq.ranks, codes, expected)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("h", [1, 3, 8])
def test_phase_codes_block_phases_match_sort_oracle(epsilon, h):
    values = _kernel_inputs()["grid"]
    series = TimeSeries(tuple(map(str, range(values.size))), values)
    starts = [0, 1, 2, 5, 7, 10, 11, values.size - h - 1]
    lengths = [h + 1, 20, 30, 2 * h + 1, 45, 50, 25, h + 1]
    codes = _phase_codes(series, h, WindowScheme.BLOCK, {s % h for s in starts}, epsilon)
    assert h == 1 or len(codes) >= 3  # several block phases
    assert sorted(codes) == sorted({s % h for s in starts})
    for s, length in zip(starts, lengths):
        expected = pattern_list(values[s : s + length].tolist(), h, epsilon, h)
        phase = codes[s % h]
        _assert_codes_match_oracle(h, phase[s // h : s // h + len(expected)], expected)
        # The phase's codes are every block window of values[s % h :].
        expected = pattern_list(values[s % h :].tolist(), h, epsilon, h)
        _assert_codes_match_oracle(h, phase, expected)
