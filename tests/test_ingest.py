import csv
import io

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracles
from ordpat import ingest
from ordpat import (
    DuplicateKey,
    EmptyFile,
    MissingColumn,
    NoCommonKeys,
    NonFiniteValue,
    ParseError,
    TimeSeries,
    align,
    read_csv,
)
from ordpat.cli import write_csv


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_csv_basic(tmp_path):
    p = _write(tmp_path / "a.csv", "date,close\n2020-01-01,1.5\n2020-01-02,2\n2020-01-03,-3e-1\n")
    ts = read_csv(p, "date", "close")
    assert ts.keys == ("2020-01-01", "2020-01-02", "2020-01-03")
    assert ts.values.tolist() == [1.5, 2.0, -0.3]
    assert ts.name == "close"


def test_read_csv_crlf_and_quotes(tmp_path):
    p = _write(tmp_path / "a.csv", 'date,close\r\n"2020-01-01","1.5"\r\n"2020-01-02","2.5"\r\n')
    ts = read_csv(p, "date", "close")
    assert len(ts) == 2


def test_read_csv_utf8_bom_and_crlf(tmp_path):
    p = tmp_path / "a.csv"
    p.write_bytes(b"\xef\xbb\xbfkey,value\r\nd1,1.5\r\nd2,2.5\r\n")
    ts = read_csv(p, "key", "value")
    assert ts.keys == ("d1", "d2")
    assert ts.values.tolist() == [1.5, 2.5]


def test_read_csv_strips_header_whitespace(tmp_path):
    p = _write(tmp_path / "a.csv", "key, value \nd1,1.5\nd2, 2.5\n")
    ts = read_csv(p, "key", "value")
    assert ts.keys == ("d1", "d2")
    assert ts.values.tolist() == [1.5, 2.5]
    assert ts.name == "value"


def test_read_csv_selects_column(tmp_path):
    p = _write(tmp_path / "a.csv", "date,open,close\nd1,1,10\nd2,2,20\n")
    assert read_csv(p, "date", "open").values.tolist() == [1.0, 2.0]
    assert read_csv(p, "date", "close").values.tolist() == [10.0, 20.0]


def test_read_csv_parse_error_names_row_and_column(tmp_path):
    p = _write(tmp_path / "a.csv", "date,close\nd1,1.0\nd2,abc\n")
    with pytest.raises(ParseError, match=r"row 3.*'close'.*'abc'"):
        read_csv(p, "date", "close")


def test_read_csv_rejects_thousands_separator(tmp_path):
    p = _write(tmp_path / "a.csv", "date,close\nd1,\"1,234\"\n")
    with pytest.raises(ParseError):
        read_csv(p, "date", "close")


def test_read_csv_rejects_non_finite(tmp_path):
    p = _write(tmp_path / "a.csv", "date,close\nd1,nan\n")
    with pytest.raises(ParseError, match="row 2"):
        read_csv(p, "date", "close")


def test_read_csv_missing_column(tmp_path):
    p = _write(tmp_path / "a.csv", "date,close\nd1,1.0\n")
    with pytest.raises(MissingColumn):
        read_csv(p, "date", "open")


def test_read_csv_duplicate_key(tmp_path):
    p = _write(tmp_path / "a.csv", "date,close\nd1,1.0\nd1,2.0\n")
    with pytest.raises(DuplicateKey, match="'d1'"):
        read_csv(p, "date", "close")


def test_read_csv_empty_file(tmp_path):
    p = _write(tmp_path / "a.csv", "")
    with pytest.raises(EmptyFile):
        read_csv(p, "date", "close")
    p2 = _write(tmp_path / "b.csv", "date,close\n")
    with pytest.raises(EmptyFile):
        read_csv(p2, "date", "close")


def test_timeseries_invariants():
    with pytest.raises(NonFiniteValue):
        TimeSeries(("a", "b"), np.array([1.0, np.inf]))
    with pytest.raises(DuplicateKey):
        TimeSeries(("a", "a"), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        TimeSeries((), np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(("a",), np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="^values must be one-dimensional$"):
        TimeSeries(("a", "b"), np.array([[1.0], [2.0]]))


def test_timeseries_values_are_read_only():
    ts = TimeSeries(("a", "b"), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


def test_series_built_from_one_tuple_of_strs_share_it():
    keys = tuple(f"d{i}" for i in range(50))
    x, y = TimeSeries(keys, np.arange(50.0), "x"), TimeSeries(keys, np.ones(50), "y")
    assert x.keys is keys and y.keys is keys
    ingest._check_aligned(x, y)  # passes by identity, no key is compared
    # Any other keys still become a new tuple of exact strs.
    for given in (list(keys), tuple(map(np.str_, keys)), tuple(range(50))):
        series = TimeSeries(given, np.arange(50.0))
        assert series.keys is not given and type(series.keys) is tuple
        assert all(type(k) is str for k in series.keys)
        assert series.keys == tuple(map(str, given))
    with pytest.raises(ingest.NotAligned):
        ingest._check_aligned(x, TimeSeries(keys[1:] + ("e",), np.ones(50)))
    with pytest.raises(ingest.NotAligned):
        ingest._check_aligned(x, TimeSeries(keys[1:], np.ones(49)))
    with pytest.raises(DuplicateKey, match="'d3'"):
        TimeSeries(keys[:4] + ("d3",), np.ones(5))


def test_align_identity_when_keys_match():
    a = TimeSeries(("d1", "d2"), np.array([1.0, 2.0]), "a")
    b = TimeSeries(("d1", "d2"), np.array([3.0, 4.0]), "b")
    res = align(a, b)
    assert res.a.keys == a.keys and res.b.keys == b.keys
    assert res.dropped_a == 0 and res.dropped_b == 0
    assert np.array_equal(res.a.values, a.values)


def test_align_drops_unmatched_rows():
    a = TimeSeries(("d1", "d2", "d3"), np.array([1.0, 2.0, 3.0]))
    b = TimeSeries(("d1", "d3"), np.array([10.0, 30.0]))
    res = align(a, b)
    assert res.a.keys == ("d1", "d3") == res.b.keys
    assert res.a.values.tolist() == [1.0, 3.0]
    assert res.b.values.tolist() == [10.0, 30.0]
    assert res.dropped_a == 1 and res.dropped_b == 0


def test_align_holiday_style_fixture(tmp_path):
    # 505 trading days on one side, 503 on the other (2 holidays missing)
    keys_a = [f"d{i:03d}" for i in range(505)]
    keys_b = [k for i, k in enumerate(keys_a) if i not in (100, 300)]
    _write(
        tmp_path / "a.csv",
        "date,close\n" + "".join(f"{k},{i}.5\n" for i, k in enumerate(keys_a)),
    )
    _write(
        tmp_path / "b.csv",
        "date,close\n" + "".join(f"{k},{i}.25\n" for i, k in enumerate(keys_b)),
    )
    res = align(read_csv(tmp_path / "a.csv", "date", "close"),
                read_csv(tmp_path / "b.csv", "date", "close"))
    assert len(res.a) == len(res.b) == 503
    assert res.dropped_a == 2 and res.dropped_b == 0


def test_align_is_idempotent():
    a = TimeSeries(("d1", "d2", "d3"), np.array([1.0, 2.0, 3.0]))
    b = TimeSeries(("d2", "d3", "d4"), np.array([5.0, 6.0, 7.0]))
    first = align(a, b)
    second = align(first.a, first.b)
    assert second.a.keys == first.a.keys
    assert second.dropped_a == second.dropped_b == 0
    assert np.array_equal(second.a.values, first.a.values)
    assert np.array_equal(second.b.values, first.b.values)


def test_align_outputs_are_subsequences():
    a = TimeSeries(("d1", "d2", "d3", "d4"), np.array([1.0, 2.0, 3.0, 4.0]))
    b = TimeSeries(("d4", "d2", "d0"), np.array([4.0, 2.0, 0.0]))
    res = align(a, b)
    assert res.a.keys == res.b.keys == ("d2", "d4")  # a's order wins
    it = iter(a.keys)
    assert all(k in it for k in res.a.keys)  # subsequence of a


def test_align_no_common_keys():
    a = TimeSeries(("d1",), np.array([1.0]))
    b = TimeSeries(("d2",), np.array([2.0]))
    with pytest.raises(NoCommonKeys):
        align(a, b)


def test_write_read_round_trip(tmp_path):
    values = np.array([1.5, -0.3333333333333333, 2e-7, 123456.789])
    ts = TimeSeries(("a", "b", "c", "d"), values, "v")
    write_csv(ts, tmp_path / "rt.csv", "k", "v")
    back = read_csv(tmp_path / "rt.csv", "k", "v")
    assert back.keys == ts.keys
    assert np.array_equal(back.values, ts.values)  # exact, not approximate


# --- differential: column-wise reader and join against the row-loop oracle ------

ODD_KEYS = [" d1", "k,1", "k\n2", ""]
ODD_CELLS = ["-0", "1_000", " 7 ", "7\n", "nan", "inf", "-inf", "abc", "", "1,5",
             "0x10", "\u00e9"]
TERMINATORS = ["\n", "\r\n", "\r"]


def _cell(text, quote):
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def csv_texts(draw, allow_quotes=True):
    """CSV text with columns k (keys) and v (values), maybe x, and odd rows."""
    special = draw(st.sampled_from([None] * 20 + ["", "\n", "\r\n", " \n"]))
    if special is not None:
        return special

    def usable(texts):
        return [t for t in texts if allow_quotes or not any(c in t for c in ',\r\n')]

    columns = draw(st.permutations(["k", "v", "x"]))
    if draw(st.booleans()):
        columns.remove("x")
    header = [draw(st.sampled_from([c] * 12 + [f" {c} ", c.upper()])) for c in columns]
    keys = st.sampled_from(usable(ODD_KEYS) + [f"d{i}" for i in range(40)])
    values = st.sampled_from(["float"] * 6 + ["int"] * 3 + ["odd"]).flatmap(
        lambda kind: {
            "float": st.floats(allow_nan=False, allow_infinity=False).map(repr),
            "int": st.integers(-999, 999).map(str),
            "odd": st.sampled_from(usable(ODD_CELLS)),
        }[kind]
    )
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.sampled_from(["row"] * 40 + ["blank", "space", "short", "long"]))
        if shape in ("blank", "space"):
            lines.append("" if shape == "blank" else "  ")
            continue
        row = [draw(keys) if c == "k" else draw(values) for c in columns]
        if shape == "short":
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row += draw(st.lists(values, min_size=1, max_size=2))
        quote = allow_quotes and draw(st.booleans()) and draw(st.booleans())
        lines.append(",".join(_cell(c, quote and draw(st.booleans())) for c in row))
    text = "".join(line + draw(st.sampled_from(TERMINATORS)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no trailing newline
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


def _both_readers(path):
    """(library outcome, oracle outcome), each a series or (error type, message)."""
    try:
        ts = read_csv(path, "k", "v")
        mine = (ts.keys, ts.values.tobytes())
    except Exception as exc:
        mine = (type(exc), str(exc))
    try:
        keys, values = oracles.read_csv_rows(path, "k", "v")
        theirs = (tuple(keys), np.array(values, dtype=float).tobytes())
    except Exception as exc:
        theirs = (type(exc), str(exc))
    return mine, theirs


@given(csv_texts())
def test_read_csv_matches_row_reader_oracle(scratch, text):
    path = scratch / "one.csv"
    path.write_bytes(text.encode("utf-8"))
    mine, theirs = _both_readers(path)
    assert mine == theirs


keyed_rows = st.lists(
    st.tuples(
        st.sampled_from([f"d{i}" for i in range(30)]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    min_size=1, max_size=30, unique_by=lambda row: row[0],
)


@given(keyed_rows, keyed_rows, st.sampled_from(TERMINATORS))
def test_align_matches_dict_join_oracle(scratch, rows_a, rows_b, terminator):
    paths = scratch / "a.csv", scratch / "b.csv"
    for path, rows in zip(paths, (rows_a, rows_b)):
        lines = ["v,k"] + [f"{value!r},{key}" for key, value in rows]
        path.write_bytes(terminator.join(lines).encode("utf-8"))
    a, b = (read_csv(path, "k", "v") for path in paths)
    (keys_a, values_a), (keys_b, values_b) = (
        oracles.read_csv_rows(path, "k", "v") for path in paths
    )
    keys, kept_a, kept_b, dropped_a, dropped_b = oracles.dict_join(
        keys_a, values_a, keys_b, values_b
    )
    if not keys:
        with pytest.raises(NoCommonKeys, match=r"share no keys \(\d+ vs \d+ rows\)"):
            align(a, b)
        return
    res = align(a, b)
    assert res.a.keys is res.b.keys
    assert res.a.keys == tuple(keys)
    assert res.a.values.tobytes() == np.array(kept_a).tobytes()
    assert res.b.values.tobytes() == np.array(kept_b).tobytes()
    assert (res.dropped_a, res.dropped_b) == (dropped_a, dropped_b)


@given(csv_texts(allow_quotes=False))
def test_plain_columns_are_csv_readers_or_none(text):
    """On quote-free text the fast path declines or gives csv.reader's columns."""
    text = text.removeprefix("\ufeff")  # read_csv decodes a BOM away
    assume(text)  # read_csv refuses an empty file before tokenizing
    columns = ingest._plain_columns(text, "k", "v")
    if columns is None:
        return
    records = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    header = [cell.strip() for cell in records[0]]
    k, v = header.index("k"), header.index("v")
    assert columns[0] == tuple(row[k] for row in records[1:])
    assert columns[1].tobytes() == np.array([float(row[v]) for row in records[1:]]).tobytes()


def test_only_files_that_are_not_plain_reach_the_exact_reader(tmp_path, monkeypatch):
    calls = []
    original = ingest._read_records
    monkeypatch.setattr(
        ingest, "_read_records", lambda *args: calls.append(args[1].name) or original(*args)
    )
    for i, text in enumerate(["k,v\nd1,1.5\nd2,2\n", "k,v\r\nd1,1.5\r\nd2,2",
                              "k,v\r\nd1,1.5\nd2,2\r\n\r\n\n\r"]):
        ts = read_csv(_write(tmp_path / f"plain{i}.csv", text), "k", "v")
        assert (ts.keys, ts.values.tolist()) == (("d1", "d2"), [1.5, 2.0])
    assert calls == []
    ts = read_csv(_write(tmp_path / "quoted.csv", 'k,v\n"d1",1.5\nd2,"2"\n'), "k", "v")
    assert (ts.keys, ts.values.tolist()) == (("d1", "d2"), [1.5, 2.0])
    assert calls == ["quoted.csv"]
    bad = {
        "blank.csv": ("k,v\nd1,1.5\n\nd2,x\n", ParseError, "row 4, column 'v'"),
        "short.csv": ("k,v\nd1,1.5\nd2\n", ParseError, "row 3 has only 1 fields"),
        "cell.csv": ("k,v\nd1,1.5\nd2,abc\n", ParseError, "cannot parse 'abc'"),
        "nan.csv": ("k,v\nd1,nan\nd2,1\n", ParseError, "row 2, column 'v': non-finite"),
        "duplicate.csv": ("k,v\nd1,1.5\nd1,2\n", DuplicateKey, "duplicate key 'd1' at row 3"),
    }
    for name, (text, error, message) in bad.items():
        calls.clear()
        with pytest.raises(error, match=message):
            read_csv(_write(tmp_path / name, text), "k", "v")
        assert calls == [name]


def test_read_csv_error_row_counts_blank_lines(tmp_path):
    p = _write(tmp_path / "a.csv", "k,v\n\nd1,1\n  \nd2,2\n")
    with pytest.raises(ParseError, match=r"row 4 has only 1 fields"):
        read_csv(p, "k", "v")


def test_read_csv_field_limit_is_a_parse_error(tmp_path):
    long_key = "d" * 131073
    for row in (f"{long_key},2", long_key):  # the limit comes before the field count
        for text in (f"k,v\nd1,1\n{row}\n", f'k,v\n"d1",1\n{row}\n'):
            p = _write(tmp_path / "a.csv", text)
            with pytest.raises(ParseError, match=r"row 3: field larger than field limit"):
                read_csv(p, "k", "v")
    p = _write(tmp_path / "a.csv", f"k,v\nd1,1\n{long_key[1:]},2\n")
    assert len(read_csv(p, "k", "v")) == 2
    p = _write(tmp_path / "a.csv", f"k,{long_key}\nd1,1\n")
    with pytest.raises(ParseError, match=r"row 1: field larger than field limit \(131072\)"):
        read_csv(p, "k", "v")


def test_align_outputs_share_one_key_tuple():
    a = TimeSeries(("d1", "d2", "d3"), np.array([1.0, 2.0, 3.0]))
    b = TimeSeries(("d3", "d1", "d2", "d0"), np.array([30.0, 10.0, 20.0, 0.0]))
    res = align(a, b)
    assert res.a.keys is res.b.keys is a.keys  # a lost no row
    assert res.b.values.tolist() == [10.0, 20.0, 30.0]
    res = align(b, a)
    assert res.a.keys is res.b.keys
    assert res.a.keys == ("d3", "d1", "d2")
