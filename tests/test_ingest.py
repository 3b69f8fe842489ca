import numpy as np
import pytest

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


def test_timeseries_values_are_read_only():
    ts = TimeSeries(("a", "b"), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ts.values[0] = 5.0


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
