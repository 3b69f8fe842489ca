"""Compare library and CLI outputs with the reference.

Every function returns a list of problems; an empty list means the output
is correct. Reports returned in process (and CLI JSON, which prints floats
in full) must satisfy the criterion-6 identities exactly. Printed tables
round floats to 6 decimals, so there each float must lie within half a unit
of the sixth decimal of the reference value.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace
from typing import Optional

import reference as ref

BASE_TOLERANCE = 1e-12
PRINTED_TOLERANCE = 5e-7 + 1e-12


def _close(a: Optional[float], b: Optional[float], tol: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(1.0, abs(b))


def report(rep, expected: ref.Report, label: str) -> list[str]:
    """Check a DependenceReport (or an object with its fields) exactly."""
    got = {f: getattr(rep, f) for f in ("h", "n_windows", "n_coincident", "n_reflected")}
    want = {f: getattr(expected, f) for f in got}
    if got != want:
        return [f"{label}: counts {got} != reference {want}"]
    problems = []
    if rep.p_eq != rep.n_coincident / rep.n_windows:
        problems.append(f"{label}: p_eq {rep.p_eq!r} != n_coincident / n_windows")
    if rep.p_neq != rep.n_reflected / rep.n_windows:
        problems.append(f"{label}: p_neq {rep.p_neq!r} != n_reflected / n_windows")
    for field in ("base_eq", "base_neq"):
        if abs(getattr(rep, field) - getattr(expected, field)) > BASE_TOLERANCE:
            problems.append(
                f"{label}: {field} {getattr(rep, field)!r} != reference "
                f"{getattr(expected, field)!r}"
            )
    if rep.alpha_tilde != rep.p_eq - rep.base_eq:
        problems.append(f"{label}: alpha_tilde {rep.alpha_tilde!r} != p_eq - base_eq")
    if rep.beta_tilde != rep.p_neq - rep.base_neq:
        problems.append(f"{label}: beta_tilde {rep.beta_tilde!r} != p_neq - base_neq")
    for field in ("z_eq", "z_neq"):
        if not _close(getattr(rep, field), getattr(expected, field), 1e-9):
            problems.append(f"{label}: {field} {getattr(rep, field)!r} is off")
    return problems


def rolling(result, expected: list[ref.RollingRow], keys, watch, label: str) -> list[str]:
    """Check a RollingReport against reference rows over ``keys``."""
    windows = list(result)
    if len(windows) != len(expected):
        return [f"{label}: {len(windows)} rolling windows, reference {len(expected)}"]
    for w, row in zip(windows, expected):
        where = f"{label} window {row.start}"
        if (w.start_key, w.end_key) != (keys[row.start], keys[row.stop - 1]):
            return [f"{where}: key range {w.start_key}..{w.end_key} is wrong"]
        if [tuple(p) for p in w.watch_counts] != list(watch):
            return [f"{where}: watched patterns {list(w.watch_counts)}"]
        counts = tuple(tuple(c) for c in w.watch_counts.values())
        if counts != row.watch:
            return [f"{where}: watch counts {counts} != reference {row.watch}"]
        problems = report(w.report, row.report, where)
        if problems:
            return problems
    return []


# --- printed CLI output --------------------------------------------------------


def _num(text: str) -> Optional[float]:
    return None if text == "nan" else float(text)


def _printed(got: dict, expected: ref.Report, label: str) -> list[str]:
    """Check printed report fields (any subset) against the reference."""
    problems = []
    for field, value in got.items():
        want = getattr(expected, field)
        if field in ("h", "n_windows", "n_coincident", "n_reflected"):
            ok = int(value) == want
        else:
            ok = _close(_num(value), want, PRINTED_TOLERANCE)
        if not ok:
            problems.append(f"{label}: {field} printed {value!r}, reference {want!r}")
    return problems


def _table(text: str, fmt: str) -> list[list[str]]:
    lines = text.rstrip("\n").split("\n")
    if fmt == "md":
        rows = [[c.strip() for c in line.strip().strip("|").split("|")] for line in lines]
        return [rows[0]] + rows[2:]  # drop the | --- | rule
    return [line.split("\t") for line in lines]


REPORT_FIELDS = (
    "h", "n_windows", "n_coincident", "n_reflected", "p_eq", "p_neq", "base_eq",
    "base_neq", "alpha_tilde", "beta_tilde", "z_eq", "z_neq",
)


def analyze_output(text: str, fmt: str, expected: ref.Report, dropped, label: str):
    """``ordpat analyze`` output in tsv, md or json."""
    if fmt == "json":
        doc = json.loads(text)
        got_dropped = (doc["dropped_x"], doc["dropped_y"])
        fields = doc["report"]
        if set(fields) != set(REPORT_FIELDS):
            return [f"{label}: report fields {sorted(fields)}"]
        problems = report(SimpleNamespace(**fields), expected, label)
    else:
        rows = _table(text, fmt)
        if rows[0] != ["field", "value"]:
            return [f"{label}: header {rows[0]}"]
        fields = dict(rows[1:])
        got_dropped = (int(fields.pop("dropped_x")), int(fields.pop("dropped_y")))
        if tuple(fields) != REPORT_FIELDS:
            return [f"{label}: fields {list(fields)}"]
        problems = _printed(fields, expected, label)
    if got_dropped != tuple(dropped):
        problems.append(f"{label}: dropped {got_dropped}, reference {tuple(dropped)}")
    return problems


def delay_output(text: str, delays, expected: list[ref.Report], label: str):
    rows = _table(text, "tsv")
    header = ["delay", "n_windows", "n_coincident", "n_reflected", "alpha_tilde", "beta_tilde"]
    if rows[0] != header or len(rows) - 1 != len(expected):
        return [f"{label}: header {rows[0]} with {len(rows) - 1} rows"]
    problems = []
    for row, d, want in zip(rows[1:], delays, expected):
        if int(row[0]) != d:
            return [f"{label}: delay {row[0]} where {d} was expected"]
        problems += _printed(dict(zip(header[1:], row[1:])), want, f"{label} delay {d}")
    return problems


def rolling_output(text: str, keys, expected: list[ref.RollingRow], label: str):
    rows = _table(text, "tsv")
    header = rows[0]
    fixed = ["from", "to", "n_windows", "n_coincident", "n_reflected",
             "alpha_tilde", "beta_tilde"]
    if header[:7] != fixed or len(rows) - 1 != len(expected):
        return [f"{label}: header {header[:7]} with {len(rows) - 1} rows"]
    problems = []
    for row, want in zip(rows[1:], expected):
        where = f"{label} window {want.start}"
        if row[:2] != [keys[want.start], keys[want.stop - 1]]:
            return [f"{where}: key range {row[:2]} is wrong"]
        watch = tuple(int(v) for v in row[7:])
        if watch != tuple(c for pair in want.watch for c in pair):
            return [f"{where}: watch counts {watch}, reference {want.watch}"]
        problems += _printed(dict(zip(fixed[2:], row[2:7])), want.report, where)
    return problems


def dist_output(text: str, h: int, expected: dict, label: str):
    rows = _table(text, "tsv")
    total = sum(expected.values())
    if rows[0] != ["pattern", "count", "freq"] or len(rows) != math.factorial(h + 1) + 2:
        return [f"{label}: header {rows[0]} with {len(rows) - 1} rows"]
    for pattern, count, freq in rows[1:-1]:
        key = tuple(int(v) for v in pattern.strip("()").split(","))
        want = expected.get(key, 0)
        if int(count) != want or not _close(float(freq), want / total, PRINTED_TOLERANCE):
            return [f"{label}: {pattern} printed {count} {freq}, reference {want}"]
    if rows[-1][:2] != ["total", str(total)]:
        return [f"{label}: total row {rows[-1]}, reference {total}"]
    return []

