"""Command line front end: ``ordpat <command> [flags]``.

Commands: ``dist`` (pattern frequency table for one series), ``analyze``
(dependence report for a pair), ``delay`` (reports over a range of shifts),
``rolling`` (reports over consecutive windows), ``simulate`` (write synthetic
series), ``inject`` (overwrite outlier positions and summarize the effect).

Output is TSV by default (``--format md|json`` for markdown or JSON).
Probabilities are printed with 6 decimal places; rerunning a command with
identical flags and seeds produces byte-identical output. On failure the
exit status is nonzero and stderr carries a single line of the form
``ordpat: error: <ErrorType>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .dependence import (
    DependenceReport,
    analyze_pair,
    delay_scan,
    distribution,
    increment_correlation,
    rolling_analysis,
)
from .errors import OrdpatError, UnsupportedOrder
from .ingest import AlignResult, TimeSeries, align, read_csv
from .patterns import (
    OrdinalPattern,
    WindowScheme,
    pattern_label,
    pattern_sequence,
)
from .synth import Ar1Config, OutlierConfig, correlated_ar1_pair, gaussian_walk_pair, inject_outliers

# (h+1)! rows must stay materializable in a frequency table.
MAX_ORDER = 8

# simulate ar1's coefficient and noise correlation when --phi/--rho are not given.
AR1_PHI, AR1_RHO = 0.99, -0.8


def write_csv(
    series: TimeSeries,
    path: str | Path,
    key_column: str = "key",
    value_column: str = "value",
) -> None:
    """Write a series as a two-column CSV; values use shortest round-trip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([key_column, value_column])
        writer.writerows(zip(series.keys, map(repr, series.values.tolist())))


# --- formatting helpers --------------------------------------------------------


def _f6(value: int | float | None) -> str:
    """The one rule for printed numbers: ints as is, floats to 6 places, None as nan."""
    if isinstance(value, int):
        return str(value)
    return "nan" if value is None else f"{value:.6f}"


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]], fmt: str) -> str:
    if fmt == "md":
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in rows]
    else:
        lines = ["\t".join(header)]
        lines += ["\t".join(row) for row in rows]
    return "\n".join(lines)


def _report_rows(report: DependenceReport) -> list[list[str]]:
    return [[name, _f6(value)] for name, value in dataclasses.asdict(report).items()]


# The report columns of one delay or rolling row.
_SCAN_FIELDS = ("n_windows", "n_coincident", "n_reflected", "alpha_tilde", "beta_tilde")


def _scan_cells(report: DependenceReport) -> list[str]:
    return [_f6(getattr(report, name)) for name in _SCAN_FIELDS]


def _head(args: argparse.Namespace) -> dict:
    return {"command": args.command, "h": args.h, "scheme": args.mode, "epsilon": args.epsilon}


def _dropped(pair: AlignResult) -> dict:
    return {"dropped_x": pair.dropped_a, "dropped_y": pair.dropped_b}


# One parenthesised group of indices, e.g. "(3, 1,2,0)".
_WATCH_GROUP = r"\(\s*[0-9]+(?:\s*,\s*[0-9]+)*\s*\)"


def _parse_watch(text: str) -> tuple[OrdinalPattern, ...]:
    # Groups separated by commas and whitespace, and nothing else.
    if not re.fullmatch(rf"\s*{_WATCH_GROUP}(?:[\s,]*{_WATCH_GROUP})*\s*", text):
        raise ValueError(f"cannot parse watch list {text!r}; expected e.g. (0,1,2,3)")
    groups = re.findall(_WATCH_GROUP, text)
    return tuple(OrdinalPattern(tuple(map(int, re.findall("[0-9]+", g)))) for g in groups)


def _check_order(h: int) -> None:
    if not 1 <= h <= MAX_ORDER:
        raise UnsupportedOrder(f"h must lie in [1, {MAX_ORDER}], got {h}")


def _scheme(args: argparse.Namespace) -> WindowScheme:
    return WindowScheme(args.mode)


def _value_columns(args: argparse.Namespace) -> tuple[str, str]:
    return args.x_value or args.value, args.y_value or args.value


def _load_pair(args: argparse.Namespace) -> AlignResult:
    x_value, y_value = _value_columns(args)
    x = read_csv(args.x, args.key, x_value)
    y = read_csv(args.y, args.key, y_value)
    return align(x, y)


# --- commands ------------------------------------------------------------------


def cmd_dist(args: argparse.Namespace) -> str:
    _check_order(args.h)
    series = read_csv(args.x, args.key, args.value)
    seq = pattern_sequence(series, args.h, _scheme(args), args.epsilon)
    total = len(seq)
    distinct, seen = distribution(seq).distinct
    counts = np.zeros(math.factorial(args.h + 1), dtype=np.int64)
    counts[distinct.ranks] = seen

    # permutations() yields the patterns in lexicographic rank order.
    rows = zip(itertools.permutations(range(args.h + 1)), counts.tolist())
    if args.format == "json":
        json_rows = [
            {"pattern": list(indices), "count": count, "freq": count / total}
            for indices, count in rows
        ]
        return json.dumps({**_head(args), "total": total, "rows": json_rows}, indent=2)
    table_rows = [
        [pattern_label(indices), _f6(count), _f6(count / total)]
        for indices, count in rows
    ]
    table_rows.append(["total", _f6(total), _f6(total / total)])
    return _render_table(["pattern", "count", "freq"], table_rows, args.format)


def cmd_analyze(args: argparse.Namespace) -> str:
    _check_order(args.h)
    pair = _load_pair(args)
    report = analyze_pair(pair.a, pair.b, args.h, _scheme(args), args.epsilon)
    if args.format == "json":
        head = _head(args)
        del head["h"]  # the report carries it
        return json.dumps(
            {**head, **_dropped(pair), "report": dataclasses.asdict(report)}, indent=2
        )
    rows = _report_rows(report)
    rows += [[name, _f6(count)] for name, count in _dropped(pair).items()]
    return _render_table(["field", "value"], rows, args.format)


def cmd_delay(args: argparse.Namespace) -> str:
    _check_order(args.h)
    if args.from_delay > args.to_delay:
        raise ValueError(
            f"--from-delay {args.from_delay} exceeds --to-delay {args.to_delay}"
        )
    pair = _load_pair(args)
    delays = range(args.from_delay, args.to_delay + 1)
    scan = delay_scan(pair.a, pair.b, args.h, _scheme(args), delays, args.epsilon)
    if args.format == "json":
        rows = [{"delay": d, "report": dataclasses.asdict(rep)} for d, rep in scan]
        return json.dumps({**_head(args), **_dropped(pair), "delays": rows}, indent=2)
    rows = [[_f6(d), *_scan_cells(rep)] for d, rep in scan]
    return _render_table(["delay", *_SCAN_FIELDS], rows, args.format)


def cmd_rolling(args: argparse.Namespace) -> str:
    _check_order(args.h)
    pair = _load_pair(args)
    watch = _parse_watch(args.watch) if args.watch else None
    step = args.step if args.step is not None else args.window
    rolling = rolling_analysis(
        pair.a, pair.b, args.h, _scheme(args), args.window, step, watch, args.epsilon
    )
    ranges = rolling.key_ranges()
    watched = rolling.watch_counts.tolist()  # per window: [x, y] per watched pattern
    if args.format == "json":
        labels = [str(p) for p in rolling.watch]
        fields = {name: rolling.values(name) for name in rolling.columns}
        reports = (dict(zip(fields, row)) for row in zip(*fields.values()))
        windows = [
            {"from": start, "to": end, "watch_counts": dict(zip(labels, counts)), "report": report}
            for (start, end), counts, report in zip(ranges, watched, reports)
        ]
        return json.dumps(
            {**_head(args), "window": args.window, "step": step, **_dropped(pair),
             "windows": windows},
            indent=2,
        )
    header = ["from", "to", *_SCAN_FIELDS, *(f"{s}{p}" for p in rolling.watch for s in "xy")]
    cells = zip(*(map(_f6, rolling.values(name)) for name in _SCAN_FIELDS))
    rows = [
        [start, end, *scan, *(_f6(n) for xy in counts for n in xy)]
        for (start, end), scan, counts in zip(ranges, cells, watched)
    ]
    return _render_table(header, rows, args.format)


def _check_outputs(args: argparse.Namespace) -> None:
    # Written one after the other, one file would keep only series Y.
    if Path(args.out_x).resolve() == Path(args.out_y).resolve():
        raise ValueError(f"--out-x and --out-y both name {args.out_x}")


def cmd_simulate(args: argparse.Namespace) -> str:
    _check_outputs(args)
    if args.kind == "walk":
        for name in ("phi", "rho"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name} applies to simulate ar1 only")
        x, y = gaussian_walk_pair(args.n, args.seed)
    else:
        phi = AR1_PHI if args.phi is None else args.phi
        rho = AR1_RHO if args.rho is None else args.rho
        x, y = correlated_ar1_pair(Ar1Config(n=args.n, phi=phi, rho=rho, seed=args.seed))
    write_csv(x, args.out_x)
    write_csv(y, args.out_y)
    return "\n".join(
        [
            f"wrote\t{args.out_x}\t{len(x)}",
            f"wrote\t{args.out_y}\t{len(y)}",
        ]
    )


def cmd_inject(args: argparse.Namespace) -> str:
    _check_outputs(args)
    pair = _load_pair(args)
    corr_before = increment_correlation(pair.a, pair.b)
    cfg = OutlierConfig(k=args.k, magnitude=args.magnitude, seed=args.seed)
    out_x, out_y = inject_outliers(pair.a, pair.b, cfg)
    corr_after = increment_correlation(out_x, out_y)
    reports = {
        h: analyze_pair(out_x, out_y, h, WindowScheme.SLIDING) for h in (2, 3)
    }
    x_value, y_value = _value_columns(args)
    write_csv(out_x, args.out_x, args.key, x_value)
    write_csv(out_y, args.out_y, args.key, y_value)
    rows = [
        ["n", _f6(len(out_x))],
        ["k", _f6(args.k)],
        ["magnitude", _f6(args.magnitude)],
        ["corr_before", _f6(corr_before)],
        ["corr_after", _f6(corr_after)],
        ["reflected_h2", _f6(reports[2].n_reflected)],
        ["reflected_h3", _f6(reports[3].n_reflected)],
        ["wrote_x", str(args.out_x)],
        ["wrote_y", str(args.out_y)],
    ]
    return _render_table(["field", "value"], rows, "tsv")


# --- parser --------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, pair: bool) -> None:
    p.add_argument("--x", required=True, help="input CSV for the (first) series")
    if pair:
        p.add_argument("--y", required=True, help="input CSV for the second series")
    p.add_argument("--key", default="key", help="key column name (default: key)")
    p.add_argument("--value", default="value", help="value column name (default: value)")
    if pair:
        p.add_argument("--x-value", default=None, help="override value column for --x")
        p.add_argument("--y-value", default=None, help="override value column for --y")


def _analysis_parser(
    sub: argparse._SubParsersAction,
    name: str,
    help: str,
    func: Callable[[argparse.Namespace], str],
    pair: bool,
) -> argparse.ArgumentParser:
    """A subcommand with the input, analysis and format flags of dist/analyze/delay/rolling."""
    p = sub.add_parser(name, help=help)
    _add_common(p, pair)
    p.add_argument("--h", type=int, required=True, help=f"pattern order, 1..{MAX_ORDER}")
    p.add_argument(
        "--mode",
        choices=[s.value for s in WindowScheme],
        default=WindowScheme.SLIDING.value,
        help="window advancement (default: sliding)",
    )
    p.add_argument(
        "--epsilon",
        type=float,
        default=0.0,
        help="treat values within this tolerance as tied (default: 0)",
    )
    p.add_argument(
        "--format", choices=["tsv", "md", "json"], default="tsv",
        help="output format (default: tsv)",
    )
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordpat",
        description="Ordinal pattern dependence analysis for paired time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _analysis_parser(sub, "dist", "pattern frequency table for one series", cmd_dist, False)
    _analysis_parser(sub, "analyze", "dependence report for a series pair", cmd_analyze, True)

    p = _analysis_parser(
        sub, "delay", "dependence reports over a range of shifts", cmd_delay, True
    )
    p.add_argument("--from-delay", type=int, required=True, help="first shift")
    p.add_argument("--to-delay", type=int, required=True, help="last shift (inclusive)")

    p = _analysis_parser(
        sub, "rolling", "dependence reports over consecutive windows", cmd_rolling, True
    )
    p.add_argument("--window", type=int, required=True, help="observations per window")
    p.add_argument(
        "--step", type=int, default=None,
        help="window start increment (default: --window, i.e. back-to-back)",
    )
    p.add_argument(
        "--watch", default=None,
        help='patterns to count per window, e.g. "(0,1,2,3),(0,3,2,1)"',
    )

    p = sub.add_parser("simulate", help="write a synthetic series pair as CSV")
    p.add_argument("kind", choices=["walk", "ar1"], help="generator")
    p.add_argument("--n", type=int, required=True, help="series length")
    p.add_argument(
        "--phi", type=float, default=None,
        help=f"AR(1) coefficient, ar1 only (default: {AR1_PHI})",
    )
    p.add_argument(
        "--rho", type=float, default=None,
        help=f"noise correlation, ar1 only (default: {AR1_RHO})",
    )
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--out-x", required=True, help="output CSV for series X")
    p.add_argument("--out-y", required=True, help="output CSV for series Y")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", help="inject +/-magnitude outliers and summarize")
    _add_common(p, pair=True)
    p.add_argument("--k", type=int, required=True, help="number of outlier positions")
    p.add_argument("--magnitude", type=float, default=10.0, help="outlier magnitude")
    p.add_argument("--seed", type=int, default=0, help="position-picking seed")
    p.add_argument("--out-x", required=True, help="output CSV for modified X")
    p.add_argument("--out-y", required=True, help="output CSV for modified Y")
    p.set_defaults(func=cmd_inject)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        output = args.func(args)
    except (OrdpatError, ValueError, OSError) as exc:  # OSError names its file
        message = " ".join(str(exc).split())  # keep the error on a single line
        print(f"ordpat: error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (e.g. `| head`). Point stdout at devnull so the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def run() -> None:
    sys.exit(main())
