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
from typing import Optional, Sequence

import numpy as np

from .dependence import (
    DependenceReport,
    _distinct,
    analyze_pair,
    delay_scan,
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


def _f6(value: float) -> str:
    return f"{value:.6f}"


def _opt6(value: Optional[float]) -> str:
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
    return [
        [name, str(value) if isinstance(value, int) else _opt6(value)]
        for name, value in dataclasses.asdict(report).items()
    ]


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


def _load_pair(args: argparse.Namespace) -> AlignResult:
    x_value = args.x_value or args.value
    y_value = args.y_value or args.value
    x = read_csv(args.x, args.key, x_value)
    y = read_csv(args.y, args.key, y_value)
    return align(x, y)


# --- commands ------------------------------------------------------------------


def cmd_dist(args: argparse.Namespace) -> str:
    _check_order(args.h)
    series = read_csv(args.x, args.key, args.value)
    seq = pattern_sequence(series, args.h, _scheme(args), args.epsilon)
    total = len(seq)
    distinct, seen = _distinct(seq)
    counts = np.zeros(math.factorial(args.h + 1), dtype=np.int64)
    counts[distinct.ranks] = seen
    counts = counts.tolist()

    # permutations() yields the patterns in lexicographic rank order.
    rows = zip(itertools.permutations(range(args.h + 1)), counts)
    if args.format == "json":
        json_rows = [
            {"pattern": list(indices), "count": count, "freq": count / total}
            for indices, count in rows
        ]
        return json.dumps(
            {
                "command": "dist",
                "h": args.h,
                "scheme": _scheme(args).value,
                "epsilon": args.epsilon,
                "total": total,
                "rows": json_rows,
            },
            indent=2,
        )
    table_rows = [
        [pattern_label(indices), str(count), _f6(count / total)]
        for indices, count in rows
    ]
    table_rows.append(["total", str(total), _f6(total / total)])
    return _render_table(["pattern", "count", "freq"], table_rows, args.format)


def cmd_analyze(args: argparse.Namespace) -> str:
    _check_order(args.h)
    pair = _load_pair(args)
    report = analyze_pair(pair.a, pair.b, args.h, _scheme(args), args.epsilon)
    if args.format == "json":
        return json.dumps(
            {
                "command": "analyze",
                "scheme": _scheme(args).value,
                "epsilon": args.epsilon,
                "dropped_x": pair.dropped_a,
                "dropped_y": pair.dropped_b,
                "report": dataclasses.asdict(report),
            },
            indent=2,
        )
    rows = _report_rows(report)
    rows.append(["dropped_x", str(pair.dropped_a)])
    rows.append(["dropped_y", str(pair.dropped_b)])
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
        return json.dumps(
            {
                "command": "delay",
                "h": args.h,
                "scheme": _scheme(args).value,
                "epsilon": args.epsilon,
                "dropped_x": pair.dropped_a,
                "dropped_y": pair.dropped_b,
                "delays": [
                    {"delay": d, "report": dataclasses.asdict(rep)} for d, rep in scan
                ],
            },
            indent=2,
        )
    header = [
        "delay",
        "n_windows",
        "n_coincident",
        "n_reflected",
        "alpha_tilde",
        "beta_tilde",
    ]
    rows = [
        [
            str(d),
            str(rep.n_windows),
            str(rep.n_coincident),
            str(rep.n_reflected),
            _f6(rep.alpha_tilde),
            _f6(rep.beta_tilde),
        ]
        for d, rep in scan
    ]
    return _render_table(header, rows, args.format)


def cmd_rolling(args: argparse.Namespace) -> str:
    _check_order(args.h)
    pair = _load_pair(args)
    watch = _parse_watch(args.watch) if args.watch else None
    step = args.step if args.step is not None else args.window
    rolling = rolling_analysis(
        pair.a, pair.b, args.h, _scheme(args), args.window, step, watch, args.epsilon
    )
    if args.format == "json":
        return json.dumps(
            {
                "command": "rolling",
                "h": args.h,
                "scheme": _scheme(args).value,
                "epsilon": args.epsilon,
                "window": args.window,
                "step": step,
                "dropped_x": pair.dropped_a,
                "dropped_y": pair.dropped_b,
                "windows": [
                    {
                        "from": w.start_key,
                        "to": w.end_key,
                        "watch_counts": {
                            str(p): list(c) for p, c in w.watch_counts.items()
                        },
                        "report": dataclasses.asdict(w.report),
                    }
                    for w in rolling
                ],
            },
            indent=2,
        )
    watch_used: tuple[OrdinalPattern, ...] = ()
    if len(rolling) > 0:
        watch_used = tuple(rolling.windows[0].watch_counts)
    header = ["from", "to", "n_windows", "n_coincident", "n_reflected",
              "alpha_tilde", "beta_tilde"]
    for p in watch_used:
        header += [f"x{p}", f"y{p}"]
    rows = []
    for w in rolling:
        row = [
            w.start_key,
            w.end_key,
            str(w.report.n_windows),
            str(w.report.n_coincident),
            str(w.report.n_reflected),
            _f6(w.report.alpha_tilde),
            _f6(w.report.beta_tilde),
        ]
        for p in watch_used:
            nx, ny = w.watch_counts[p]
            row += [str(nx), str(ny)]
        rows.append(row)
    return _render_table(header, rows, args.format)


def _check_outputs(args: argparse.Namespace) -> None:
    # Written one after the other, one file would keep only series Y.
    if Path(args.out_x).resolve() == Path(args.out_y).resolve():
        raise ValueError(f"--out-x and --out-y both name {args.out_x}")


def cmd_simulate(args: argparse.Namespace) -> str:
    _check_outputs(args)
    if args.kind == "walk":
        x, y = gaussian_walk_pair(args.n, args.seed)
    else:
        x, y = correlated_ar1_pair(
            Ar1Config(n=args.n, phi=args.phi, rho=args.rho, seed=args.seed)
        )
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
    x_value = args.x_value or args.value
    y_value = args.y_value or args.value
    write_csv(out_x, args.out_x, args.key, x_value)
    write_csv(out_y, args.out_y, args.key, y_value)
    rows = [
        ["n", str(len(out_x))],
        ["k", str(args.k)],
        ["magnitude", _f6(args.magnitude)],
        ["corr_before", _f6(corr_before)],
        ["corr_after", _f6(corr_after)],
        ["reflected_h2", str(reports[2].n_reflected)],
        ["reflected_h3", str(reports[3].n_reflected)],
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


def _add_analysis(p: argparse.ArgumentParser) -> None:
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


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format", choices=["tsv", "md", "json"], default="tsv",
        help="output format (default: tsv)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordpat",
        description="Ordinal pattern dependence analysis for paired time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="pattern frequency table for one series")
    _add_common(p, pair=False)
    _add_analysis(p)
    _add_format(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("analyze", help="dependence report for a series pair")
    _add_common(p, pair=True)
    _add_analysis(p)
    _add_format(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("delay", help="dependence reports over a range of shifts")
    _add_common(p, pair=True)
    _add_analysis(p)
    _add_format(p)
    p.add_argument("--from-delay", type=int, required=True, help="first shift")
    p.add_argument("--to-delay", type=int, required=True, help="last shift (inclusive)")
    p.set_defaults(func=cmd_delay)

    p = sub.add_parser("rolling", help="dependence reports over consecutive windows")
    _add_common(p, pair=True)
    _add_analysis(p)
    _add_format(p)
    p.add_argument("--window", type=int, required=True, help="observations per window")
    p.add_argument(
        "--step", type=int, default=None,
        help="window start increment (default: --window, i.e. back-to-back)",
    )
    p.add_argument(
        "--watch", default=None,
        help='patterns to count per window, e.g. "(0,1,2,3),(0,3,2,1)"',
    )
    p.set_defaults(func=cmd_rolling)

    p = sub.add_parser("simulate", help="write a synthetic series pair as CSV")
    p.add_argument("kind", choices=["walk", "ar1"], help="generator")
    p.add_argument("--n", type=int, required=True, help="series length")
    p.add_argument("--phi", type=float, default=0.99, help="AR(1) coefficient")
    p.add_argument("--rho", type=float, default=-0.8, help="noise correlation")
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
