"""ordpat benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout (ordpat is imported from its ``src/``):

    python3 perfbench/run.py --workload batch_large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Workloads (each a closed loop with one caller; see BENCHMARK.json):
  batch_large  library calls on one 200,000-point random-walk pair
  small_ties   short analyze_pair calls on tied half-unit grid data
  cli_small    ``python -m ordpat`` commands on the golden fixtures
  cli_large    ``python -m ordpat`` commands on 200,000-row price files

``--trace 0`` reports the end-to-end metrics: setup_s, windows_per_s,
call_us.p50, call_us.p99 and peak_rss_mb. ``--trace 1`` installs span
wrappers on ordpat's public functions and reports per-layer self times and
counts. Every operation is checked against an independent reference outside
its timed section. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full result (and, when
traced, the spans) is also written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from common import RESULTS, SRC, WORK, Outcome, run_closed_loop, run_op, spawn

HERE = Path(__file__).resolve().parent
WORKLOADS = ("batch_large", "small_ties", "cli_small", "cli_large")
SETUP_STARTS = (3, 4)  # fresh interpreters per run for setup_s: at least, at most
IMPORT_STARTS = 3  # fresh interpreters per traced run for cli.import_s

SELF_TIMED = (
    "ingest.read_csv", "ingest.align", "cli.main", "cli.write_csv",
    "synth.correlated_ar1_pair", "patterns.pattern_sequence",
    "dependence.distribution", "dependence.analyze_pair",
    "dependence.coincident_reflected_counts", "dependence.delay_scan",
    "dependence.rolling_analysis",
)
RESCAN = ("dependence.delay_scan", "dependence.rolling_analysis")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="smallest inputs, one start")
    p.add_argument("--self-test", action="store_true",
                   help="check the reference, then run every workload's smallest point")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def _make(name: str, seed: int, smoke: bool):
    if name.startswith("cli"):
        import cliwork

        cls = cliwork.CliSmall if name == "cli_small" else cliwork.CliLarge
    else:
        import library

        cls = library.BatchLarge if name == "batch_large" else library.SmallTies
    return cls(seed, smoke)


def _fresh_start(name: str, import_only: bool = False):
    """Spawn a fresh interpreter that imports ordpat and warms up."""
    out = WORK / "setup"
    out.mkdir(parents=True, exist_ok=True)
    child = spawn([str(HERE / "warmup.py"), name, *(["--import-only"] if import_only else [])],
                  out)
    if child.exit_code != 0:
        raise RuntimeError(f"set-up of {name} failed: {child.stderr.strip()[-500:]}")
    return child.wall_s, float(child.stdout.strip())


def _warm_up(name: str) -> None:
    if name.startswith("cli"):
        import cliwork

        cliwork.warm_up()
    else:
        import library

        library.warm_up(name)


def _quiet_heap() -> None:
    """Move the benchmark's own long-lived objects (inputs, reference values)
    out of the garbage collector's view, so collections triggered by the
    library's allocations do not scan them."""
    gc.collect()
    gc.freeze()


def _typical_seconds(outcomes: list[Outcome]) -> dict[str, float]:
    """Each operation's median time over its repeats. Figures are taken over
    these, so one slow repeat moves nothing and every operation weighs the same."""
    repeats = defaultdict(list)
    for o in outcomes:
        repeats[o.label].append(o.seconds)
    return {label: statistics.median(times) for label, times in repeats.items()}


def _setup_seconds(name: str, smoke: bool) -> float:
    """Median start time over fresh interpreters, adding starts (up to the
    maximum) until the last three lie within a tenth of their median."""
    least, most = (1, 1) if smoke else SETUP_STARTS
    walls = [_fresh_start(name)[0] for _ in range(least)]
    while len(walls) < most:
        last = walls[-3:]
        if max(last) - min(last) <= 0.1 * statistics.median(last):
            break
        walls.append(_fresh_start(name)[0])
    return statistics.median(walls)


def measured_run(name, workload, seconds, smoke):
    setup_s = _setup_seconds(name, smoke)
    _warm_up(name)
    _quiet_heap()
    outcomes = run_closed_loop(workload.ops(), seconds, workload.whole_units)
    typical = _typical_seconds(outcomes)
    typical_s = np.array(list(typical.values()))
    windows = sum({o.label: o.windows for o in outcomes}.values())
    calls_us = typical_s * 1e6
    if name.startswith("cli"):
        rss_kb = workload.max_rss_kb  # the largest command process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "windows_per_s": (windows / typical_s.sum(), "1/s"),
        "call_us.p50": (float(np.percentile(calls_us, 50)), "us"),
        "call_us.p99": (float(np.percentile(calls_us, 99)), "us"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return metrics, outcomes, None


def traced_run(name, workload, seconds, smoke):
    from spans import Tracer

    starts = 1 if smoke else IMPORT_STARTS
    import_s = statistics.median(_fresh_start("cli", True)[1] for _ in range(starts))
    _warm_up(name)
    _quiet_heap()
    tracer = Tracer()
    ops = workload.traced_ops()
    outcomes: list[Outcome] = []
    units, plain_s, traced_s = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain = [run_op(op) for op in ops]
        first, counted = len(tracer.spans), dict(tracer.counters)
        if hasattr(workload, "output_bytes"):
            workload.output_bytes = 0
        tracer.install()
        try:
            traced = []
            for op in ops:
                tracer.op += 1
                traced.append(run_op(op))
        finally:
            tracer.uninstall()
        outcomes += plain + traced
        plain_s.append(sum(o.seconds for o in plain))
        traced_s.append(sum(o.seconds for o in traced))
        units.append(layer_metrics(tracer, first, counted, workload, import_s))
        if time.perf_counter() >= deadline:
            break
    metrics = {key: (statistics.median(u[key][0] for u in units), units[0][key][1])
               for key in units[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_s) - statistics.median(plain_s), "s")
    return metrics, outcomes, tracer


def layer_metrics(tracer, first, counted, workload, import_s) -> dict:
    """Per-layer figures of one traced unit of work (spans from ``first``)."""
    spans = tracer.spans[first:]
    self_s = tracer.self_times(first)

    def items(name):
        return [s.items for s in spans if s.name == name]

    m = {f"{name}.self_s": (self_s.get(name, 0.0), "s") for name in SELF_TIMED}
    m["ingest.read_csv.rows"] = (sum(items("ingest.read_csv")), "count")
    m["ingest.align.rows_dropped"] = (sum(items("ingest.align")), "count")
    m["cli.import_s"] = (import_s, "s")
    m["cli.output_bytes"] = (getattr(workload, "output_bytes", 0), "bytes")
    m["patterns.pattern_sequence.windows"] = (sum(items("patterns.pattern_sequence")), "count")
    m["patterns.extract_pattern.calls"] = (
        tracer.counters.get("patterns.extract_pattern", 0)
        - counted.get("patterns.extract_pattern", 0), "count")
    m["patterns.tied_window_share"] = (workload.inputs["tied_window_share"], "share")
    m["dependence.distribution.distinct_patterns"] = (
        max(items("dependence.distribution"), default=0), "count")
    for h in (2, 3, 5, 8):
        per_window = [s.duration / s.items[1] * 1e9 for s in spans
                      if s.name == "dependence.analyze_pair" and s.items[0] == h]
        m[f"dependence.analyze_pair.ns_per_window.h{h}"] = (
            statistics.median(per_window) if per_window else 0.0, "ns")
    m["dependence.rolling_analysis.reports"] = (
        sum(r for r, _ in items("dependence.rolling_analysis")), "count")
    covered = sum(items("dependence.delay_scan")) + sum(
        p for _, p in items("dependence.rolling_analysis"))
    extracted = sum(
        s.items for i, s in enumerate(spans, start=first)
        if s.name == "patterns.pattern_sequence" and tracer.ancestor(i, RESCAN) is not None)
    m["dependence.extract_per_window"] = (extracted / covered if covered else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    args = _parse(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    if not (SRC / "ordpat" / "__init__.py").is_file():
        print(f"perfbench: no ordpat package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ordpat

    if not ordpat.__file__.startswith(str(SRC)):
        print(f"perfbench: imported ordpat from {ordpat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = _make(args.workload, args.seed, args.smoke)
    run = traced_run if args.trace else measured_run
    try:
        metrics, outcomes, tracer = run(args.workload, workload, args.seconds, args.smoke)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    return _report(args, workload, metrics, outcomes, tracer)


def _report(args, workload, metrics, outcomes, tracer) -> int:
    failed = [o for o in outcomes if o.problems]
    defects = sorted({o.defect for o in outcomes if o.defect})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"{tag}: {len(outcomes)} operations, {len(failed)} failed")
    print("inputs: " + json.dumps(workload.inputs))
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for message in defects:
        print(f"known defect (output checked, not counted as failed): {message}")
    for o in failed[:10]:
        print("FAILED " + "; ".join(o.problems)[:500])
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  inputs=workload.inputs, known_defects=defects,
                  problems=[p for o in failed for p in o.problems][:100],
                  python=sys.version.split()[0], numpy=np.__version__)
    typical = _typical_seconds(outcomes)
    if tracer is None and len(typical) <= 50:
        detail["operation_median_s"] = typical
    if tracer is not None:
        detail["skipped_trace_names"] = tracer.skipped
        for name in tracer.skipped:
            print(f"trace: {name} no longer exists; not traced")
        tracer.dump(RESULTS / f"{tag}.spans.jsonl")
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
