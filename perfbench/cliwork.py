"""CLI workloads: cli_small and cli_large.

Measured runs start one ``python -m ordpat`` process per command, each after
the last has exited, and time it from spawn to exit. Traced runs call
``ordpat.cli.main(argv)`` in process instead, so spans cover the CLI layer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import inputs
import reference as ref
from common import FIXTURES, WORK, Op, spawn

AR1_PHI, AR1_RHO = 0.99, -0.8  # the defaults of ``ordpat simulate``


@dataclass(frozen=True)
class Command:
    label: str
    argv: list[str]
    check: Callable[[str], list[str]]  # stdout text -> problems
    windows: int
    defect: Optional[Callable[[str], Optional[str]]] = None  # -> known-defect message


def _read_fixture(name: str):
    with open(FIXTURES / name, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


def _same_bytes(text: str, golden: Path, label: str) -> list[str]:
    if text.encode("utf-8") != golden.read_bytes():
        return [f"{label}: output differs from {golden.name}"]
    return []


def _both(*problem_lists) -> list[str]:
    return [p for problems in problem_lists for p in problems]


def _analyze_cmds(pair_args, fmt_h, expected, dropped, golden=None):
    cmds = []
    for fmt, h in fmt_h:
        label = f"analyze --h {h} --format {fmt}"
        argv = ["analyze", *pair_args, "--h", str(h), "--format", fmt]

        def check(text, fmt=fmt, h=h, label=label):
            problems = checks.analyze_output(text, fmt, expected[h], dropped, label)
            if golden is not None and fmt == "tsv":
                problems += _same_bytes(text, golden, label)
            return problems

        cmds.append(Command(label, argv, check, expected[h].n_windows))
    return cmds


def _delay_cmd(pair_args, h, lo, hi, expected):
    label = f"delay --h {h} {lo}..{hi}"
    delays = list(range(lo, hi + 1))
    return Command(
        label,
        ["delay", *pair_args, "--h", str(h), "--from-delay", str(lo), "--to-delay", str(hi)],
        lambda text: checks.delay_output(text, delays, expected, label),
        sum(r.n_windows for r in expected),
    )


def _dist_cmd(x_args, h, expected, golden=None):
    label = f"dist --h {h}"
    return Command(
        label,
        ["dist", *x_args, "--h", str(h)],
        lambda text: _both(
            checks.dist_output(text, h, expected, label),
            _same_bytes(text, golden, label) if golden else [],
        ),
        sum(expected.values()),
    )


class CliWorkload:
    """Shared running of a command list, by subprocess or in process."""

    whole_units = True

    def __init__(self, name: str):
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.commands: list[Command] = []
        self.max_rss_kb = 0
        self.output_bytes = 0

    def _ordered(self, commands: list[Command], seed: int) -> list[Command]:
        return [commands[i] for i in inputs.command_order(seed, len(commands))]

    def ops(self) -> list[Op]:
        return [self._op(c, self._spawned) for c in self.commands]

    def traced_ops(self) -> list[Op]:
        return [self._op(c, self._in_process) for c in self.commands]

    def _op(self, cmd: Command, runner) -> Op:
        return Op(cmd.label, lambda: runner(cmd.argv), cmd.check, cmd.windows, cmd.defect)

    def _spawned(self, argv: list[str]) -> str:
        child = spawn(["-m", "ordpat", *argv], self.work)
        self.max_rss_kb = max(self.max_rss_kb, child.max_rss_kb)
        if child.exit_code != 0:
            raise RuntimeError(f"exit {child.exit_code}: {child.stderr.strip()[:300]}")
        return child.stdout

    def _in_process(self, argv: list[str]) -> str:
        import ordpat.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ordpat.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()[:300]}")
        text = out.getvalue()
        self.output_bytes += len(text.encode("utf-8"))
        return text

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class CliSmall(CliWorkload):
    """Seven commands on the committed golden fixtures (n = 120).

    The fixtures are fixed, so the seed only sets the command order. Start-up
    (import) dominates every command. ``rolling --epsilon 5`` must print
    either the epsilon-5 result or, as long as the flag is ignored, exactly
    the epsilon-0 result; the latter is reported as a known defect.
    """

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__("cli_small")
        gx, gy = str(FIXTURES / "golden_x.csv"), str(FIXTURES / "golden_y.csv")
        keys, xv = _read_fixture("golden_x.csv")
        _, yv = _read_fixture("golden_y.csv")
        pair = ["--x", gx, "--y", gy]
        expected = {h: ref.analyze(xv, yv, h) for h in (2, 3)}
        cmds = _analyze_cmds(
            pair, [("tsv", 2)], expected, (0, 0),
            golden=FIXTURES / "golden_analyze_h2.tsv")
        cmds += _analyze_cmds(pair, [("json", 3), ("md", 3)], expected, (0, 0))
        cmds.append(_dist_cmd(["--x", gx], 3, ref.distribution(xv, 3),
                              golden=FIXTURES / "golden_dist_h3.tsv"))
        cmds.append(_delay_cmd(pair, 3, -3, 3, ref.delay_reports(xv, yv, 3, ref.SLIDING, range(-3, 4))))
        plain = ref.rolling_reports(xv, yv, 3, ref.SLIDING, 60, 60)
        tied = ref.rolling_reports(xv, yv, 3, ref.SLIDING, 60, 60, epsilon=5.0)
        cmds.append(Command(
            "rolling --window 60", ["rolling", *pair, "--h", "3", "--window", "60"],
            lambda text: checks.rolling_output(text, keys, plain, "rolling --window 60"),
            sum(r.report.n_windows for r in plain)))
        label = "rolling --window 60 --epsilon 5"

        def epsilon_check(text):
            fixed = checks.rolling_output(text, keys, tied, label)
            return [] if not fixed or not checks.rolling_output(text, keys, plain, label) else fixed

        def epsilon_defect(text):
            if checks.rolling_output(text, keys, tied, label):
                return f"{label}: printed the epsilon-0 result; --epsilon is ignored"
            return None

        cmds.append(Command(
            label, ["rolling", *pair, "--h", "3", "--window", "60", "--epsilon", "5"],
            epsilon_check, sum(r.report.n_windows for r in tied), epsilon_defect))
        self.commands = self._ordered(cmds, seed)
        all_reports = list(expected.values()) + [r.report for r in plain]
        self.inputs = {
            "n": len(keys),
            "tied_window_share": _tied_share(all_reports),
            "tied_window_share_eps5": _tied_share([r.report for r in tied]),
            "rows_dropped": 0,
            "distinct_patterns_h8": None,
        }


class CliLarge(CliWorkload):
    """Five commands on a generated 200,000-date close-price pair.

    About 1% of dates are missing on each side, so ``align`` drops rows, and
    ``simulate ar1`` writes a 200,000-row pair (the only ``synth`` caller).
    """

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__("cli_large")
        n = 3000 if smoke else 200_000
        prices = inputs.price_pair(seed, n, self.work)
        keys, xv, yv, drop_x, drop_y = ref.align(
            prices.x_keys, prices.x_values, prices.y_keys, prices.y_values)
        pair = ["--x", str(prices.x_path), "--y", str(prices.y_path),
                "--key", "date", "--value", "close"]
        analyzed = {3: ref.analyze(xv, yv, 3)}
        cmds = _analyze_cmds(pair, [("tsv", 3)], analyzed, (drop_x, drop_y))
        cmds.append(_delay_cmd(pair, 3, -5, 5, ref.delay_reports(xv, yv, 3, ref.SLIDING, range(-5, 6))))
        rows = ref.rolling_reports(xv, yv, 3, ref.SLIDING, 250, 250)
        cmds.append(Command(
            "rolling --window 250", ["rolling", *pair, "--h", "3", "--window", "250"],
            lambda text: checks.rolling_output(text, keys, rows, "rolling --window 250"),
            sum(r.report.n_windows for r in rows)))
        cmds.append(_dist_cmd(["--x", str(prices.x_path), "--key", "date", "--value", "close"],
                              3, ref.distribution(prices.x_values, 3)))
        sim_x, sim_y = self.work / "sim_x.csv", self.work / "sim_y.csv"
        sim = ref.ar1(n, AR1_PHI, AR1_RHO, seed)
        cmds.append(Command(
            f"simulate ar1 --n {n}",
            ["simulate", "ar1", "--n", str(n), "--seed", str(seed),
             "--out-x", str(sim_x), "--out-y", str(sim_y)],
            lambda text: _check_simulated(text, (sim_x, sim_y), sim), 0))
        self.commands = self._ordered(cmds, seed)
        self.inputs = {
            "n": n,
            "tied_window_share": _tied_share([analyzed[3]] + [r.report for r in rows]),
            "rows_dropped": drop_x + drop_y,
            "distinct_patterns_h8": None,
        }


def _tied_share(reports: list[ref.Report]) -> float:
    return sum(r.tied_windows for r in reports) / sum(2 * r.n_windows for r in reports)


def _check_simulated(text: str, paths, expected) -> list[str]:
    n = expected[0].size
    want = "\n".join(f"wrote\t{p}\t{n}" for p in paths) + "\n"
    if text != want:
        return [f"simulate: printed {text[:200]!r}"]
    for path, series in zip(paths, expected):
        lines = path.read_text(encoding="utf-8").splitlines()
        if lines[0] != "key,value" or len(lines) != n + 1:
            return [f"simulate: {path.name} has header {lines[0]!r} and {len(lines)} lines"]
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        values = np.array([float(line.split(",", 1)[1]) for line in lines[1:]])
        if keys != [str(i) for i in range(n)]:
            return [f"simulate: {path.name} keys are not 0..{n - 1}"]
        worst = np.max(np.abs(values - series) / np.maximum(1.0, np.abs(series)))
        if not worst <= 1e-9:
            return [f"simulate: {path.name} deviates from the AR(1) recursion by {worst:.3g}"]
    return []


def warm_up() -> None:
    """Run one small command in process, so lazy set-up is done."""
    import ordpat.cli

    with contextlib.redirect_stdout(io.StringIO()):
        ordpat.cli.main(["analyze", "--x", str(FIXTURES / "golden_x.csv"),
                         "--y", str(FIXTURES / "golden_y.csv"), "--h", "2"])
