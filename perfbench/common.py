"""Operations, the closed measuring loop, and child processes."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent  # the checkout being measured
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
WORK = Path(__file__).resolve().parent / "work"
RESULTS = Path(__file__).resolve().parent / "results"
CHILD_TIMEOUT_S = 120.0


@dataclass
class Op:
    """One benchmark operation: a library call or one CLI command."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]  # problems; empty when correct
    windows: int  # pattern windows in the reports a correct result holds
    defect: Optional[Callable[[object], Optional[str]]] = None  # known defect shown


@dataclass
class Outcome:
    label: str
    seconds: float
    windows: int
    problems: list[str] = field(default_factory=list)
    defect: Optional[str] = None


def run_op(op: Op) -> Outcome:
    """Time one operation, then check its result outside the timed section."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a failed operation is counted, not fatal
        return Outcome(op.label, time.perf_counter() - start, 0,
                       [f"{op.label}: {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    problems = op.check(result)
    defect = op.defect(result) if op.defect and not problems else None
    return Outcome(op.label, seconds, op.windows, problems, defect)


def run_closed_loop(ops: list[Op], seconds: float, whole_units: bool) -> list[Outcome]:
    """One caller issues ``ops`` in order, each after the last has finished,
    cycling until ``seconds`` have passed. With ``whole_units`` only complete
    cycles run, so every run measures the same mix of operations."""
    deadline = time.perf_counter() + seconds
    outcomes: list[Outcome] = []
    while True:
        for op in ops:
            outcomes.append(run_op(op))
            if not whole_units and time.perf_counter() >= deadline:
                return outcomes
        if time.perf_counter() >= deadline:
            return outcomes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    wall_s: float  # spawn to exit
    exit_code: int
    max_rss_kb: int
    stdout: str
    stderr: str


def spawn(args: list[str], out_dir: Path, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run ``python <args>`` to completion; time it from spawn to exit."""
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    argv = [sys.executable, *args]
    env = child_env()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    killer = threading.Timer(timeout, _kill, (pidfd,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        killer.cancel()
        os.close(pidfd)
    return Child(
        wall,
        os.waitstatus_to_exitcode(status),
        usage.ru_maxrss,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
    )


def _kill(pidfd: int) -> None:
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
    except (ProcessLookupError, OSError):
        pass  # already exited
