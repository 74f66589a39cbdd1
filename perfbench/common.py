"""Shared plumbing: repository paths, statistics, memory, output checks."""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: The 1k-flow leg: 10,100 links and 8,192 consumer classes.
FABRIC_SPEC = "leafspine:flows=1024,leaves=100,leaves_per_flow=4,spines=100"
#: The CLI's default iteration budget.
ITERATIONS = 250


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not inherited else f"{SRC}{os.pathsep}{inherited}"
    return env


def cores() -> int:
    return len(os.sched_getaffinity(0))


def median(values: list[float]) -> float:
    return statistics.median(values)


def p95(values: list[float]) -> float:
    """95th percentile (inclusive method); needs >= 200 samples to have
    ten beyond it, which the callers guarantee or do not report."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set size (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def window(seconds: float) -> Iterator[int]:
    """Yield operation indices until ``seconds`` have passed (at least one).

    The loop is closed: the caller runs one operation per index, so the
    next one starts only after the previous one returned.
    """
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        yield index
        index += 1


def timed(call: Callable[[], Any]) -> tuple[float, Any]:
    started = time.perf_counter()
    value = call()
    return time.perf_counter() - started, value


@dataclass
class Checks:
    """Output checks, counted per operation attempted."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, failures: list[str]) -> bool:
        """Count one operation; it fails when any check in it failed."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.problems.extend(f"{label}: {failure}" for failure in failures)
        return not failures

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


@dataclass
class Measurement:
    """One workload's untraced run: the end-to-end metrics, the output
    checks, and the per-operation figures printed for people but not
    bounded (see LAYERS.md), each as name -> (value, unit)."""

    metrics: dict[str, tuple[float, str]]
    checks: Checks
    report: dict[str, tuple[float, str]]


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
