"""``farm``: ``run_sweep`` over a fixed 20-cell grid, capture off.

Each operation makes one cold pass into an empty temporary cache (every
cell executes and is written), then all-hit warm passes of the same grid
(every cell is read back).  The four fault cells run the asynchronous
runtime under seeded fault plans; their seeds come from ``--seed``.
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from common import (
    ITERATIONS,
    OUT,
    Checks,
    Measurement,
    cores,
    median,
    peak_rss_mb,
    timed,
    window,
)
from spans import Tracer, duration

from repro.canonical import canonical_json
from repro.sweep import ResultCache, SweepSpec, plan_sweep, run_sweep

GRID_WORKLOADS = ("base", "flows-x4", "cnodes-x4", "bottleneck")
METHODS = ("lrgp", "two_stage")
ENGINES = ("reference", "vectorized")
FAULT_PLAN = {"horizon": 400.0, "crash_rate": 0.01, "warmup": 60.0}
FAULT_CELLS = 4
WARM_PASSES = 20
#: Timed plan_sweep calls on each fresh empty cache (~1 ms each).
PLAN_REPEATS = 5
COUNTERS = ("messages_sent", "retransmissions", "messages_lost")


def jobs() -> int:
    return min(2, cores())


def grid(seed: int) -> tuple[Any, ...]:
    """The 16 solve cells, then 4 fault cells seeded from ``seed``."""
    solve_cells = SweepSpec(
        workloads=GRID_WORKLOADS, methods=METHODS, engines=ENGINES, iterations=(ITERATIONS,)
    ).expand()
    fault_cells = SweepSpec(
        workloads=("base",),
        fault_plans=(FAULT_PLAN,),
        seeds=tuple(seed * FAULT_CELLS + k for k in range(FAULT_CELLS)),
    ).expand()
    return solve_cells + fault_cells


@contextlib.contextmanager
def empty_cache_dir() -> Iterator[Path]:
    OUT.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="farm-cache-", dir=OUT))
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _computed(payload: dict[str, Any]) -> str:
    return canonical_json({"result": payload["result"], "metrics": payload["metrics"]})


class PassChecks:
    """Cold passes: every cell executes and succeeds, and its computed
    payload is byte-equal to the run's first cold pass.  Warm passes:
    every cell is a hit carrying that same payload."""

    def __init__(self, checks: Checks) -> None:
        self.checks = checks
        self.expected: list[str] | None = None

    def cold(self, result: Any) -> None:
        computed = [None if cell.failed else _computed(cell.payload) for cell in result.cells]
        if self.expected is None:
            self.expected = computed
        self._record(result, cached=False)

    def warm(self, result: Any) -> None:
        self._record(result, cached=True)

    def _record(self, result: Any, cached: bool) -> None:
        for index, cell in enumerate(result.cells):
            failures = []
            if cell.failed:
                failures.append(f"failed: {cell.error}")
            elif self.expected is None or _computed(cell.payload) != self.expected[index]:
                failures.append("result/metrics differ from the first cold pass")
            if cell.cached != cached:
                failures.append("hit" if cell.cached else "executed")
            self.checks.record(cell.label, failures)


def _set_up(seed: int, cache: ResultCache, checks: Checks, samples: list[float]) -> None:
    """Time grid expansion plus ``plan_sweep`` on the (still empty) cache."""
    for _ in range(PLAN_REPEATS):
        seconds, plan = timed(lambda: plan_sweep(grid(seed), cache))
        misses = sum(1 for _, _, status in plan if status == "miss")
        failures = [] if misses == len(plan) == 20 else [f"{misses}/{len(plan)} misses"]
        if checks.record("plan", failures):
            samples.append(seconds)


def _passes(configs: tuple[Any, ...], cache: Any, workers: int, pass_checks: PassChecks) -> tuple[float, list[float]]:
    """One cold pass and the warm passes; returns their wall times."""
    cold, result = timed(lambda: run_sweep(configs, jobs=workers, cache=cache))
    pass_checks.cold(result)
    warm = []
    for _ in range(WARM_PASSES):
        seconds, result = timed(lambda: run_sweep(configs, jobs=workers, cache=cache))
        pass_checks.warm(result)
        warm.append(seconds)
    return cold, warm


def measure(seed: int, seconds: float) -> Measurement:
    """The untraced run."""
    checks = Checks()
    configs = grid(seed)
    pass_checks = PassChecks(checks)
    setup: list[float] = []
    colds: list[float] = []
    hits_ms: list[float] = []
    for _ in window(seconds):
        with empty_cache_dir() as root:
            cache = ResultCache(root)
            _set_up(seed, cache, checks, setup)
            cold, warm = _passes(configs, cache, jobs(), pass_checks)
        colds.append(cold)
        hits_ms.extend(wall / len(configs) * 1e3 for wall in warm)
    return Measurement(
        metrics={
            "setup_s": (min(setup), "s"),
            "unit_ms_min": (min(hits_ms), "ms"),
            "peak_rss_mb": (max(peak_rss_mb(), peak_rss_mb(children=True)), "MB"),
        },
        checks=checks,
        report={
            "setup_s_p50": (median(setup), "s"),
            "cold_pass_s_p50": (median(colds), "s"),
            "cells_per_s": (len(configs) / median(colds), "1/s"),
            "hit_cells_per_s": (1e3 / median(hits_ms), "1/s"),
            "cold_passes": (len(colds), "count"),
        },
    )


def speedup_null_reason(cores: int, jobs: int) -> str | None:
    """Why a parallel speedup cannot be measured here, or ``None``."""
    if cores < jobs:
        return f"{cores} core(s) < {jobs} jobs: workers would share cores"
    if jobs < 2:
        return "jobs=1: the farm ran without parallel workers"
    return None


class TracingCache(ResultCache):
    """A ``ResultCache`` whose ``get``/``put`` run inside spans."""

    def __init__(self, root: Path, tracer: Tracer) -> None:
        super().__init__(root)
        self._tracer = tracer

    def get(self, key: str) -> dict[str, Any] | None:
        with self._tracer.span("sweep.cache.get", trace=key):
            return super().get(key)

    def put(self, key: str, config: Any, payload: dict[str, Any]) -> Path:
        with self._tracer.span("sweep.cache.put", trace=key):
            return super().put(key, config, payload)


def traced(seed: int, tracer: Tracer) -> tuple[dict[str, tuple[float, str]], float, dict[str, Any], Checks]:
    """Per-layer numbers: an untraced cold+warm operation, a jobs=1 cold
    pass for the speedup figure, then a traced operation.  Returns
    (metrics, tracing overhead, machine facts, checks)."""
    checks = Checks()
    configs = grid(seed)
    pass_checks = PassChecks(checks)
    workers = jobs()
    with empty_cache_dir() as root:
        cold, warm = _passes(configs, ResultCache(root), workers, pass_checks)
    untraced_wall = cold + sum(warm)

    facts: dict[str, Any] = {"jobs": workers, "parallel_speedup": None}
    reason = speedup_null_reason(cores(), workers)
    if reason is None:
        with empty_cache_dir() as root:
            serial, result = timed(lambda: run_sweep(configs, jobs=1, cache=ResultCache(root)))
        pass_checks.cold(result)
        facts["parallel_speedup"] = serial / cold
    else:
        facts["parallel_speedup_reason"] = reason

    def monitor(event: dict[str, Any]) -> None:
        if event["event"] == "cell_finished" and not event["cached"]:
            end = time.perf_counter_ns()
            tracer.add("sweep.cell", end - int(event["seconds"] * 1e9), end, trace=event["key"])

    with empty_cache_dir() as root, tracer.span("farm", trace="farm") as top:
        cache = TracingCache(root, tracer)
        with tracer.span("sweep.plan"):
            plan_sweep(configs, cache)
        with tracer.span("sweep.pass.cold") as cold_span:
            result = run_sweep(configs, jobs=workers, cache=cache, monitor=monitor)
        pass_checks.cold(result)
        cold_result = result
        warm_first = len(tracer.spans)
        hits = executed = failed = 0
        for index in range(WARM_PASSES):
            with tracer.span("sweep.pass.warm", trace=f"warm-{index}"):
                result = run_sweep(configs, jobs=workers, cache=cache)
            pass_checks.warm(result)
            hits += result.hits
            executed += result.executed
            failed += result.failed
    traced_wall = duration(top) - tracer.seconds("sweep.plan")[-1]

    kinds = {cell.key: cell.payload.get("kind") for cell in cold_result.cells}
    for span in tracer.named("sweep.cell"):
        if kinds.get(span["trace"]) == "fault":
            span["name"] = "runtime.async.cell"
    cell_s = {
        kind: [
            cell.payload["timing"]["wall_time_seconds"]
            for cell in cold_result.cells
            if cell.payload.get("kind") == kind
        ]
        for kind in ("solve", "fault")
    }
    busy = sum(cell_s["solve"]) + sum(cell_s["fault"])
    gets = [span for span in tracer.spans[warm_first:] if span["name"] == "sweep.cache.get"]
    counters = [
        cell.payload["result"]["counters"]
        for cell in cold_result.cells
        if cell.payload.get("kind") == "fault"
    ]
    metrics = {
        "sweep.solve_cell_s_p50": (median(cell_s["solve"]), "s"),
        "sweep.fault_cell_s_p50": (median(cell_s["fault"]), "s"),
        "sweep.pool_idle_frac": (
            1.0 - busy / (min(workers, cold_result.executed) * duration(cold_span)),
            "ratio",
        ),
        "sweep.executed": (float(cold_result.executed + executed), "count"),
        "sweep.hits": (float(hits), "count"),
        "sweep.failed": (float(cold_result.failed + failed), "count"),
        "sweep.cache.put_ms": (median(tracer.seconds("sweep.cache.put")) * 1e3, "ms"),
        "sweep.cache.get_ms": (median([duration(span) for span in gets]) * 1e3, "ms"),
        "sweep.cache.hit_ratio": (hits / len(gets), "ratio"),
    }
    for name in COUNTERS:
        metrics[f"runtime.async.{name}"] = (float(sum(c[name] for c in counters)), "count")
    return metrics, traced_wall - untraced_wall, facts, checks
