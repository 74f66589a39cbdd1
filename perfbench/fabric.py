"""``fabric-1k`` and ``fabric-1k-observed``: in-process vectorized solves of
the 1k-flow leaf-spine leg.

``fabric-1k`` runs with telemetry off, so the compiled step dominates.
``fabric-1k-observed`` runs the same problem under
``Telemetry(profiler=PhaseProfiler())``, as ``repro profile`` and
``repro trace run`` build it, then writes the captured events as JSONL to
an in-memory stream, as ``repro trace run -o`` does.
"""

from __future__ import annotations

import gc
import io
import math
import time
from typing import Any

from common import (
    FABRIC_SPEC,
    ITERATIONS,
    Checks,
    Measurement,
    median,
    p95,
    peak_rss_mb,
    timed,
    window,
)
from spans import NULL_TRACER, Tracer

from repro import LRGP, JsonlSink, LRGPConfig, Telemetry, total_utility
from repro.core.compiled import compile_problem
from repro.obs import NULL_REGISTRY, NULL_SINK, PhaseProfiler
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL as RTOL
from repro.workloads.registry import workload_from_spec

#: Timed build + bind set-ups before each solve.  A set-up is ~0.2 s, so
#: a run holds enough of them for the fastest to land in a fast phase.
SETUPS_PER_SOLVE = 3
#: Iterations of one observed solve.  Capture keeps ~10.3k events per
#: step in memory and writes ~2.4 MB of JSONL per step, so the observed
#: solve is kept short to bound memory; 10 steps are ~3-4 s of work.
OBSERVED_ITERATIONS = 10
#: Untimed iterations on which the vectorized trajectory must match the
#: reference engine (~0.1 s per reference step at this scale).
CHECK_ITERATIONS = 3


def _config(observed: bool) -> Any:
    if observed:
        return LRGPConfig(engine="vectorized", telemetry=Telemetry(profiler=PhaseProfiler()))
    return LRGPConfig(engine="vectorized")


class Solve:
    """One closed-loop solve: bind, then the timed iterations, each step
    also timed on its own; an observed solve then exports its events as
    JSONL.  ``wall_s`` covers the iterations and the export."""

    def __init__(
        self,
        problem: Any,
        observed: bool,
        tracer: Tracer | Any = NULL_TRACER,
        config: Any = None,
    ) -> None:
        iterations = OBSERVED_ITERATIONS if observed else ITERATIONS
        config = config if config is not None else _config(observed)
        with tracer.span("core.bind"):
            self.optimizer = LRGP(problem, config)
        self.step_ms: list[float] = []
        started = time.perf_counter()
        with tracer.span("solve.iterations"):
            for step in range(iterations):
                with tracer.span("core.step", trace=f"step-{step}"):
                    seconds, _ = timed(self.optimizer.step)
                self.step_ms.append(seconds * 1e3)
        self.events = self.lines = 0
        if observed:
            events = config.telemetry.sink.events
            stream = io.StringIO()
            sink = JsonlSink(stream)
            with tracer.span("obs.export"):
                for event in events:
                    sink.emit(event)
                sink.close()
            self.events = len(events)
            self.lines = stream.getvalue().count("\n")
            events.clear()
        self.wall_s = time.perf_counter() - started
        self.utilities = list(self.optimizer.utilities)


def _reference_failures(problem: Any) -> list[str]:
    """The first iterations of the vectorized engine against the reference."""
    reference = LRGP(problem, engine="reference")
    vectorized = LRGP(problem, engine="vectorized")
    failures = []
    for step in range(1, CHECK_ITERATIONS + 1):
        expected = reference.step().utility
        actual = vectorized.step().utility
        if not math.isclose(actual, expected, rel_tol=RTOL):
            failures.append(f"step {step}: utility {actual!r} vs reference {expected!r}")
        want, got = reference.allocation(), vectorized.allocation()
        if got.populations != want.populations:
            failures.append(f"step {step}: populations differ from the reference")
        if any(not math.isclose(got.rates[f], rate, rel_tol=RTOL) for f, rate in want.rates.items()):
            failures.append(f"step {step}: rates differ from the reference")
    return failures


class SolveChecks:
    """Checks every solve of a run against the run's first solve and the
    model's own objective; observed solves also against telemetry off."""

    def __init__(self, problem: Any, observed: bool) -> None:
        self.problem = problem
        self.observed = observed
        self.first: Solve | None = None
        # Telemetry must never change the iterate, so the observed
        # trajectory equals the unobserved one bit for bit.
        self.unobserved = (
            Solve(problem, observed=False).utilities[:OBSERVED_ITERATIONS] if observed else None
        )

    def failures(self, solve: Solve) -> list[str]:
        failures = []
        if self.first is None:
            self.first = solve
        if solve.utilities != self.first.utilities:
            failures.append("utility trajectory differs from the run's first solve")
        objective = total_utility(self.problem, solve.optimizer.allocation())
        if not math.isclose(solve.utilities[-1], objective, rel_tol=RTOL):
            failures.append(f"reported utility {solve.utilities[-1]!r} != total_utility {objective!r}")
        if self.observed:
            if solve.utilities != self.unobserved:
                failures.append("telemetry changed the utility trajectory")
            if solve.events == 0 or solve.events != self.first.events:
                failures.append(f"captured {solve.events} events, first solve {self.first.events}")
            if solve.lines != solve.events:
                failures.append(f"{solve.lines} JSONL lines for {solve.events} events")
        return failures


def measure(seconds: float, observed: bool) -> Measurement:
    """The untraced run.  There is no seed: the fabric is fixed."""
    checks = Checks()
    solve_checks = SolveChecks(workload_from_spec(FABRIC_SPEC), observed)
    setup: list[float] = []
    walls: list[float] = []
    steps: list[float] = []
    for index in window(seconds):
        # Set-up is sampled before every solve, so spread through the run.
        # Building allocates enough to trigger full collections, so each
        # sample starts from a collected heap: garbage the previous solve
        # left is not charged to it.
        for _ in range(SETUPS_PER_SOLVE):
            gc.collect()
            build, problem = timed(lambda: workload_from_spec(FABRIC_SPEC))
            bind, _ = timed(lambda: LRGP(problem, _config(observed)))
            setup.append(build + bind)
        solve = Solve(problem, observed)
        if checks.record(f"solve {index}", solve_checks.failures(solve)):
            walls.append(solve.wall_s)
            steps.extend(solve.step_ms)
        solve.optimizer = None  # release the engine before the next bind
    peak = peak_rss_mb()
    if not observed:
        checks.record("reference trajectory", _reference_failures(solve_checks.problem))
    report = {
        "setup_s_p50": (median(setup), "s"),
        "solve_s": (median(walls), "s"),
        "step_ms_p50": (median(steps), "ms"),
        "solves": (len(walls), "count"),
    }
    if len(steps) >= 200:
        report["step_ms_p95"] = (p95(steps), "ms")
    return Measurement(
        metrics={
            "setup_s": (min(setup), "s"),
            "unit_ms_min": (min(steps), "ms"),
            "peak_rss_mb": (peak, "MB"),
        },
        checks=checks,
        report=report,
    )


def traced_fabric(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], float, float, Checks]:
    """Per-layer numbers of ``fabric-1k``: one untraced solve, then one in
    spans with the phase profiler on (events stay off).  Returns (metrics,
    tracing overhead, untraced step p50 in ms, checks)."""
    checks = Checks()
    problem = workload_from_spec(FABRIC_SPEC)
    solve_checks = SolveChecks(problem, observed=False)
    untraced = Solve(problem, observed=False)
    checks.record("untraced solve", solve_checks.failures(untraced))

    profiler = PhaseProfiler()
    telemetry = Telemetry(registry=NULL_REGISTRY, sink=NULL_SINK, enabled=False, profiler=profiler)
    config = LRGPConfig(engine="vectorized", telemetry=telemetry)
    with tracer.span("fabric-1k", trace="fabric-1k"):
        with tracer.span("workloads.build"):
            problem = workload_from_spec(FABRIC_SPEC)
        with tracer.span("core.lower"):
            compiled = compile_problem(problem)
        traced = Solve(problem, observed=False, tracer=tracer, config=config)
    checks.record("traced solve", solve_checks.failures(traced))
    checks.record("reference trajectory", _reference_failures(problem))

    report = profiler.report()
    iteration = report.find("iteration")
    per_step = {
        name: report.find(f"iteration.{name}").self_wall_ns / 1e6 / iteration.calls
        for name in ("argmax", "admission", "price_update")
    }
    # LRGP(...) lowers again inside its bind (the profiler's ``lower``
    # phase); bind's own cost is the rest of the span.
    bind_s = tracer.seconds("core.bind")[-1] - report.find("lower").wall_ns / 1e9
    converged = traced.optimizer.convergence_iteration()
    metrics = {
        "workloads.build_s": (tracer.seconds("workloads.build")[-1], "s"),
        "core.lower_s": (tracer.seconds("core.lower")[-1], "s"),
        "core.bind_s": (bind_s, "s"),
        "core.incidence_bytes": (float(compiled.sparse_nbytes()), "bytes"),
        "core.step.argmax_ms": (per_step["argmax"], "ms"),
        "core.step.admission_ms": (per_step["admission"], "ms"),
        "core.step.price_update_ms": (per_step["price_update"], "ms"),
        "core.step.self_ms": (iteration.self_wall_ns / 1e6 / iteration.calls, "ms"),
        "core.step_ms_p95": (p95(untraced.step_ms), "ms"),
        # Never stable within the budget reads as budget + 1.
        "core.converged_at": (float(converged or ITERATIONS + 1), "count"),
    }
    return metrics, traced.wall_s - untraced.wall_s, median(untraced.step_ms), checks


def traced_observed(
    tracer: Tracer, fabric_step_ms: float
) -> tuple[dict[str, tuple[float, str]], float, Checks]:
    """Per-layer numbers of ``fabric-1k-observed``: one untraced observed
    solve and one in spans.  Returns (metrics, tracing overhead, checks)."""
    checks = Checks()
    problem = workload_from_spec(FABRIC_SPEC)
    solve_checks = SolveChecks(problem, observed=True)
    untraced = Solve(problem, observed=True)
    checks.record("untraced observed solve", solve_checks.failures(untraced))
    with tracer.span("fabric-1k-observed", trace="fabric-1k-observed"):
        traced = Solve(problem, observed=True, tracer=tracer)
    checks.record("traced observed solve", solve_checks.failures(traced))
    metrics = {
        "obs.events_per_step": (traced.events / OBSERVED_ITERATIONS, "count"),
        "obs.export_s": (tracer.seconds("obs.export")[-1], "s"),
        "obs.overhead_ratio": (median(untraced.step_ms) / fabric_step_ms, "ratio"),
    }
    return metrics, traced.wall_s - untraced.wall_s, checks
