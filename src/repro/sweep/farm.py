"""The experiment farm: execute sweep cells, in-process or fanned out.

:func:`execute_run` is the one cell runner — a module-level function on
pure-data :class:`RunConfig` input so it pickles into
:class:`~concurrent.futures.ProcessPoolExecutor` workers unchanged.
Plain cells go through the :func:`repro.solve.solve` front door; cells
with a ``fault_plan`` instead drive the asynchronous runtime under a
seeded :class:`~repro.runtime.faults.FaultPlan` (the ``repro chaos``
protocol) and report fault-recovery metrics.

The produced payload separates *computed* content (``"result"``,
``"metrics"`` — bit-equal across re-executions for deterministic
methods) from *measured* content (``"timing"``), so a cached cell and a
fresh cell compare equal where equality is meaningful.  With
``capture=True`` a cell additionally runs under a fresh
:class:`~repro.obs.telemetry.Telemetry` bundle and ships the compact
telemetry payload (:mod:`repro.sweep.telemetry`) home under a third,
equally volatile ``"telemetry"`` section — ``"result"``/``"metrics"``
stay bit-identical with capture on or off.

:func:`run_sweep` is cache-first: expand the grid, look every cell up in
the :class:`~repro.sweep.cache.ResultCache`, execute only the misses
(``jobs<=1`` runs inline — no pool overhead, picklability not required),
and store fresh results before returning the grid-ordered
:class:`SweepResult`.  Parallel misses are collected with
:func:`~concurrent.futures.as_completed` and reassembled into grid
order, so progress is observable as it happens (``monitor=``, the
``repro sweep run --live`` stream) and one raising cell no longer
aborts the grid: it becomes a structured *failed cell* in the result
(uncached, so a re-run retries it) instead of an exception out of
``executor.map`` that discards every other cell's work.  Each
invocation is recorded in the cache's append-only run ledger
(:mod:`repro.sweep.ledger`) unless ``ledger=False``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core.gamma import FixedGamma
from repro.obs import Telemetry
from repro.solve import solve
from repro.sweep.cache import ResultCache
from repro.sweep.ledger import RunLedger, ledger_record
from repro.sweep.live import SweepProgress
from repro.sweep.spec import RunConfig, SweepSpec, parse_gamma_policy
from repro.sweep.telemetry import capture_bundle, telemetry_payload
from repro.workloads.registry import workload_from_spec

if TYPE_CHECKING:
    from repro.model.problem import Problem
    from repro.runtime.asynchronous import AsynchronousRuntime

__all__ = [
    "SweepCell",
    "SweepResult",
    "execute_run",
    "plan_sweep",
    "run_chaos",
    "run_sweep",
]

#: Methods whose ``seed=`` option reaches a stochastic optimizer; the
#: deterministic families ignore the seed axis (cells differing only in
#: seed still cache separately — the config is the identity).
_SEEDED_METHODS = frozenset({"annealing", "hill_climb", "random_search"})

#: Methods whose optimizer config carries a ``telemetry`` field the farm
#: can thread a capture bundle through.  ``multirate``'s config has no
#: telemetry slot and the search-based methods take no config at all —
#: those cells still profile the ``cell`` root phase, just without
#: optimizer-interior metrics.
_TELEMETRY_METHODS = frozenset({"lrgp", "two_stage"})


def _solve_options(
    config: RunConfig, telemetry: Telemetry | None = None
) -> dict[str, Any]:
    """Translate the cell's gamma policy / seed into ``solve`` options."""
    options: dict[str, Any] = {}
    kind, step = parse_gamma_policy(config.gamma)
    if kind == "fixed":
        assert step is not None
        if config.method == "multirate":
            from repro.core.multirate import MultirateConfig

            options["config"] = MultirateConfig(node_gamma=FixedGamma(step))
        else:
            from repro.core.lrgp import LRGPConfig

            options["config"] = LRGPConfig(node_gamma=FixedGamma(step))
    if telemetry is not None and config.method in _TELEMETRY_METHODS:
        from repro.core.lrgp import LRGPConfig

        lrgp_config = options.get("config")
        if lrgp_config is None:
            lrgp_config = LRGPConfig()
        options["config"] = replace(lrgp_config, telemetry=telemetry)
    if config.method in _SEEDED_METHODS:
        options["seed"] = config.seed
    return options


def _solve_payload(
    config: RunConfig, telemetry: Telemetry | None = None
) -> dict[str, Any]:
    problem = workload_from_spec(config.workload)
    result = solve(
        problem,
        method=config.method,
        engine=config.engine,
        iterations=config.iterations,
        **_solve_options(config, telemetry),
    )
    return {
        "kind": "solve",
        "result": result.canonical_dict(),
        "metrics": {
            "utility": result.utility,
            "iterations": result.iterations,
            "converged_at": result.converged_at,
            "engine": result.engine,
        },
        "timing": {"solve_seconds": result.wall_time_seconds},
    }


def run_chaos(
    problem: Problem,
    seed: int,
    horizon: float,
    plan_params: Mapping[str, Any],
    telemetry: Telemetry | None = None,
) -> tuple[dict[str, Any], AsynchronousRuntime]:
    """The ``repro chaos`` protocol, shared by the CLI and fault cells.

    A seeded :meth:`~repro.runtime.faults.FaultPlan.random` plan (built
    from ``plan_params``) drives a faulted asynchronous run; a fault-free
    baseline then runs with the same seed.  Returns the fault cell's
    ``result`` section and the faulted runtime (for its recoveries).
    """
    from repro.events.reliability import RetryPolicy
    from repro.runtime.asynchronous import AsyncConfig, AsynchronousRuntime
    from repro.runtime.faults import FaultPlan

    plan = FaultPlan.random(problem, seed=seed, horizon=horizon, **plan_params)
    runtime = AsynchronousRuntime(
        problem,
        AsyncConfig(seed=seed),
        fault_plan=plan,
        retry=RetryPolicy(),
        # The faulted run is the subject; the fault-free baseline below
        # runs untelemetered so capture measures one run, not two.
        **({} if telemetry is None else {"telemetry": telemetry}),
    )
    runtime.run_until(horizon)
    baseline = AsynchronousRuntime(problem, AsyncConfig(seed=seed))
    baseline.run_until(horizon)
    result: dict[str, Any] = {
        "horizon": horizon,
        "utility": runtime.converged_utility(),
        "baseline_utility": baseline.converged_utility(),
        "plan": {
            "crashes": len(plan.crashes),
            "partitions": len(plan.partitions),
            "storms": len(plan.storms),
            "checkpoint_interval": plan.checkpoint_interval,
        },
        "counters": {
            "messages_sent": runtime.messages_sent,
            "messages_lost": runtime.messages_lost,
            "messages_stale": runtime.messages_stale,
            "messages_to_down": runtime.messages_to_down,
            "messages_partitioned": runtime.messages_partitioned,
            "retransmissions": runtime.retransmissions,
            "retries_abandoned": runtime.retries_abandoned,
        },
    }
    return result, runtime


def _fault_payload(
    config: RunConfig, telemetry: Telemetry | None = None
) -> dict[str, Any]:
    """Run the cell under its fault plan (:func:`run_chaos`).

    *Retention* is faulted converged utility over baseline converged
    utility — the cell's headline fault-recovery metric.
    """
    assert config.fault_plan is not None
    plan_params = dict(config.fault_plan)
    horizon = plan_params.pop("horizon", 400.0)
    result, runtime = run_chaos(
        workload_from_spec(config.workload),
        config.seed,
        horizon,
        plan_params,
        telemetry,
    )
    utility = result["utility"]
    reference = result["baseline_utility"]
    recovery_times = [record.recovery_time for record in runtime.recoveries]
    return {
        "kind": "fault",
        "result": result,
        "metrics": {
            "utility": utility,
            "retention": (utility / reference) if reference else None,
            "recoveries": len(recovery_times),
            "mean_recovery_time": (
                sum(recovery_times) / len(recovery_times)
                if recovery_times
                else None
            ),
        },
        "timing": {},
    }


def execute_run(config: RunConfig, capture: bool = False) -> dict[str, Any]:
    """Execute one cell; return its JSON-ready payload.

    Module-level and pure-data in/out: this is the function worker
    processes import and run.  Everything under ``"result"`` and
    ``"metrics"`` is deterministic for the config (given a deterministic
    method); ``"timing"`` is measured and varies run to run.

    ``capture=True`` runs the cell under a fresh telemetry bundle (every
    cell gets its own ``cell`` root phase, LRGP-family cells additionally
    thread the bundle into the optimizer) and attaches the compact
    telemetry payload under ``"telemetry"`` — a third volatile section
    next to ``"timing"``; ``"result"`` and ``"metrics"`` are bit-identical
    either way.
    """
    started = time.perf_counter()
    telemetry = capture_bundle() if capture else None
    if telemetry is None:
        payload = (
            _fault_payload(config)
            if config.fault_plan is not None
            else _solve_payload(config)
        )
    else:
        # One uniform root phase so farm-merged trees always stack under
        # ``cell`` regardless of method or fault plan.
        with telemetry.profiler.phase("cell"):
            payload = (
                _fault_payload(config, telemetry)
                if config.fault_plan is not None
                else _solve_payload(config, telemetry)
            )
        payload["telemetry"] = telemetry_payload(telemetry)
    payload["label"] = config.label()
    payload["timing"]["wall_time_seconds"] = time.perf_counter() - started
    return payload


def _failure_payload(
    config: RunConfig, error: BaseException, seconds: float
) -> dict[str, Any]:
    """The structured failed-cell payload (never cached)."""
    return {
        "kind": "error",
        "error": {"type": type(error).__name__, "message": str(error)},
        "result": None,
        "metrics": {},
        "timing": {"wall_time_seconds": seconds},
        "label": config.label(),
    }


def _run_cell(task: tuple[RunConfig, bool]) -> dict[str, Any]:
    """Pool-facing wrapper: a raising cell becomes a failed payload.

    An exception out of a worker would otherwise surface from the
    future and abort the sweep, discarding every completed cell's work;
    catching here keeps the grid going and the failure attributable.
    """
    config, capture = task
    started = time.perf_counter()
    try:
        return execute_run(config, capture=capture)
    except Exception as error:  # noqa: BLE001 — any cell failure is data
        return _failure_payload(
            config, error, time.perf_counter() - started
        )


@dataclass(frozen=True)
class SweepCell:
    """One grid cell's outcome: its config, cache key, and payload."""

    config: RunConfig
    key: str
    cached: bool
    payload: dict[str, Any]

    @property
    def label(self) -> str:
        return self.config.label()

    @property
    def metrics(self) -> dict[str, Any]:
        metrics = self.payload.get("metrics")
        return dict(metrics) if isinstance(metrics, dict) else {}

    @property
    def utility(self) -> float | None:
        value = self.metrics.get("utility")
        return float(value) if isinstance(value, (int, float)) else None

    @property
    def failed(self) -> bool:
        """True when the cell raised instead of producing a result."""
        return self.payload.get("kind") == "error"

    @property
    def error(self) -> dict[str, Any] | None:
        """The ``{"type", "message"}`` record of a failed cell."""
        error = self.payload.get("error")
        return dict(error) if isinstance(error, dict) else None

    @property
    def status(self) -> str:
        """``"failed"`` | ``"ok"`` — the report's status column."""
        return "failed" if self.failed else "ok"


@dataclass(frozen=True)
class SweepResult:
    """An executed sweep: cells in grid order plus farm bookkeeping."""

    cells: tuple[SweepCell, ...]
    jobs: int
    wall_time_seconds: float
    #: Corrupt cache entries encountered (each re-executed and repaired).
    corrupt_entries: int = 0
    #: Whether cells ran under per-cell telemetry capture.
    capture: bool = False

    @property
    def hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def executed(self) -> int:
        return sum(1 for cell in self.cells if not cell.cached)

    @property
    def failed(self) -> int:
        return sum(1 for cell in self.cells if cell.failed)

    def __len__(self) -> int:
        return len(self.cells)


def _as_configs(
    spec: SweepSpec | Sequence[RunConfig],
) -> tuple[RunConfig, ...]:
    if isinstance(spec, SweepSpec):
        return spec.expand()
    return tuple(spec)


def plan_sweep(
    spec: SweepSpec | Sequence[RunConfig],
    cache: ResultCache | None = None,
    force: bool = False,
) -> tuple[tuple[RunConfig, str, str], ...]:
    """The ``--dry-run`` view: (config, key, status) per cell, in grid
    order, where status is ``"hit"``, ``"miss"`` or ``"forced"`` (cached
    but ``--force`` will re-execute it)."""
    cache = cache if cache is not None else ResultCache()
    plan: list[tuple[RunConfig, str, str]] = []
    for config in _as_configs(spec):
        key = cache.key_for(config)
        entry = cache.get(key)
        if entry is None:
            status = "miss"
        else:
            status = "forced" if force else "hit"
        plan.append((config, key, status))
    return tuple(plan)


def _cell_seconds(payload: dict[str, Any]) -> float:
    timing = payload.get("timing")
    seconds = (
        timing.get("wall_time_seconds") if isinstance(timing, dict) else None
    )
    return float(seconds) if isinstance(seconds, (int, float)) else 0.0


def run_sweep(
    spec: SweepSpec | Sequence[RunConfig],
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    capture: bool = False,
    monitor: Callable[[dict[str, Any]], None] | None = None,
    ledger: bool = True,
) -> SweepResult:
    """Run the grid, cache-first; return cells in grid order.

    ``jobs<=1`` executes misses inline in this process; ``jobs>1`` fans
    them out over a :class:`ProcessPoolExecutor`, collecting futures
    with :func:`as_completed` and reassembling by grid index — completion
    order drives the ``monitor`` event stream, grid order the result.
    ``force`` re-executes every cell, overwriting its cache entry.

    A cell that raises becomes a *failed cell* (``SweepCell.failed``)
    instead of aborting the sweep; failed cells are never cached, so the
    next run retries them.  ``capture=True`` runs every executed cell
    under per-cell telemetry (see :func:`execute_run`).  ``ledger=False``
    skips the append to the cache's run ledger.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cache = cache if cache is not None else ResultCache()
    configs = _as_configs(spec)
    corrupt_before = cache.corrupt_hits
    started = time.perf_counter()

    cells: list[SweepCell | None] = [None] * len(configs)
    pending: list[tuple[int, RunConfig, str]] = []
    for index, config in enumerate(configs):
        key = cache.key_for(config)
        entry = None if force else cache.get(key)
        if entry is not None:
            cells[index] = SweepCell(
                config=config, key=key, cached=True, payload=entry["payload"]
            )
        else:
            pending.append((index, config, key))

    progress = (
        SweepProgress(total=len(configs), jobs=jobs, emit=monitor)
        if monitor is not None
        else None
    )
    if progress is not None:
        progress.sweep_started(pending=len(pending))
        for index, cell in enumerate(cells):
            if cell is not None:
                progress.cell_finished(
                    index=index,
                    label=cell.label,
                    key=cell.key,
                    cached=True,
                    failed=False,
                    seconds=0.0,
                )

    def finish(index: int, config: RunConfig, key: str, payload: dict[str, Any]) -> None:
        if payload.get("kind") != "error":
            cache.put(key, config, payload)
        cells[index] = SweepCell(
            config=config, key=key, cached=False, payload=payload
        )
        if progress is not None:
            progress.cell_finished(
                index=index,
                label=config.label(),
                key=key,
                cached=False,
                failed=payload.get("kind") == "error",
                seconds=_cell_seconds(payload),
            )

    if pending:
        if jobs == 1 or len(pending) == 1:
            for index, config, key in pending:
                finish(index, config, key, _run_cell((config, capture)))
        else:
            workers = min(jobs, len(pending))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_run_cell, (config, capture)): (
                        index,
                        config,
                        key,
                    )
                    for index, config, key in pending
                }
                for future in as_completed(futures):
                    index, config, key = futures[future]
                    try:
                        payload = future.result()
                    except Exception as error:  # noqa: BLE001
                        # Pool-level failure (worker died, unpicklable
                        # return): same structured entry as an in-cell
                        # exception, just without a measured duration.
                        payload = _failure_payload(config, error, 0.0)
                    finish(index, config, key, payload)

    done = [cell for cell in cells if cell is not None]
    assert len(done) == len(configs)
    wall_time = time.perf_counter() - started
    result = SweepResult(
        cells=tuple(done),
        jobs=jobs,
        wall_time_seconds=wall_time,
        corrupt_entries=cache.corrupt_hits - corrupt_before,
        capture=capture,
    )
    if progress is not None:
        progress.sweep_finished(wall_time_seconds=wall_time)
    if ledger:
        RunLedger(cache.root).append(
            ledger_record(result, configs, capture=capture)
        )
    return result
