"""The telemetry handle threaded through optimizer, runtimes and simulator.

One :class:`Telemetry` object bundles the two halves of the layer — a
:class:`~repro.obs.registry.MetricsRegistry` (numbers) and a
:class:`~repro.obs.sinks.TraceSink` (events) — so instrumented code takes
a single optional dependency.  The module-level :data:`NULL_TELEMETRY`
is the default everywhere: its registry hands out no-op singletons and
its ``emit`` discards, so the uninstrumented fast path stays
allocation-free (callers guard event *construction* behind
``telemetry.enabled``).

The reference engine's price controllers and γ schedules are
instrumented through :class:`PriceProbe` — a tiny bound emitter attached
per resource, so the controllers never learn about problems, node ids or
registries.  The vectorized engine attaches no probes: it emits one
:class:`~repro.obs.events.ColumnarStepEvent` per iteration instead.
"""

from __future__ import annotations

from repro.obs.events import (
    GammaStepEvent,
    PriceUpdateEvent,
    TraceEvent,
    now_ns,
)
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.sinks import MemorySink, NullSink, TraceSink


class Telemetry:
    """A registry + sink (+ optional profiler) bundle handed through the stack.

    ``Telemetry()`` is the convenient "collect everything in memory"
    configuration used by tests and the CLI; pass an explicit sink
    (JSONL, CSV) for archival capture.  ``profiler`` defaults to the
    no-op :data:`~repro.obs.profile.NULL_PROFILER`; pass a
    :class:`~repro.obs.profile.PhaseProfiler` to collect the hierarchical
    phase breakdown (``repro profile`` does).
    """

    __slots__ = ("registry", "sink", "enabled", "profiler")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: TraceSink | None = None,
        enabled: bool = True,
        profiler: PhaseProfiler | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink if sink is not None else MemorySink()
        self.enabled = enabled
        self.profiler = profiler if profiler is not None else NULL_PROFILER

    def emit(self, event: TraceEvent) -> None:
        self.sink.emit(event)

    def probe(self, resource_kind: str, resource: str) -> "PriceProbe | None":
        """A bound per-resource probe, or ``None`` when disabled.

        The ``None`` return is the zero-cost path: controllers guard on
        ``if self.probe is not None`` and skip event construction
        entirely.
        """
        if not self.enabled:
            return None
        return PriceProbe(self, resource_kind, resource)

    def close(self) -> None:
        self.sink.close()


class _NullTelemetry(Telemetry):
    """The disabled default: shared no-op registry, discarding sink."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(
            registry=NULL_REGISTRY,
            sink=NullSink(),
            enabled=False,
            profiler=NULL_PROFILER,
        )

    def emit(self, event: TraceEvent) -> None:
        pass


NULL_TELEMETRY: Telemetry = _NullTelemetry()


class PriceProbe:
    """Per-resource emitter attached to one price controller / γ schedule.

    Bound to ``(resource_kind, resource)`` at attach time so the hot
    update path only supplies the numbers it already has in registers.
    """

    __slots__ = ("_telemetry", "resource_kind", "resource")

    def __init__(self, telemetry: Telemetry, resource_kind: str, resource: str) -> None:
        self._telemetry = telemetry
        self.resource_kind = resource_kind
        self.resource = resource

    def price_update(
        self,
        old_price: float,
        new_price: float,
        step: float,
        branch: str,
        usage: float | None = None,
        capacity: float | None = None,
    ) -> None:
        """Record one eq. 12/13 application (called by the controllers)."""
        self._telemetry.emit(
            PriceUpdateEvent(
                resource_kind=self.resource_kind,
                resource=self.resource,
                old_price=old_price,
                new_price=new_price,
                step=step,
                branch=branch,
                usage=usage,
                capacity=capacity,
                t_ns=now_ns(),
            )
        )
        self._telemetry.registry.counter(
            f"prices.updates.{self.resource_kind}"
        ).inc()

    def gamma_step(self, old_gamma: float, new_gamma: float, fluctuated: bool) -> None:
        """Record one adaptive step-size change (section 4.2)."""
        self._telemetry.emit(
            GammaStepEvent(
                resource=self.resource,
                old_gamma=old_gamma,
                new_gamma=new_gamma,
                fluctuated=fluctuated,
                t_ns=now_ns(),
            )
        )
        if fluctuated:
            self._telemetry.registry.counter("gamma.fluctuations").inc()
