"""``repro.obs.causal`` — span-based causal tracing for the LRGP runtimes.

LRGP converges through *chains* of messages: a link price update changes
a source's rate, the new rate changes a node's admission and price, and
so on until the utility trajectory stabilizes (section 4.3).  The flat
event stream of :mod:`repro.obs` records each hop but not the chain;
this module adds the chain.

Two halves:

* **Context propagation** (:class:`CausalContext`, :class:`ActivationSpan`)
  — a deterministic span-id allocator the runtimes thread through agents
  and messages.  Every agent activation opens a span whose parent is the
  span of the last message that fed the agent's state; every emitted
  message gets its own span parented on the emitting activation.  The
  ids are sequential, so a seeded run produces a bit-identical capture
  (no entropy — lint rule R1 applies here as everywhere).
* **Reconstruction** (:class:`CausalGraph`) — rebuilds the event DAG
  from any recorded stream (``MemorySink`` buffer, JSONL capture) and
  answers the two §4.3 questions the flat stream cannot:

  - :meth:`CausalGraph.critical_path` — the chain of activations and
    message deliveries that carried the run from its first event to the
    first stable iteration, with per-hop elapsed time.  The total is, by
    construction, exactly the measured time-to-stability: the path
    decomposes *where* that time went (which agent waited, which message
    crawled through a delay storm).
  - :meth:`CausalGraph.blame` — per-resource attribution of utility
    regressions to price oscillations: every utility *drop* between
    consecutive iteration samples is split over the resources whose
    prices reversed direction in that interval, weighted by the
    magnitude of the reversing step (the §4.2 fluctuation signal).

Like the rest of the obs layer this module imports nothing from
``repro.core`` / ``repro.runtime`` — the runtimes import *it*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.events import (
    AgentExchangeEvent,
    IterationEvent,
    MessageEvent,
    PriceUpdateEvent,
    TraceEvent,
    expand_stream,
)
from repro.utility.stability import (
    CONVERGENCE_REL_AMPLITUDE,
    CONVERGENCE_WINDOW,
)

__all__ = [
    "ActivationSpan",
    "CausalContext",
    "CausalGraph",
    "CriticalHop",
    "CriticalPath",
    "ResourceBlame",
    "Span",
    "render_causal_report",
]


# ---------------------------------------------------------------------------
# context propagation (used live by the runtimes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivationSpan:
    """Causal context of one agent activation.

    Runtimes attach one to the agent (``agent.causal``) immediately
    before calling ``act()``; the agent copies it into the
    ``agent_exchange`` event it emits.
    """

    trace_id: str
    span_id: str
    parent_span_id: str | None


class CausalContext:
    """Deterministic span allocator + per-agent causal bookkeeping.

    One instance per traced run.  Span ids are sequential
    (``s00000001``, ``s00000002``, ...) in allocation order, so a seeded
    run reproduces the same ids — determinism the replay engine and the
    regression tests rely on.
    """

    __slots__ = ("trace_id", "_counter", "_last_cause", "_active")

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self._counter = 0
        #: address -> span id of the last message delivered to the agent.
        self._last_cause: dict[str, str] = {}
        #: address -> span id of the agent's current/most recent activation.
        self._active: dict[str, str] = {}

    def allocate(self) -> str:
        """Next sequential span id."""
        self._counter += 1
        return f"s{self._counter:08d}"

    def begin_activation(self, address: str) -> ActivationSpan:
        """Open the span for one activation of ``address``.

        The parent is the span of the last message delivered to the
        agent — the most recent write into the state ``act()`` is about
        to consume.  ``None`` for a cold agent (root span).
        """
        span = ActivationSpan(
            trace_id=self.trace_id,
            span_id=self.allocate(),
            parent_span_id=self._last_cause.get(address),
        )
        self._active[address] = span.span_id
        return span

    def message_context(self, sender: str) -> tuple[str, str | None]:
        """``(span_id, parent_span_id)`` for one outgoing message.

        Each message gets its own span, parented on the sender's current
        activation span.
        """
        return self.allocate(), self._active.get(sender)

    def record_delivery(self, recipient: str, span_id: str | None) -> None:
        """Note that a message span just landed at ``recipient``."""
        if span_id:
            self._last_cause[recipient] = span_id


# ---------------------------------------------------------------------------
# reconstruction (offline, from any recorded stream)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One node of the reconstructed causal DAG."""

    span_id: str
    kind: str  # "activation" | "message"
    #: Acting agent (activations) or recipient (messages).
    agent: str
    parent_span_id: str | None
    #: Simulated-time end of the span: activation stamp, or delivery time.
    at: float
    #: Position of the backing event in the capture (a topological order:
    #: parents are always recorded before their children).
    index: int
    sender: str | None = None  # message spans only
    payload: str | None = None  # message spans only
    latency: float = 0.0  # message spans: simulated transit time

    def describe(self) -> str:
        if self.kind == "message":
            return f"{self.payload or 'message'} {self.sender} -> {self.agent}"
        return f"activation {self.agent}"


@dataclass(frozen=True)
class CriticalHop:
    """One step of the critical path with the elapsed time it explains."""

    span: Span
    #: Simulated time elapsed between the previous hop's end and this
    #: span's end (the wait this hop is responsible for).
    wait: float


@dataclass(frozen=True)
class CriticalPath:
    """The latency chain ending at the first stable iteration.

    ``total_latency`` = sum of hop waits + ``closing_wait`` (the gap
    between the last span on the path and the stable sample).  By
    construction it equals ``time_to_stability`` exactly — the path is a
    lossless decomposition of the time the run took to stabilize.
    """

    hops: tuple[CriticalHop, ...]
    #: Simulated time of the iteration sample that closed the first
    #: stable window (§4.3 criterion).
    stable_at: float
    #: 1-based index of that iteration sample.
    stable_iteration: int
    #: Simulated time of the first span in the capture.
    start: float
    #: Gap between the last hop and the stable sample.
    closing_wait: float

    @property
    def total_latency(self) -> float:
        return sum(hop.wait for hop in self.hops) + self.closing_wait

    @property
    def time_to_stability(self) -> float:
        return self.stable_at - self.start

    def by_agent(self) -> dict[str, float]:
        """Path wait aggregated per agent address, descending."""
        totals: dict[str, float] = {}
        for hop in self.hops:
            totals[hop.span.agent] = totals.get(hop.span.agent, 0.0) + hop.wait
        return dict(
            sorted(totals.items(), key=lambda item: (-item[1], item[0]))
        )


@dataclass(frozen=True)
class ResourceBlame:
    """Utility loss attributed to one resource's price oscillations."""

    resource: str  # "node:S0" | "link:uplink"
    #: Price-delta sign reversals observed for this resource (§4.2).
    oscillations: int
    #: Total price updates observed for this resource.
    updates: int
    #: Sum of utility drops attributed to this resource's reversals.
    blame: float
    #: ``blame`` as a fraction of all attributed utility loss.
    share: float


class CausalGraph:
    """The event DAG reconstructed from a recorded trace.

    Nodes are spans (agent activations and message deliveries); edges
    are the recorded parent links plus the *join* edges recovered from
    delivery order: every message delivered to an agent between two of
    its activations is a causal input of the later activation (the
    event carries only the last one — the others are implied by the
    per-agent delivery sequence, which the capture preserves).
    """

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self._spans: dict[str, Span] = {}
        self._parents: dict[str, tuple[str, ...]] = {}
        self._utilities: list[float] = []
        self._iteration_times: list[float] = []
        #: (interval index, resource key, price delta) per price update,
        #: where the interval index is the number of iteration samples
        #: already seen — the attribution bucket for :meth:`blame`.
        self._price_deltas: list[tuple[int, str, float]] = []
        self._events = 0
        pending: dict[str, list[str]] = {}

        # Columnar records count as the per-resource events they stand for.
        for index, event in enumerate(expand_stream(events)):
            self._events += 1
            if isinstance(event, AgentExchangeEvent):
                if event.span_id is None:
                    continue
                joins = pending.pop(event.agent, [])
                parents = tuple(
                    dict.fromkeys(
                        ([event.parent_span_id] if event.parent_span_id else [])
                        + joins
                    )
                )
                self._add_span(
                    Span(
                        span_id=event.span_id,
                        kind="activation",
                        agent=event.agent,
                        parent_span_id=event.parent_span_id,
                        at=event.stamp,
                        index=index,
                    ),
                    parents,
                )
            elif isinstance(event, MessageEvent):
                if event.span_id is None:
                    continue
                at = event.at if event.at is not None else 0.0
                parents = (
                    (event.parent_span_id,) if event.parent_span_id else ()
                )
                self._add_span(
                    Span(
                        span_id=event.span_id,
                        kind="message",
                        agent=event.recipient,
                        parent_span_id=event.parent_span_id,
                        at=at,
                        index=index,
                        sender=event.sender,
                        payload=event.payload,
                        latency=event.latency or 0.0,
                    ),
                    parents,
                )
                pending.setdefault(event.recipient, []).append(event.span_id)
            elif isinstance(event, IterationEvent):
                self._utilities.append(event.utility)
                self._iteration_times.append(
                    event.at if event.at is not None else float(event.iteration)
                )
            elif isinstance(event, PriceUpdateEvent):
                key = f"{event.resource_kind}:{event.resource}"
                self._price_deltas.append(
                    (len(self._utilities), key, event.new_price - event.old_price)
                )

    def _add_span(self, span: Span, parents: tuple[str, ...]) -> None:
        self._spans[span.span_id] = span
        # Drop dangling parent references (e.g. a capture that was
        # filtered or truncated at the front) instead of KeyError-ing
        # every downstream query.
        self._parents[span.span_id] = tuple(
            parent for parent in parents if parent in self._spans
        )

    # -- structure ----------------------------------------------------------

    @property
    def spans(self) -> dict[str, Span]:
        """All spans, keyed by span id (insertion = capture order)."""
        return dict(self._spans)

    @property
    def events_seen(self) -> int:
        """Total events consumed (spans or not)."""
        return self._events

    @property
    def iterations(self) -> int:
        """Iteration samples observed."""
        return len(self._utilities)

    def parents(self, span_id: str) -> tuple[Span, ...]:
        """Causal inputs of one span (recorded parent + joins)."""
        return tuple(
            self._spans[parent] for parent in self._parents.get(span_id, ())
        )

    def roots(self) -> list[Span]:
        """Spans with no causal input (cold activations)."""
        return [
            span
            for span_id, span in self._spans.items()
            if not self._parents.get(span_id)
        ]

    def span_of_event(self, index: int) -> Span | None:
        """The span backed by the event at ``index``, if any."""
        for span in self._spans.values():
            if span.index == index:
                return span
        return None

    # -- critical path ------------------------------------------------------

    def stable_iteration(
        self,
        window: int = CONVERGENCE_WINDOW,
        rel_amplitude: float = CONVERGENCE_REL_AMPLITUDE,
    ) -> int | None:
        """1-based iteration sample closing the first stable window.

        The same sliding-window criterion as the optimizer and the
        diagnostics (§4.3): peak-to-peak utility amplitude over the
        trailing ``window`` samples at most ``rel_amplitude`` of the
        window mean.
        """
        values = self._utilities
        for end in range(window, len(values) + 1):
            tail = values[end - window : end]
            mean = sum(tail) / window
            spread = max(tail) - min(tail)
            if abs(mean) <= 0.0:
                if spread <= 0.0:
                    return end
                continue
            if spread / abs(mean) <= rel_amplitude:
                return end
        return None

    def critical_path(
        self,
        window: int = CONVERGENCE_WINDOW,
        rel_amplitude: float = CONVERGENCE_REL_AMPLITUDE,
    ) -> CriticalPath | None:
        """Longest-latency chain ending at the first stable iteration.

        Walks backwards from the last span that ends at or before the
        stable sample, always stepping to the *latest-arriving* causal
        input — the classic critical-path rule: the input that arrived
        last is the one the span actually waited for.  Ties break on the
        recorded (primary) parent, then on capture order, so the path is
        deterministic.

        Returns ``None`` when the utility never stabilizes or the
        capture carries no causal spans (a v1 trace).
        """
        stable = self.stable_iteration(window, rel_amplitude)
        if stable is None or not self._spans:
            return None
        stable_at = self._iteration_times[stable - 1]
        eligible = [span for span in self._spans.values() if span.at <= stable_at]
        if not eligible:
            return None
        start = min(span.at for span in self._spans.values())
        # The span the stable sample observed last: latest end, then
        # latest capture position.
        tail = max(eligible, key=lambda span: (span.at, span.index))

        chain: list[Span] = [tail]
        seen = {tail.span_id}
        current = tail
        while True:
            inputs = self.parents(current.span_id)
            candidates = [span for span in inputs if span.span_id not in seen]
            if not candidates:
                break
            current = max(
                candidates,
                key=lambda span: (
                    span.at,
                    span.span_id == chain[-1].parent_span_id,
                    span.index,
                ),
            )
            chain.append(current)
            seen.add(current.span_id)
        chain.reverse()

        hops: list[CriticalHop] = []
        previous_end = start
        for span in chain:
            hops.append(CriticalHop(span=span, wait=span.at - previous_end))
            previous_end = span.at
        return CriticalPath(
            hops=tuple(hops),
            stable_at=stable_at,
            stable_iteration=stable,
            start=start,
            closing_wait=stable_at - tail.at,
        )

    # -- blame attribution --------------------------------------------------

    def blame(self) -> tuple[list[ResourceBlame], float]:
        """Split utility drops over oscillating resources.

        For every pair of consecutive iteration samples with a utility
        *drop*, the lost utility is attributed to the resources whose
        price reversed direction in that interval (a §4.2 fluctuation),
        proportionally to the magnitude of the reversing step.  Returns
        the per-resource attribution (descending by blame) plus the
        utility loss in intervals where *no* price reversed — drops the
        price signal cannot explain (admission flips, faults).
        """
        reversals: dict[int, dict[str, float]] = {}
        oscillations: dict[str, int] = {}
        updates: dict[str, int] = {}
        last_delta: dict[str, float] = {}
        for interval, key, delta in self._price_deltas:
            updates[key] = updates.get(key, 0) + 1
            previous = last_delta.get(key, 0.0)
            if delta * previous < 0.0:
                oscillations[key] = oscillations.get(key, 0) + 1
                bucket = reversals.setdefault(interval, {})
                bucket[key] = bucket.get(key, 0.0) + abs(delta)
            if delta != 0.0:  # exact: prices are projected iterates
                last_delta[key] = delta

        blame: dict[str, float] = {}
        unattributed = 0.0
        for sample in range(1, len(self._utilities)):
            drop = self._utilities[sample - 1] - self._utilities[sample]
            if drop <= 0.0:
                continue
            bucket = reversals.get(sample, {})
            weight = sum(bucket.values())
            if weight <= 0.0:
                unattributed += drop
                continue
            for key, magnitude in bucket.items():
                blame[key] = blame.get(key, 0.0) + drop * magnitude / weight

        total = sum(blame.values())
        report = [
            ResourceBlame(
                resource=key,
                oscillations=oscillations.get(key, 0),
                updates=updates.get(key, 0),
                blame=blame.get(key, 0.0),
                share=(blame.get(key, 0.0) / total) if total > 0.0 else 0.0,
            )
            for key in sorted(
                updates, key=lambda key: (-blame.get(key, 0.0), key)
            )
        ]
        return report, unattributed

    # -- reporting ----------------------------------------------------------

    def to_dict(
        self,
        window: int = CONVERGENCE_WINDOW,
        rel_amplitude: float = CONVERGENCE_REL_AMPLITUDE,
    ) -> dict[str, Any]:
        """JSON-ready causal report (``repro trace causal --json``)."""
        path = self.critical_path(window, rel_amplitude)
        blames, unattributed = self.blame()
        payload: dict[str, Any] = {
            "events": self._events,
            "spans": len(self._spans),
            "roots": len(self.roots()),
            "iterations": len(self._utilities),
            "unattributed_loss": unattributed,
            "blame": [
                {
                    "resource": entry.resource,
                    "oscillations": entry.oscillations,
                    "updates": entry.updates,
                    "blame": entry.blame,
                    "share": entry.share,
                }
                for entry in blames
            ],
        }
        if path is None:
            payload["critical_path"] = None
        else:
            payload["critical_path"] = {
                "stable_iteration": path.stable_iteration,
                "stable_at": path.stable_at,
                "start": path.start,
                "time_to_stability": path.time_to_stability,
                "total_latency": path.total_latency,
                "closing_wait": path.closing_wait,
                "by_agent": path.by_agent(),
                "hops": [
                    {
                        "span_id": hop.span.span_id,
                        "kind": hop.span.kind,
                        "agent": hop.span.agent,
                        "sender": hop.span.sender,
                        "payload": hop.span.payload,
                        "at": hop.span.at,
                        "wait": hop.wait,
                    }
                    for hop in path.hops
                ],
            }
        return payload


def render_causal_report(
    graph: CausalGraph,
    window: int = CONVERGENCE_WINDOW,
    rel_amplitude: float = CONVERGENCE_REL_AMPLITUDE,
    max_hops: int = 20,
) -> str:
    """Human-readable causal report (the ``repro trace causal`` output)."""
    lines = [
        f"causal graph: {len(graph.spans)} span(s) over "
        f"{graph.events_seen} event(s), {len(graph.roots())} root(s), "
        f"{graph.iterations} iteration sample(s)"
    ]
    path = graph.critical_path(window, rel_amplitude)
    if path is None:
        lines.append(
            "critical path: n/a (utility not stable, or capture has no "
            "causal spans — re-record with a PR-5 runtime)"
        )
    else:
        lines.append(
            f"critical path: {len(path.hops)} hop(s), total latency "
            f"{path.total_latency:g} = time-to-stability "
            f"{path.time_to_stability:g} (stable at iteration "
            f"{path.stable_iteration}, t={path.stable_at:g})"
        )
        shown = path.hops[-max_hops:]
        if len(path.hops) > len(shown):
            lines.append(f"  ... {len(path.hops) - len(shown)} earlier hop(s)")
        for hop in shown:
            lines.append(
                f"  +{hop.wait:8.3f}  t={hop.span.at:10.3f}  "
                f"{hop.span.describe()}"
            )
        lines.append(f"  +{path.closing_wait:8.3f}  stable sample")
        top = list(path.by_agent().items())[:5]
        if top:
            lines.append(
                "  path time by agent: "
                + ", ".join(f"{agent} {wait:g}" for agent, wait in top)
            )
    blames, unattributed = graph.blame()
    if blames:
        lines.append("blame attribution (utility loss from price oscillations):")
        for entry in blames:
            lines.append(
                f"  {entry.resource}: {entry.blame:,.2f} ({entry.share:.1%}) "
                f"over {entry.oscillations} oscillation(s) / "
                f"{entry.updates} update(s)"
            )
        lines.append(f"  unattributed (no price reversal): {unattributed:,.2f}")
    else:
        lines.append("blame attribution: no price updates in capture")
    return "\n".join(lines)
