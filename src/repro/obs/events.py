"""Typed trace events: the structured counterpart of the CSV dump.

Every interesting internal transition of the optimizer, the runtimes and
the event simulator maps to exactly one event type:

===============  ============================================================
``iteration``    one completed LRGP iteration / runtime round / async sample
``price_update`` one application of eq. 12 (node) or eq. 13 (link)
``gamma_step``   one adaptive step-size adjustment (section 4.2)
``admission``    one greedy consumer allocation at one node (Algorithm 2)
``message``      one protocol or pub/sub message handled by an engine
``agent_exchange`` one agent activation (messages emitted per ``act()``)
``fault_injected`` one scheduled fault taking effect (crash/partition/storm)
``agent_restarted`` one crashed agent rejoining (checkpoint or cold state)
===============  ============================================================

Events are frozen dataclasses with a ``kind`` tag and a monotonic
timestamp (``t_ns``, from :func:`time.monotonic_ns`) so downstream tools
can order and interval-time them without trusting wall clocks.  They
serialize losslessly through ``to_dict`` / :func:`event_from_dict` (the
JSONL sink round-trips every type bit-for-bit) and flatten to stable
column names for the CSV sink via ``flatten``.

Schema versions (:data:`TRACE_SCHEMA_VERSION`):

* **v1** (PR 2/PR 4) — the base event vocabulary above.
* **v2** (PR 5) — adds *optional* causal-tracing context
  (``trace_id``/``span_id``/``parent_span_id`` on ``message`` and
  ``agent_exchange``), simulated-time stamps (``at`` on ``iteration``
  and ``message``) and the deployed-state payloads the replay engine
  consumes (``rate``/``price``/``populations`` on ``agent_exchange``
  and ``agent_restarted``).  Every new field defaults to ``None``, so
  :func:`event_from_dict` still parses any v1 JSONL capture, and v1
  readers that ignore unknown keys keep working on the flat CSV form
  (optional fields are flattened only when present).
* **v3** — adds the ``columnar_step`` record
  (:class:`ColumnarStepEvent`): the vectorized engine reports one
  iteration's eq. 12 node updates, Algorithm 2 admissions and eq. 13
  link updates as arrays keyed by the compiled id vocabularies, instead
  of one ``gamma_step``/``price_update``/``admission`` event per
  resource.  :func:`expand` turns a record back into exactly those v2
  events, so every reader that wants the per-resource grain gets it;
  v1/v2 captures parse unchanged.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterable, Iterator
from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Union

import numpy as np
from numpy.typing import NDArray

from repro.utility.tolerance import is_zero

#: Version of the trace event schema written by :class:`JsonlSink`
#: captures.  Bumped to 2 by the causal-tracing fields and to 3 by the
#: columnar ``columnar_step`` record; v1 and v2 captures parse unchanged
#: — see the module docstring.
TRACE_SCHEMA_VERSION = 3


def now_ns() -> int:
    """Monotonic timestamp for event stamping (ns, unrelated to wall time)."""
    return time.monotonic_ns()


class TraceEventError(ValueError):
    """Raised when deserializing a malformed or unknown event payload."""


@dataclass(frozen=True)
class _Event:
    """Shared machinery: serialization, flattening, the kind tag."""

    kind: ClassVar[str] = ""

    #: v2 optional fields: flattened only when present, so pre-causal CSV
    #: column sets (and the pinned ``core.trace`` header) stay stable.
    _OPTIONAL: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable payload; ``type`` carries the kind tag."""
        payload: dict[str, Any] = {"type": self.kind}
        payload.update(asdict(self))
        return payload

    def flatten(self) -> dict[str, Any]:
        """Flat scalar mapping for CSV export.

        Nested mappings become ``field:key`` columns; subclasses override
        to pin documented column names (see :class:`IterationEvent`).
        Fields listed in ``_OPTIONAL`` are omitted while ``None``.
        """
        flat: dict[str, Any] = {"type": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.name in self._OPTIONAL:
                continue
            if isinstance(value, dict):
                for key, item in value.items():
                    flat[f"{spec.name}:{key}"] = item
            else:
                flat[spec.name] = value
        return flat


@dataclass(frozen=True)
class IterationEvent(_Event):
    """End of one optimizer iteration (or runtime round / async sample).

    The snapshot mappings are ``None`` unless the emitter runs with
    snapshot recording on (``LRGPConfig(record_snapshots=True)`` or the
    ``repro trace`` CLI); the light event is just (iteration, utility).
    """

    kind: ClassVar[str] = "iteration"

    iteration: int
    utility: float
    t_ns: int
    rates: dict[str, float] | None = None
    populations: dict[str, int] | None = None
    node_prices: dict[str, float] | None = None
    link_prices: dict[str, float] | None = None
    gammas: dict[str, float] | None = None
    slack: dict[str, float] | None = None
    #: Simulated/engine time of the sample (async runtime clock, rounds
    #: for the synchronous runtime); ``None`` for the reference driver.
    at: float | None = None

    #: CSV column prefixes, matching the documented ``core.trace`` order.
    _PREFIXES: ClassVar[tuple[tuple[str, str], ...]] = (
        ("rates", "rate"),
        ("populations", "n"),
        ("node_prices", "node_price"),
        ("link_prices", "link_price"),
        ("gammas", "gamma"),
        ("slack", "slack"),
    )

    def flatten(self) -> dict[str, Any]:
        flat: dict[str, Any] = {
            "type": self.kind,
            "iteration": self.iteration,
            "utility": self.utility,
            "t_ns": self.t_ns,
        }
        if self.at is not None:
            flat["at"] = self.at
        for field_name, prefix in self._PREFIXES:
            mapping = getattr(self, field_name)
            for key, value in (mapping or {}).items():
                flat[f"{prefix}:{key}"] = value
        return flat


@dataclass(frozen=True)
class PriceUpdateEvent(_Event):
    """One price-controller update (eq. 12 for nodes, eq. 13 for links).

    ``branch`` names the path taken: ``track`` (damped BC tracking),
    ``violation`` (capacity-violation ascent) or ``gradient`` (link
    gradient projection).  ``usage``/``capacity`` expose the constraint
    operand so diagnostics can compute eq. 4/5 slack without re-deriving
    it from the model.
    """

    kind: ClassVar[str] = "price_update"

    resource_kind: str  # "node" | "link"
    resource: str
    old_price: float
    new_price: float
    step: float  # the gamma actually applied
    branch: str  # "track" | "violation" | "gradient"
    t_ns: int
    usage: float | None = None
    capacity: float | None = None


@dataclass(frozen=True)
class GammaStepEvent(_Event):
    """One adaptive step-size change (section 4.2 heuristic)."""

    kind: ClassVar[str] = "gamma_step"

    resource: str
    old_gamma: float
    new_gamma: float
    fluctuated: bool
    t_ns: int


@dataclass(frozen=True)
class AdmissionEvent(_Event):
    """One greedy consumer allocation at one node (Algorithm 2, step 2)."""

    kind: ClassVar[str] = "admission"

    node: str
    admitted: dict[str, int]
    used: float
    capacity: float
    best_ratio: float
    t_ns: int


@dataclass(frozen=True)
class MessageEvent(_Event):
    """One protocol/pub-sub message handled by an engine.

    ``latency`` is in the emitting engine's time base: simulated time for
    the asynchronous runtime and the event simulator, ``None`` for the
    synchronous runtime's instantaneous barrier delivery.

    The v2 causal fields mirror the context carried by the message
    itself (:class:`repro.runtime.messages.Message`): ``span_id`` is the
    message's own span, ``parent_span_id`` the emitting activation span,
    and ``at`` the simulated delivery time.  All ``None`` when the
    emitter runs without causal tracing (v1 captures, event simulator).
    """

    kind: ClassVar[str] = "message"

    _OPTIONAL: ClassVar[tuple[str, ...]] = (
        "at",
        "trace_id",
        "span_id",
        "parent_span_id",
    )

    sender: str
    recipient: str
    payload: str
    t_ns: int
    latency: float | None = None
    at: float | None = None
    trace_id: str | None = None
    span_id: str | None = None
    parent_span_id: str | None = None


@dataclass(frozen=True)
class AgentExchangeEvent(_Event):
    """One agent activation: who acted, in which role, how much it sent.

    v2 adds two optional payload groups:

    * **causal context** — ``span_id`` is the activation span allocated
      by the runtime's :class:`~repro.obs.causal.CausalContext`;
      ``parent_span_id`` the span of the last message whose delivery fed
      this agent's state (the recorded causal parent; the graph builder
      recovers the full join from delivery order).
    * **deployed state** — the agent-local state *after* this activation
      (``rate`` for sources, ``price`` for node/link agents,
      ``populations`` for node agents), which is exactly what the replay
      engine needs to re-materialize global state at any event index.
    """

    kind: ClassVar[str] = "agent_exchange"

    _OPTIONAL: ClassVar[tuple[str, ...]] = (
        "trace_id",
        "span_id",
        "parent_span_id",
        "rate",
        "price",
        "populations",
    )

    agent: str
    role: str  # "source" | "node" | "link"
    sent: int
    stamp: float
    t_ns: int
    trace_id: str | None = None
    span_id: str | None = None
    parent_span_id: str | None = None
    rate: float | None = None
    price: float | None = None
    populations: dict[str, int] | None = None


@dataclass(frozen=True)
class FaultInjectedEvent(_Event):
    """One scheduled fault taking effect in a fault-injecting runtime.

    ``fault`` names the kind: ``crash``, ``partition``, ``partition_heal``,
    ``delay_storm`` or ``delay_storm_end``.  ``target`` is the affected
    agent address (crashes) or a ``+``-joined address group (partitions);
    ``at`` is the simulated time the fault fired.
    """

    kind: ClassVar[str] = "fault_injected"

    fault: str
    target: str
    at: float
    t_ns: int


@dataclass(frozen=True)
class AgentRestartedEvent(_Event):
    """One crashed agent rejoining the protocol.

    ``downtime`` is simulated time spent down; ``from_checkpoint`` tells
    whether the agent resumed from its last checkpoint or from cold state.

    v2 adds the restarted agent's *restored* local state (checkpointed or
    cold), mirroring the ``agent_exchange`` payload: without it a trace
    replay could not track state across a restart, because the restored
    values come from a checkpoint that never appears in the event stream.
    """

    kind: ClassVar[str] = "agent_restarted"

    _OPTIONAL: ClassVar[tuple[str, ...]] = ("rate", "price", "populations")

    agent: str
    at: float
    downtime: float
    from_checkpoint: bool
    t_ns: int
    rate: float | None = None
    price: float | None = None
    populations: dict[str, int] | None = None


#: Payload key -> array dtype of the :class:`ColumnarStepEvent` columns.
_COLUMNS: dict[str, type] = {
    "node_old_price": np.float64,
    "node_new_price": np.float64,
    "node_gamma": np.float64,
    "node_new_gamma": np.float64,
    "node_fluctuated": np.bool_,
    "node_used": np.float64,
    "node_capacity": np.float64,
    "node_best_ratio": np.float64,
    "populations": np.int64,
    "class_node": np.int64,
    "link_old_price": np.float64,
    "link_new_price": np.float64,
    "link_usage": np.float64,
    "link_capacity": np.float64,
}
#: Id vocabulary -> the columns positioned on it.
_AXES: dict[str, tuple[str, ...]] = {
    "node_ids": tuple(name for name in _COLUMNS if name.startswith("node_"))
    + ("node_branch",),
    "class_ids": ("populations", "class_node"),
    "link_ids": tuple(name for name in _COLUMNS if name.startswith("link_")),
}


@dataclass(frozen=True, eq=False)
class ColumnarStepEvent(_Event):
    """One vectorized-engine iteration as columns (trace schema v3).

    Every ``node_*`` array is positioned on ``node_ids``, every
    ``link_*`` array on ``link_ids`` and ``populations`` / ``class_node``
    on ``class_ids``.  The engine passes its compiled vocabularies and
    static arrays (capacities, ``class_node``) by reference, so a record
    costs a handful of array references, not one object per resource.

    * eq. 12 — ``node_old_price`` -> ``node_new_price`` with step
      ``node_gamma`` on branch ``node_branch`` (``track``/``violation``),
      operand ``node_used`` against ``node_capacity``; the section 4.2
      schedule moved γ to ``node_new_gamma`` (``node_fluctuated`` is its
      fluctuation test).
    * Algorithm 2 — ``populations`` admitted per class, hosted at node
      ``class_node``; each node's ``node_used`` and ``node_best_ratio``
      (``BC(b,t)``).
    * eq. 13 — ``link_old_price`` -> ``link_new_price`` with the fixed
      step ``link_step``, operand ``link_usage`` against
      ``link_capacity``.

    :func:`expand` turns a record into the per-resource events it
    replaces.  Equality compares the arrays bit for bit.
    """

    kind: ClassVar[str] = "columnar_step"
    #: The v2 event kinds a record expands into.
    EXPANDS_TO: ClassVar[frozenset[str]] = frozenset(
        {"gamma_step", "price_update", "admission"}
    )

    t_ns: int
    node_ids: tuple[str, ...]
    link_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    node_old_price: NDArray[np.float64]
    node_new_price: NDArray[np.float64]
    node_gamma: NDArray[np.float64]
    node_new_gamma: NDArray[np.float64]
    node_fluctuated: NDArray[np.bool_]
    node_branch: tuple[str, ...]
    node_used: NDArray[np.float64]
    node_capacity: NDArray[np.float64]
    node_best_ratio: NDArray[np.float64]
    populations: NDArray[np.int64]
    class_node: NDArray[np.int64]
    link_step: float
    link_old_price: NDArray[np.float64]
    link_new_price: NDArray[np.float64]
    link_usage: NDArray[np.float64]
    link_capacity: NDArray[np.float64]

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"type": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            payload[spec.name] = (
                value.tolist() if isinstance(value, np.ndarray) else value
            )
        return payload

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "ColumnarStepEvent":
        """Inverse of :meth:`to_dict` (minus the ``type`` tag): lists
        become typed arrays and every column is checked against its
        vocabulary's length."""
        try:
            values = dict(data)
            for name in ("node_ids", "link_ids", "class_ids", "node_branch"):
                values[name] = tuple(values[name])
            for name, dtype in _COLUMNS.items():
                values[name] = np.array(values[name], dtype=dtype)
            event = cls(**values)
        except (KeyError, TypeError, ValueError) as error:
            raise TraceEventError(f"malformed {cls.kind!r} event: {error}") from error
        for ids_name, columns in _AXES.items():
            size = len(getattr(event, ids_name))
            for name in columns:
                column = getattr(event, name)
                if len(column) != size:
                    raise TraceEventError(
                        f"malformed {cls.kind!r} event: {name} has "
                        f"{len(column)} entries for {size} {ids_name}"
                    )
        hosts = event.class_node
        if hosts.size and not (0 <= hosts.min() and hosts.max() < len(event.node_ids)):
            raise TraceEventError(
                f"malformed {cls.kind!r} event: class_node points outside node_ids"
            )
        return event

    def flatten(self) -> dict[str, Any]:
        raise TraceEventError(
            f"a {self.kind!r} record has no single CSV row; expand() it "
            "into per-resource events first"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarStepEvent):
            return NotImplemented
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, np.ndarray):
                if not (
                    isinstance(theirs, np.ndarray)
                    and mine.dtype == theirs.dtype
                    and mine.shape == theirs.shape
                    and mine.tobytes() == theirs.tobytes()
                ):
                    return False
            elif mine != theirs:
                return False
        return True

    __hash__ = None  # type: ignore[assignment]


TraceEvent = Union[
    IterationEvent,
    PriceUpdateEvent,
    GammaStepEvent,
    AdmissionEvent,
    MessageEvent,
    AgentExchangeEvent,
    FaultInjectedEvent,
    AgentRestartedEvent,
    ColumnarStepEvent,
]

#: kind tag -> event class, the dispatch table for deserialization.
EVENT_TYPES: dict[str, type[_Event]] = {
    cls.kind: cls
    for cls in (
        IterationEvent,
        PriceUpdateEvent,
        GammaStepEvent,
        AdmissionEvent,
        MessageEvent,
        AgentExchangeEvent,
        FaultInjectedEvent,
        AgentRestartedEvent,
        ColumnarStepEvent,
    )
}


def event_from_dict(payload: dict[str, Any]) -> TraceEvent:
    """Inverse of ``to_dict``: rebuild the typed event from a payload.

    Raises :class:`TraceEventError` on unknown kinds or field mismatches
    so a corrupted JSONL line fails loudly, not as a half-parsed event.
    """
    data = dict(payload)
    tag = data.pop("type", None)
    cls = EVENT_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise TraceEventError(f"unknown event type {tag!r}")
    if cls is ColumnarStepEvent:
        return ColumnarStepEvent.from_payload(data)
    try:
        return cls(**data)  # type: ignore[return-value]
    except TypeError as error:
        raise TraceEventError(f"malformed {tag!r} event: {error}") from error


def expand(event: TraceEvent) -> list[TraceEvent]:
    """The per-resource events one event stands for, in emission order.

    A :class:`ColumnarStepEvent` becomes the v2 events the vectorized
    engine emitted before schema v3: per node its ``gamma_step`` (when γ
    moved) and eq. 12 ``price_update``, then one ``admission`` per node,
    then one eq. 13 ``price_update`` per link.  Every field equals the v2
    event's bit for bit; all share the record's ``t_ns``.  Any other
    event is returned as the only element.
    """
    if not isinstance(event, ColumnarStepEvent):
        return [event]
    t_ns = event.t_ns
    node_ids = event.node_ids
    old_price = event.node_old_price.tolist()
    new_price = event.node_new_price.tolist()
    gamma = event.node_gamma.tolist()
    new_gamma = event.node_new_gamma.tolist()
    fluctuated = event.node_fluctuated.tolist()
    used = event.node_used.tolist()
    capacity = event.node_capacity.tolist()
    out: list[TraceEvent] = []
    for b, node in enumerate(node_ids):
        if not is_zero(new_gamma[b] - gamma[b]):
            out.append(
                GammaStepEvent(
                    resource=node,
                    old_gamma=gamma[b],
                    new_gamma=new_gamma[b],
                    fluctuated=fluctuated[b],
                    t_ns=t_ns,
                )
            )
        out.append(
            PriceUpdateEvent(
                resource_kind="node",
                resource=node,
                old_price=old_price[b],
                new_price=new_price[b],
                step=gamma[b],
                branch=event.node_branch[b],
                t_ns=t_ns,
                usage=used[b],
                capacity=capacity[b],
            )
        )
    members: list[list[int]] = [[] for _ in node_ids]
    for j, b in enumerate(event.class_node.tolist()):
        members[b].append(j)
    class_ids = event.class_ids
    counts = event.populations.tolist()
    best = event.node_best_ratio.tolist()
    for b, node in enumerate(node_ids):
        out.append(
            AdmissionEvent(
                node=node,
                admitted={class_ids[j]: counts[j] for j in members[b]},
                used=used[b],
                capacity=capacity[b],
                best_ratio=best[b],
                t_ns=t_ns,
            )
        )
    step = event.link_step
    for link, old, new, usage, cap in zip(
        event.link_ids,
        event.link_old_price.tolist(),
        event.link_new_price.tolist(),
        event.link_usage.tolist(),
        event.link_capacity.tolist(),
    ):
        out.append(
            PriceUpdateEvent(
                resource_kind="link",
                resource=link,
                old_price=old,
                new_price=new,
                step=step,
                branch="gradient",
                t_ns=t_ns,
                usage=usage,
                capacity=cap,
            )
        )
    return out


def expand_stream(events: Iterable[TraceEvent]) -> Iterator[TraceEvent]:
    """A stream with every columnar record :func:`expand`-ed in place."""
    for event in events:
        yield from expand(event)


def select(
    events: Iterable[TraceEvent], kinds: Collection[str] | None
) -> Iterator[TraceEvent]:
    """The events whose kind is in ``kinds``, in order (all when ``None``).

    A columnar record is kept whole when ``columnar_step`` is asked for
    (or ``kinds`` is ``None``); otherwise it contributes the per-resource
    events it :func:`expand`-s into whose kind is asked for.
    """
    for event in events:
        if kinds is None or event.kind in kinds:
            yield event
        elif isinstance(
            event, ColumnarStepEvent
        ) and not ColumnarStepEvent.EXPANDS_TO.isdisjoint(kinds):
            yield from (item for item in expand(event) if item.kind in kinds)
