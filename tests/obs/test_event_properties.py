"""Property tests: every event type survives every sink, exactly.

Hypothesis generates arbitrary well-formed instances of all registered
``EVENT_TYPES`` — causal/state fields and columnar records included — and
checks that the JSONL sink round-trips them bit-for-bit (a columnar
record's arrays too), the memory sink preserves them by identity, and the
CSV sink renders every flattened cell through the one shared formatting
rule (a columnar record as the rows of its expanded events).  Non-finite
floats must be *rejected* at the serialization boundary, not smuggled
into a capture as ``NaN`` tokens no strict JSON parser will read back.
"""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    EVENT_TYPES,
    AdmissionEvent,
    AgentExchangeEvent,
    AgentRestartedEvent,
    ColumnarStepEvent,
    FaultInjectedEvent,
    GammaStepEvent,
    IterationEvent,
    MessageEvent,
    PriceUpdateEvent,
    TraceEventError,
    event_from_dict,
    expand,
    expand_stream,
)
from repro.obs.sinks import JsonlSink, MemorySink, format_cell, read_jsonl, render_csv

# -- strategies -------------------------------------------------------------

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789:_-.",
    min_size=1,
    max_size=12,
)
finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
timestamps = st.integers(min_value=0, max_value=2**62)
counts = st.integers(min_value=0, max_value=10**6)
span_ids = st.none() | identifiers
float_maps = st.none() | st.dictionaries(identifiers, finite, max_size=4)
int_maps = st.none() | st.dictionaries(identifiers, counts, max_size=4)

iteration_events = st.builds(
    IterationEvent,
    iteration=counts,
    utility=finite,
    t_ns=timestamps,
    rates=float_maps,
    populations=int_maps,
    node_prices=float_maps,
    link_prices=float_maps,
    gammas=float_maps,
    slack=float_maps,
    at=st.none() | finite,
)
price_events = st.builds(
    PriceUpdateEvent,
    resource_kind=st.sampled_from(["node", "link"]),
    resource=identifiers,
    old_price=finite,
    new_price=finite,
    step=finite,
    branch=st.sampled_from(["track", "violation", "gradient"]),
    t_ns=timestamps,
    usage=st.none() | finite,
    capacity=st.none() | finite,
)
gamma_events = st.builds(
    GammaStepEvent,
    resource=identifiers,
    old_gamma=finite,
    new_gamma=finite,
    fluctuated=st.booleans(),
    t_ns=timestamps,
)
admission_events = st.builds(
    AdmissionEvent,
    node=identifiers,
    admitted=st.dictionaries(identifiers, counts, max_size=4),
    used=finite,
    capacity=finite,
    best_ratio=finite,
    t_ns=timestamps,
)
message_events = st.builds(
    MessageEvent,
    sender=identifiers,
    recipient=identifiers,
    payload=identifiers,
    t_ns=timestamps,
    latency=st.none() | finite,
    at=st.none() | finite,
    trace_id=span_ids,
    span_id=span_ids,
    parent_span_id=span_ids,
)
exchange_events = st.builds(
    AgentExchangeEvent,
    agent=identifiers,
    role=st.sampled_from(["source", "node", "link"]),
    sent=counts,
    stamp=finite,
    t_ns=timestamps,
    trace_id=span_ids,
    span_id=span_ids,
    parent_span_id=span_ids,
    rate=st.none() | finite,
    price=st.none() | finite,
    populations=int_maps,
)
fault_events = st.builds(
    FaultInjectedEvent,
    fault=st.sampled_from(["crash", "partition", "delay_storm"]),
    target=identifiers,
    at=finite,
    t_ns=timestamps,
)
restart_events = st.builds(
    AgentRestartedEvent,
    agent=identifiers,
    at=finite,
    downtime=finite,
    from_checkpoint=st.booleans(),
    t_ns=timestamps,
    rate=st.none() | finite,
    price=st.none() | finite,
    populations=int_maps,
)



@st.composite
def columnar_events(draw):
    """A well-formed record: every column as long as its vocabulary."""
    n_nodes = draw(st.integers(min_value=0, max_value=4))
    n_links = draw(st.integers(min_value=0, max_value=4))
    n_classes = draw(st.integers(min_value=0, max_value=6)) if n_nodes else 0

    def ids(size):
        return tuple(draw(st.lists(identifiers, min_size=size, max_size=size, unique=True)))

    def floats(size):
        return np.array(draw(st.lists(finite, min_size=size, max_size=size)), dtype=np.float64)

    def ints(size, top):
        values = st.integers(min_value=0, max_value=top)
        return np.array(draw(st.lists(values, min_size=size, max_size=size)), dtype=np.int64)

    return ColumnarStepEvent(
        t_ns=draw(timestamps),
        node_ids=ids(n_nodes),
        link_ids=ids(n_links),
        class_ids=ids(n_classes),
        node_old_price=floats(n_nodes),
        node_new_price=floats(n_nodes),
        node_gamma=floats(n_nodes),
        node_new_gamma=floats(n_nodes),
        node_fluctuated=np.array(
            draw(st.lists(st.booleans(), min_size=n_nodes, max_size=n_nodes)), dtype=np.bool_
        ),
        node_branch=tuple(
            draw(
                st.lists(
                    st.sampled_from(["track", "violation"]), min_size=n_nodes, max_size=n_nodes
                )
            )
        ),
        node_used=floats(n_nodes),
        node_capacity=floats(n_nodes),
        node_best_ratio=floats(n_nodes),
        populations=ints(n_classes, 10**6),
        class_node=ints(n_classes, max(n_nodes - 1, 0)),
        link_step=draw(finite),
        link_old_price=floats(n_links),
        link_new_price=floats(n_links),
        link_usage=floats(n_links),
        link_capacity=floats(n_links),
    )


BY_KIND = {
    "iteration": iteration_events,
    "price_update": price_events,
    "gamma_step": gamma_events,
    "admission": admission_events,
    "message": message_events,
    "agent_exchange": exchange_events,
    "fault_injected": fault_events,
    "agent_restarted": restart_events,
    "columnar_step": columnar_events(),
}

any_event = st.one_of(*BY_KIND.values())
event_batches = st.lists(any_event, min_size=1, max_size=8)


def test_strategies_cover_every_registered_type():
    assert set(BY_KIND) == set(EVENT_TYPES)


# -- round-trip properties --------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(event=any_event)
def test_dict_round_trip_is_lossless(event):
    assert event_from_dict(event.to_dict()) == event


@settings(max_examples=60, deadline=None)
@given(events=event_batches)
def test_jsonl_sink_round_trips_batches(events):
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    for event in events:
        sink.emit(event)
    sink.close()
    assert list(read_jsonl(io.StringIO(buffer.getvalue()))) == events


@settings(max_examples=60, deadline=None)
@given(events=event_batches)
def test_jsonl_lines_are_strict_json(events):
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    for event in events:
        sink.emit(event)
    for line in buffer.getvalue().splitlines():
        payload = json.loads(line)  # strict: would reject NaN tokens
        assert payload["type"] in EVENT_TYPES


@settings(max_examples=60, deadline=None)
@given(events=event_batches)
def test_memory_sink_preserves_order_and_identity(events):
    sink = MemorySink()
    for event in events:
        sink.emit(event)
    assert sink.events == events
    # A columnar record stands for the per-resource events it expands to.
    flat = [item for event in events for item in expand(event)]
    for kind in {event.kind for event in events + flat}:
        source = flat if kind in ColumnarStepEvent.EXPANDS_TO else events
        assert sink.of_kind(kind) == [e for e in source if e.kind == kind]


@settings(max_examples=40, deadline=None)
@given(events=event_batches)
def test_csv_sink_renders_every_flattened_cell(events):
    rows = list(csv.DictReader(io.StringIO(render_csv(events))))
    flat_events = list(expand_stream(events))
    assert len(rows) == len(flat_events)
    for event, row in zip(flat_events, rows):
        flat = event.flatten()
        for key, value in flat.items():
            assert row[key] == format_cell(value)
        # Columns the union schema added for *other* events stay empty.
        for key in set(row) - set(flat):
            assert row[key] == ""


@settings(max_examples=80, deadline=None)
@given(value=finite)
def test_float_cells_round_trip_exactly(value):
    cell = format_cell(value)
    assert float(cell) == value or (math.isnan(value) and math.isnan(float(cell)))


# -- non-finite rejection ---------------------------------------------------

non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=30, deadline=None)
@given(bad=non_finite, utility=finite)
def test_jsonl_sink_rejects_non_finite_payloads(bad, utility):
    event = IterationEvent(iteration=1, utility=utility, t_ns=1, rates={"fa": bad})
    sink = JsonlSink(io.StringIO())
    with pytest.raises(TraceEventError, match="non-finite"):
        sink.emit(event)


@settings(max_examples=30, deadline=None)
@given(bad=non_finite)
def test_jsonl_sink_rejects_non_finite_causal_stamps(bad):
    event = MessageEvent("a", "b", "RateUpdate", t_ns=1, latency=bad, at=bad)
    sink = JsonlSink(io.StringIO())
    with pytest.raises(TraceEventError, match="non-finite"):
        sink.emit(event)


@settings(max_examples=40, deadline=None)
@given(record=columnar_events(), bad=non_finite, data=st.data())
def test_jsonl_sink_rejects_non_finite_columns(record, bad, data):
    columns = [
        name
        for name in ColumnarStepEvent.__dataclass_fields__
        if isinstance(getattr(record, name), np.ndarray)
        and getattr(record, name).dtype == np.float64
        and getattr(record, name).size
    ]
    assume(columns)
    name = data.draw(st.sampled_from(columns))
    column = getattr(record, name).copy()
    column[data.draw(st.integers(min_value=0, max_value=column.size - 1))] = bad
    sink = JsonlSink(io.StringIO())
    with pytest.raises(TraceEventError, match="non-finite"):
        sink.emit(dataclasses.replace(record, **{name: column}))


@settings(max_examples=60, deadline=None)
@given(record=columnar_events())
def test_columnar_arrays_round_trip_bit_equal(record):
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    sink.emit(record)
    (parsed,) = read_jsonl(io.StringIO(buffer.getvalue()))
    for name in ColumnarStepEvent.__dataclass_fields__:
        mine, theirs = getattr(record, name), getattr(parsed, name)
        if isinstance(mine, np.ndarray):
            assert theirs.dtype == mine.dtype
            assert theirs.tobytes() == mine.tobytes(), name
        else:
            assert theirs == mine, name


@settings(max_examples=60, deadline=None)
@given(record=columnar_events())
def test_columnar_expands_node_link_admission_in_engine_order(record):
    events = expand(record)
    kinds = [(event.kind, getattr(event, "resource_kind", None)) for event in events]
    n_nodes, n_links = len(record.node_ids), len(record.link_ids)
    node_updates = [k for k in kinds if k == ("price_update", "node")]
    assert len(node_updates) == n_nodes
    assert kinds.count(("admission", None)) == n_nodes
    assert kinds[len(kinds) - n_links:] == [("price_update", "link")] * n_links
    # Node updates (with their γ steps) come first, then admissions.
    first_admission = kinds.index(("admission", None)) if n_nodes else len(kinds) - n_links
    assert all(k[0] != "admission" for k in kinds[:first_admission])
    assert all(event.t_ns == record.t_ns for event in events)
    admitted = {}
    for event in events:
        if isinstance(event, AdmissionEvent):
            admitted.update(event.admitted)
    assert admitted == dict(zip(record.class_ids, record.populations.tolist()))


def test_columnar_payload_length_mismatch_is_rejected():
    record = ColumnarStepEvent(
        t_ns=1,
        node_ids=("S",),
        link_ids=(),
        class_ids=("c",),
        node_old_price=np.array([0.0]),
        node_new_price=np.array([0.5]),
        node_gamma=np.array([0.1]),
        node_new_gamma=np.array([0.1]),
        node_fluctuated=np.array([False]),
        node_branch=("track",),
        node_used=np.array([1.0]),
        node_capacity=np.array([2.0]),
        node_best_ratio=np.array([0.5]),
        populations=np.array([3]),
        class_node=np.array([0]),
        link_step=0.01,
        link_old_price=np.zeros(0),
        link_new_price=np.zeros(0),
        link_usage=np.zeros(0),
        link_capacity=np.zeros(0),
    )
    payload = record.to_dict()
    assert event_from_dict(payload) == record
    with pytest.raises(TraceEventError, match="node_used"):
        event_from_dict({**payload, "node_used": [1.0, 2.0]})
    with pytest.raises(TraceEventError, match="class_node"):
        event_from_dict({**payload, "class_node": [1]})
    with pytest.raises(TraceEventError, match="malformed"):
        event_from_dict({key: value for key, value in payload.items() if key != "link_step"})
    with pytest.raises(TraceEventError, match="expand"):
        record.flatten()
