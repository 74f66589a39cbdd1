"""Tests for typed trace events: serialization and flattening."""

import dataclasses
import io
from pathlib import Path

import numpy as np
import pytest

from repro.obs.events import (
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
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
    now_ns,
    select,
)
from repro.obs.sinks import JsonlSink, read_jsonl

FIXTURES = Path(__file__).parent / "fixtures"


def sample_events():
    """One instance of every event type, optional fields exercised."""
    return [
        IterationEvent(
            iteration=3,
            utility=227.5,
            t_ns=100,
            rates={"fa": 20.0},
            populations={"ca": 5},
            node_prices={"S": 0.03},
            link_prices={"l1": 0.0},
            gammas={"S": 0.1},
            slack={"node:S": 9.8},
        ),
        IterationEvent(iteration=4, utility=228.0, t_ns=200),  # light form
        PriceUpdateEvent(
            resource_kind="node",
            resource="S",
            old_price=0.1,
            new_price=0.2,
            step=0.05,
            branch="violation",
            t_ns=300,
            usage=210.0,
            capacity=200.0,
        ),
        GammaStepEvent(
            resource="S", old_gamma=0.1, new_gamma=0.05, fluctuated=True, t_ns=400
        ),
        AdmissionEvent(
            node="S",
            admitted={"ca": 5, "cb": 0},
            used=190.2,
            capacity=200.0,
            best_ratio=1.5,
            t_ns=500,
        ),
        MessageEvent(
            sender="src:fa",
            recipient="node:S",
            payload="RateUpdate",
            t_ns=600,
            latency=0.25,
            at=1.25,
            trace_id="sync-micro",
            span_id="s00000002",
            parent_span_id="s00000001",
        ),
        AgentExchangeEvent(
            agent="src:fa",
            role="source",
            sent=3,
            stamp=1.0,
            t_ns=700,
            trace_id="sync-micro",
            span_id="s00000001",
            parent_span_id=None,
            rate=20.0,
            price=None,
            populations=None,
        ),
        FaultInjectedEvent(fault="crash", target="node:S", at=120.0, t_ns=800),
        AgentRestartedEvent(
            agent="node:S",
            at=130.0,
            downtime=10.0,
            from_checkpoint=True,
            t_ns=900,
            price=0.25,
            populations={"ca": 5},
        ),
        ColumnarStepEvent(
            t_ns=1000,
            node_ids=("S",),
            link_ids=("l1",),
            class_ids=("ca", "cb"),
            node_old_price=np.array([0.1]),
            node_new_price=np.array([0.2]),
            node_gamma=np.array([0.1]),
            node_new_gamma=np.array([0.05]),
            node_fluctuated=np.array([True]),
            node_branch=("violation",),
            node_used=np.array([210.0]),
            node_capacity=np.array([200.0]),
            node_best_ratio=np.array([1.5]),
            populations=np.array([5, 0]),
            class_node=np.array([0, 0]),
            link_step=0.01,
            link_old_price=np.array([-0.0]),
            link_new_price=np.array([0.0]),
            link_usage=np.array([80.0]),
            link_capacity=np.array([100.0]),
        ),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("event", sample_events(), ids=lambda e: e.kind)
    def test_dict_round_trip_is_lossless(self, event):
        assert event_from_dict(event.to_dict()) == event

    def test_every_registered_type_is_covered(self):
        covered = {event.kind for event in sample_events()}
        assert covered == set(EVENT_TYPES)

    def test_jsonl_round_trip_all_types(self):
        events = sample_events()
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        for event in events:
            sink.emit(event)
        sink.close()
        assert list(read_jsonl(io.StringIO(buffer.getvalue()))) == events

    def test_jsonl_file_round_trip(self, tmp_path):
        events = sample_events()
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for event in events:
            sink.emit(event)
        sink.close()
        assert list(read_jsonl(path)) == events


class TestErrors:
    def test_unknown_kind_raises(self):
        with pytest.raises(TraceEventError, match="unknown event type"):
            event_from_dict({"type": "bogus"})

    def test_missing_type_raises(self):
        with pytest.raises(TraceEventError, match="unknown event type"):
            event_from_dict({"iteration": 1})

    def test_malformed_fields_raise(self):
        with pytest.raises(TraceEventError, match="malformed"):
            event_from_dict({"type": "gamma_step", "nonsense": 1})


class TestColumnarExpand:
    def test_record_expands_to_the_v2_events_it_replaces(self):
        record = sample_events()[-1]
        assert expand(record) == [
            GammaStepEvent(
                resource="S", old_gamma=0.1, new_gamma=0.05, fluctuated=True, t_ns=1000
            ),
            PriceUpdateEvent(
                resource_kind="node",
                resource="S",
                old_price=0.1,
                new_price=0.2,
                step=0.1,
                branch="violation",
                t_ns=1000,
                usage=210.0,
                capacity=200.0,
            ),
            AdmissionEvent(
                node="S",
                admitted={"ca": 5, "cb": 0},
                used=210.0,
                capacity=200.0,
                best_ratio=1.5,
                t_ns=1000,
            ),
            PriceUpdateEvent(
                resource_kind="link",
                resource="l1",
                old_price=-0.0,
                new_price=0.0,
                step=0.01,
                branch="gradient",
                t_ns=1000,
                usage=80.0,
                capacity=100.0,
            ),
        ]

    def test_unmoved_gamma_emits_no_gamma_step(self):
        record = dataclasses.replace(
            sample_events()[-1], node_new_gamma=np.array([0.1])
        )
        assert [event.kind for event in expand(record)] == [
            "price_update", "admission", "price_update",
        ]

    def test_other_events_expand_to_themselves(self):
        for event in sample_events()[:-1]:
            assert expand(event) == [event]

    def test_record_arrays_compare_bit_for_bit(self):
        record = sample_events()[-1]
        positive_zero = dataclasses.replace(record, link_old_price=np.array([0.0]))
        assert record == sample_events()[-1]
        assert record != positive_zero


class TestSelect:
    def test_unfiltered_keeps_records_whole(self):
        events = sample_events()
        assert list(select(events, None)) == events

    def test_per_resource_kinds_see_through_records(self):
        events = sample_events()
        record = events[-1]
        selected = list(select(events, {"admission", "gamma_step"}))
        expected = [e for e in events[:-1] if e.kind in {"admission", "gamma_step"}]
        expected += [e for e in expand(record) if e.kind in {"admission", "gamma_step"}]
        assert selected == expected

    def test_columnar_kind_keeps_records_whole(self):
        events = sample_events()
        assert list(select(events, {"columnar_step", "price_update"})) == [
            e for e in events if e.kind in {"columnar_step", "price_update"}
        ]


class TestFlatten:
    def test_iteration_flatten_uses_documented_prefixes(self):
        flat = sample_events()[0].flatten()
        assert flat["type"] == "iteration"
        assert flat["rate:fa"] == 20.0
        assert flat["n:ca"] == 5
        assert flat["node_price:S"] == 0.03
        assert flat["link_price:l1"] == 0.0
        assert flat["gamma:S"] == 0.1
        assert flat["slack:node:S"] == 9.8

    def test_light_iteration_flatten_has_no_snapshot_columns(self):
        flat = IterationEvent(iteration=1, utility=2.0, t_ns=3).flatten()
        assert set(flat) == {"type", "iteration", "utility", "t_ns"}

    def test_generic_flatten_expands_dicts(self):
        flat = sample_events()[4].flatten()  # admission
        assert flat["admitted:ca"] == 5
        assert flat["admitted:cb"] == 0
        assert flat["node"] == "S"

    def test_untraced_message_flatten_omits_causal_columns(self):
        # Optional v2 fields must disappear from flatten() when unset so
        # pinned CSV columns written against the v1 schema keep working.
        flat = MessageEvent("a", "b", "RateUpdate", t_ns=1, latency=0.5).flatten()
        assert set(flat) == {"type", "sender", "recipient", "payload", "t_ns", "latency"}

    def test_traced_message_flatten_carries_causal_columns(self):
        flat = sample_events()[5].flatten()
        assert flat["trace_id"] == "sync-micro"
        assert flat["span_id"] == "s00000002"
        assert flat["parent_span_id"] == "s00000001"
        assert flat["at"] == 1.25

    def test_untraced_exchange_flatten_matches_v1_schema(self):
        flat = AgentExchangeEvent(
            agent="src:fa", role="source", sent=3, stamp=1.0, t_ns=1
        ).flatten()
        assert set(flat) == {"type", "agent", "role", "sent", "stamp", "t_ns"}


class TestSchemaVersioning:
    """v2 captures carry causal/state fields; v3 adds columnar records.
    v1 and v2 captures must still parse."""

    V1_FIXTURE = FIXTURES / "trace_v1.jsonl"
    #: The vectorized engine's per-resource stream before schema v3:
    #: ``bottleneck``, adaptive γ, 6 iterations, ``t_ns`` renumbered.
    V2_FIXTURE = FIXTURES / "trace_v2.jsonl"

    def test_schema_version_is_three(self):
        assert TRACE_SCHEMA_VERSION == 3

    @pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_FIXTURE], ids=["v1", "v2"])
    def test_older_fixtures_parse_under_v3(self, fixture):
        events = list(read_jsonl(fixture))
        assert events
        for event in events:
            assert event.kind in EVENT_TYPES
            assert event_from_dict(event.to_dict()) == event
        assert not [event for event in events if event.kind == "columnar_step"]

    def test_v2_fixture_is_the_expanded_v3_stream(self):
        """Today's columnar capture of the same run expands to the
        checked-in v2 per-resource stream, field for field but ``t_ns``."""
        from repro import LRGP, LRGPConfig, Telemetry
        from repro.obs import expand_stream
        from repro.workloads.registry import workload_from_spec

        telemetry = Telemetry()
        config = LRGPConfig.adaptive(engine="vectorized", telemetry=telemetry)
        LRGP(workload_from_spec("bottleneck"), config).run(6)
        kinds = {event.kind for event in telemetry.sink.events}
        assert kinds == {"columnar_step", "iteration"}

        def untimed(events):
            return [{**event.to_dict(), "t_ns": 0} for event in events]

        expected = untimed(read_jsonl(self.V2_FIXTURE))
        assert "gamma_step" in {event["type"] for event in expected}
        assert untimed(expand_stream(telemetry.sink.events)) == expected

    def test_v1_fixture_parses_into_typed_events(self):
        events = list(read_jsonl(self.V1_FIXTURE))
        assert [event.kind for event in events] == [
            "iteration",
            "iteration",
            "price_update",
            "gamma_step",
            "admission",
            "message",
            "agent_exchange",
            "fault_injected",
            "agent_restarted",
        ]

    def test_v1_events_default_every_v2_field_to_none(self):
        events = {event.kind: event for event in read_jsonl(self.V1_FIXTURE)}
        message = events["message"]
        assert (message.at, message.trace_id, message.span_id) == (None, None, None)
        assert message.parent_span_id is None
        exchange = events["agent_exchange"]
        assert exchange.trace_id is None
        assert exchange.span_id is None
        assert exchange.rate is None
        assert exchange.price is None
        assert exchange.populations is None
        restarted = events["agent_restarted"]
        assert restarted.rate is None
        assert restarted.price is None
        assert restarted.populations is None
        assert events["iteration"].at is None

    def test_v1_events_flatten_without_v2_columns(self):
        v2_only = {
            "trace_id", "span_id", "parent_span_id", "rate", "price",
        }
        for event in read_jsonl(self.V1_FIXTURE):
            if event.kind in {"message", "agent_exchange", "agent_restarted"}:
                assert not (set(event.flatten()) & v2_only), event.kind

    def test_v1_events_round_trip_through_v2_serializer(self):
        events = list(read_jsonl(self.V1_FIXTURE))
        for event in events:
            assert event_from_dict(event.to_dict()) == event


def test_now_ns_is_monotonic():
    first = now_ns()
    second = now_ns()
    assert second >= first
