"""Differential test: expanded columnar records vs the reference engine.

The vectorized engine reports each iteration as one columnar record; the
reference engine, the oracle, still emits one event per resource.  Per
iteration, ``expand()`` of the vectorized stream must give the reference's
``gamma_step`` / ``price_update`` / ``admission`` events, matched by
(kind, resource): the same branches and fluctuation tests, populations
exactly, prices, γ, usage and ratios within
:data:`~repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL`.
"""

import pytest

from repro import LRGP, LRGPConfig, Telemetry
from repro.obs import (
    AdmissionEvent,
    GammaStepEvent,
    IterationEvent,
    PriceUpdateEvent,
    expand_stream,
)
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL
from repro.workloads.registry import workload_from_spec

ITERATIONS = 50


def close(value):
    return pytest.approx(value, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9)


def per_iteration(events):
    """Per-resource events of each iteration, keyed by (kind, resource)."""
    iterations = []
    current = {}
    for event in events:
        if isinstance(event, IterationEvent):
            iterations.append(current)
            current = {}
            continue
        if isinstance(event, PriceUpdateEvent):
            key = (event.kind, f"{event.resource_kind}:{event.resource}")
        elif isinstance(event, AdmissionEvent):
            key = (event.kind, event.node)
        else:
            key = (event.kind, event.resource)
        assert key not in current, f"duplicate {key}"
        current[key] = event
    assert not current, "events after the last iteration"
    return iterations


def capture(spec, engine):
    telemetry = Telemetry()
    config = LRGPConfig.adaptive(engine=engine, telemetry=telemetry)
    LRGP(workload_from_spec(spec), config).run(ITERATIONS)
    return telemetry


@pytest.mark.parametrize("spec", ["micro", "base", "bottleneck", "flows-x4"])
def test_expanded_records_match_reference_events(spec):
    vectorized = capture(spec, "vectorized")
    reference = capture(spec, "reference")
    assert {event.kind for event in vectorized.sink.events} == {
        "columnar_step",
        "iteration",
    }
    actual = per_iteration(expand_stream(vectorized.sink.events))
    expected = per_iteration(reference.sink.events)
    assert len(actual) == len(expected) == ITERATIONS
    for iteration, (mine, theirs) in enumerate(zip(actual, expected), start=1):
        where = f"{spec} iteration {iteration}"
        assert mine.keys() == theirs.keys(), where
        for key, want in theirs.items():
            got = mine[key]
            if isinstance(want, PriceUpdateEvent):
                assert got.branch == want.branch, (where, key)
                assert got.step == close(want.step), (where, key)
                assert got.old_price == close(want.old_price), (where, key)
                assert got.new_price == close(want.new_price), (where, key)
                assert got.usage == close(want.usage), (where, key)
                assert got.capacity == want.capacity, (where, key)
            elif isinstance(want, AdmissionEvent):
                assert got.admitted == want.admitted, (where, key)
                assert got.used == close(want.used), (where, key)
                assert got.capacity == want.capacity, (where, key)
                assert got.best_ratio == close(want.best_ratio), (where, key)
            else:
                assert isinstance(want, GammaStepEvent)
                assert got.fluctuated == want.fluctuated, (where, key)
                assert got.old_gamma == close(want.old_gamma), (where, key)
                assert got.new_gamma == close(want.new_gamma), (where, key)
    # The counters move by the same totals as the reference's probes.
    assert (
        vectorized.registry.snapshot().counters
        == reference.registry.snapshot().counters
    )


def test_record_arrays_are_read_only_views_of_engine_state():
    """A record shares its arrays with the engine instead of copying them,
    so none of them may be written through the record."""
    telemetry = capture("bottleneck", "vectorized")
    record = telemetry.sink.of_kind("columnar_step")[-1]
    for name in ("node_new_price", "populations", "link_new_price", "link_capacity"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(record, name)[0] = 0
