"""Differential tests: vectorized admission against :func:`allocate_consumers`.

The vectorized engine orders the chargeable classes of every contended
node with one row-wise sort over a padded node x class layout, folds each
node's budget as a prefix accumulation, and leaves a node's greedy fill
early once the budget cannot admit one consumer of the cheapest class
still ahead.  All are exact rewrites of Algorithm 2, so on any instance
the engine must reproduce the reference's populations, ``used`` and
``BC(b,t)`` exactly.

Generated rates and cost coefficients are small dyadic numbers, so every
product and sum is exact in binary floating point: the reference's
sequential sums and the engine's scatter-adds then agree bit for bit, and
boundaries such as ``need == budget`` are hit exactly rather than to
within rounding.  Class values are computed by the reference utilities
and handed to both sides, so the comparison isolates admission.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.compiled as compiled_module
from repro.core.compiled import _FOLD_SPAN, VectorizedEngine
from repro.core.consumer_allocation import allocate_consumers
from repro.core.lrgp import LRGPConfig
from repro.model.costs import CostModelBuilder
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import Problem, build_problem
from repro.solve import solve
from repro.utility.functions import LogUtility
from repro.workloads.registry import workload_from_spec

RATES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
CONSUMER_COSTS = (0.0, 0.5, 1.0, 2.0, 3.0)
FLOW_NODE_COSTS = (0.0, 1.0, 2.0)
SCALES = (0.5, 1.0, 2.0, 5.0)
#: ``offset + rate`` below, at and above 1 gives negative, zero and
#: positive class values.
OFFSETS = (0.25, 0.5, 1.0, 3.0)


def _budget(node: dict, rates: list[float]) -> float:
    """Consumer budget ``c_b - sum_i F_{b,i} r_i`` the spec asks for."""
    flow_cost = sum(f * r for f, r in zip(node["flow_node_cost"], rates))
    need = sum(
        cost * rates[flow] * cap
        for flow, cost, cap, _, _ in node["classes"]
        if cost * rates[flow] > 0.0
    )
    mode = node["budget"]
    if mode == "need":  # everything fits exactly: need == budget
        return need
    if mode == "need+1":
        return need + 1.0
    if mode == "starved":  # flow cost alone exceeds capacity
        return -flow_cost / 2.0 if flow_cost > 0.0 else 0.25
    if mode == "zero":
        return 0.0 if flow_cost > 0.0 else 0.25
    return float(mode)


def build_instance(spec: dict) -> tuple[Problem, dict[str, float]]:
    """A hub ``P`` feeding every flow to every consumer node."""
    rates = spec["rates"]
    flow_ids = [f"f{i}" for i in range(len(rates))]
    node_ids = [f"n{b}" for b in range(len(spec["nodes"]))]
    nodes = [Node("P")]
    links = []
    classes = []
    costs = CostModelBuilder()
    for b, (nid, node) in enumerate(zip(node_ids, spec["nodes"])):
        flow_cost = sum(f * r for f, r in zip(node["flow_node_cost"], rates))
        # Node capacities must be positive; an empty node gets a sliver.
        capacity = max(flow_cost + _budget(node, rates), 0.25)
        nodes.append(Node(nid, capacity=capacity))
        links.append(Link(f"P->{nid}", tail="P", head=nid))
        for i, fid in enumerate(flow_ids):
            costs.set_flow_node(nid, fid, node["flow_node_cost"][i])
        for k, (flow, cost, cap, scale, offset) in enumerate(node["classes"]):
            cid = f"c{b}{k:02d}"
            classes.append(
                ConsumerClass(
                    cid,
                    flow_ids[flow],
                    nid,
                    max_consumers=cap,
                    utility=LogUtility(scale=scale, offset=offset),
                )
            )
            costs.set_consumer(nid, cid, cost)
    route = Route(
        nodes=("P", *node_ids), links=tuple(f"P->{nid}" for nid in node_ids)
    )
    problem = build_problem(
        nodes=nodes,
        links=links,
        flows=[Flow(fid, source="P", rate_max=16.0) for fid in flow_ids],
        classes=classes,
        routes={fid: route for fid in flow_ids},
        costs=costs.build(),
    )
    return problem, dict(zip(flow_ids, rates))


@st.composite
def admission_specs(draw) -> dict:
    n_flows = draw(st.integers(1, 4))
    rates = draw(st.lists(st.sampled_from(RATES), min_size=n_flows, max_size=n_flows))
    class_strategy = st.tuples(
        st.integers(0, n_flows - 1),
        st.sampled_from(CONSUMER_COSTS),
        st.integers(0, 6),
        st.sampled_from(SCALES),
        st.sampled_from(OFFSETS),
    )
    nodes = []
    for _ in range(draw(st.sampled_from((1, 3)))):
        classes = []
        for _ in range(draw(st.integers(1, 8))):
            if classes and draw(st.integers(0, 3)) == 0:
                # An exact duplicate of the previous class: a ratio tie
                # that only the class id can break.
                classes.append(classes[-1])
            else:
                classes.append(draw(class_strategy))
        nodes.append(
            {
                "flow_node_cost": draw(
                    st.lists(
                        st.sampled_from(FLOW_NODE_COSTS),
                        min_size=n_flows,
                        max_size=n_flows,
                    )
                ),
                "classes": classes,
                "budget": draw(
                    st.one_of(
                        st.sampled_from(("need", "need+1", "starved", "zero")),
                        st.integers(1, 120).map(lambda q: q / 4.0),
                    )
                ),
            }
        )
    return {"rates": rates, "nodes": nodes}


#: Partial fill, then zero-admitting classes, then a cheaper class that
#: still fits: budget 10, cost 4 (ratio ~0.37) admits 2 and leaves 2;
#: three cost-3 classes (ratio ~0.23) admit 0; cost-1 (ratio ~0.14) takes 2.
PARTIAL_THEN_CHEAPER = {
    "rates": [1.0],
    "nodes": [
        {
            "flow_node_cost": [0.0],
            "classes": [
                (0, 4.0, 5, 2.0, 1.0),
                (0, 3.0, 5, 1.0, 1.0),
                (0, 3.0, 5, 1.0, 1.0),
                (0, 3.0, 5, 1.0, 1.0),
                (0, 1.0, 5, 0.2, 1.0),
            ],
            "budget": 10.0,
        }
    ],
}

#: Ties, free classes with positive, zero and negative value, chargeable
#: classes with value 0 and < 0, flow cost above capacity, a contended
#: node with no chargeable class, and need == budget.
CORNERS = {
    "rates": [2.0, 0.0, 0.5],
    "nodes": [
        {
            "flow_node_cost": [1.0, 2.0, 0.0],
            "classes": [
                (0, 1.0, 3, 1.0, 1.0),
                (0, 1.0, 3, 1.0, 1.0),
                (1, 2.0, 4, 1.0, 3.0),
                (1, 2.0, 4, 1.0, 1.0),
                (1, 2.0, 4, 1.0, 0.5),
                (0, 0.0, 2, 1.0, 1.0),
                (0, 2.0, 2, 1.0, 0.25),
                (2, 1.0, 2, 1.0, 0.5),
                (2, 1.0, 2, 1.0, 0.25),
            ],
            "budget": 5.0,
        },
        {
            "flow_node_cost": [2.0, 0.0, 0.0],
            "classes": [(1, 3.0, 6, 1.0, 1.0), (0, 1.0, 3, 1.0, 1.0)],
            "budget": "starved",
        },
        {
            "flow_node_cost": [1.0, 0.0, 0.0],
            "classes": [(1, 1.0, 2, 1.0, 1.0), (0, 0.0, 3, 1.0, 1.0)],
            "budget": "starved",
        },
        {
            "flow_node_cost": [1.0, 1.0, 0.0],
            "classes": [(0, 0.5, 6, 1.0, 1.0), (0, 2.0, 1, 5.0, 1.0)],
            "budget": "need",
        },
    ],
}


@settings(max_examples=150, deadline=None)
@given(spec=admission_specs())
@example(spec=PARTIAL_THEN_CHEAPER)
@example(spec=CORNERS)
def test_vectorized_admission_matches_reference(spec):
    problem, rates = build_instance(spec)
    engine = VectorizedEngine(problem, LRGPConfig())
    compiled = engine.compiled
    engine._rates = compiled.rates_vector(rates)
    values = np.array(
        [
            problem.classes[cid].utility.value(rates[problem.classes[cid].flow_id])
            for cid in compiled.class_ids
        ]
    )
    populations, used, best = engine._admit(values)
    admitted = compiled.populations_dict(populations)
    for b, nid in enumerate(compiled.node_ids):
        expected = allocate_consumers(problem, nid, rates)
        for cid, count in expected.populations.items():
            assert admitted[cid] == count, (nid, cid)
        assert used[b] == expected.used, nid
        assert best[b] == expected.best_unsatisfied_ratio, nid


def test_partial_fill_example_has_the_corner_shape():
    """``PARTIAL_THEN_CHEAPER`` really puts a cheap, admitting class behind
    zero admitters, so the differential test's example checks that the
    early exit does not skip it."""
    problem, rates = build_instance(PARTIAL_THEN_CHEAPER)
    expected = allocate_consumers(problem, "n0", rates)
    assert expected.populations == {
        "c000": 2,
        "c001": 0,
        "c002": 0,
        "c003": 0,
        "c004": 2,
    }


class TestNegativeZeroPrices:
    """``-0.0`` initial prices keep their sign exactly as the reference's.

    Python's ``max(-0.0, 0.0)`` is ``-0.0`` while ``np.maximum`` returns
    ``0.0``; with a zero link step, eq. 13 keeps every link at
    ``-0.0 + 0 * (usage - capacity) = -0.0``, so a projection written with
    ``np.maximum`` would flip the sign.
    """

    SPEC = "leafspine:flows=16"
    CONFIG = LRGPConfig(
        initial_node_price=-0.0, initial_link_price=-0.0, link_gamma=0.0
    )

    def _solve(self, engine: str, iterations: int):
        return solve(
            workload_from_spec(self.SPEC),
            "lrgp",
            engine=engine,
            iterations=iterations,
            config=self.CONFIG,
        )

    def test_prices_sign_identical(self):
        reference = self._solve("reference", 30)
        vectorized = self._solve("vectorized", 30)
        assert vectorized.engine == "vectorized"
        for key in ("node_prices", "link_prices"):
            expected = reference.metadata[key]
            actual = vectorized.metadata[key]
            assert actual.keys() == expected.keys()
            for resource, price in expected.items():
                assert math.copysign(1.0, actual[resource]) == math.copysign(
                    1.0, price
                ), (key, resource)
        assert all(
            math.copysign(1.0, p) < 0.0
            for p in vectorized.metadata["link_prices"].values()
        )

    def test_result_json_byte_identical(self):
        payloads = []
        for engine in ("reference", "vectorized"):
            payload = self._solve(engine, 1).to_dict()
            del payload["wall_time_seconds"], payload["engine"]
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1]
        assert '"link_prices": {"' in payloads[1]
        assert "-0.0" in payloads[1]


# -- corners of the padded node x class layout --------------------------------
#
# Problems with fewer than ``_ROW_FILL_MIN_NODES`` consumer nodes admit node
# by node in Python; the instances here are small, so every check also runs
# with that bound at 1, which sends every node through the row-wise fill.


def admit_and_compare(spec: dict) -> VectorizedEngine:
    """Run the engine's admission on ``spec`` and compare every node with
    :func:`allocate_consumers`; returns the engine for further checks."""
    problem, rates = build_instance(spec)
    engine = VectorizedEngine(problem, LRGPConfig())
    compiled = engine.compiled
    engine._rates = compiled.rates_vector(rates)
    values = np.array(
        [
            problem.classes[cid].utility.value(rates[problem.classes[cid].flow_id])
            for cid in compiled.class_ids
        ]
    )
    populations, used, best = engine._admit(values)
    admitted = compiled.populations_dict(populations)
    for b, nid in enumerate(compiled.node_ids):
        expected = allocate_consumers(problem, nid, rates)
        assert {cid: admitted[cid] for cid in expected.populations} == (
            expected.populations
        ), nid
        assert used[b] == expected.used, nid
        assert best[b] == expected.best_unsatisfied_ratio, nid
    return engine


def assert_admission_matches_reference(spec: dict) -> VectorizedEngine:
    """:func:`admit_and_compare` node by node and then row-wise on the
    padded layout; returns the engine of the latter."""
    admit_and_compare(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled_module, "_ROW_FILL_MIN_NODES", 1)
        return admit_and_compare(spec)


@settings(max_examples=150, deadline=None)
@given(spec=admission_specs())
@example(spec=PARTIAL_THEN_CHEAPER)
@example(spec=CORNERS)
def test_row_fill_matches_reference(spec):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compiled_module, "_ROW_FILL_MIN_NODES", 1)
        admit_and_compare(spec)


def _uniform_node(n_classes: int, budget: float | str, cap: int = 2) -> dict:
    """``n_classes`` cost-1 classes of one flow at rate 1 whose values fall
    with the class index, so the fill order is the class order."""
    return {
        "flow_node_cost": [0.0],
        "classes": [
            (0, 1.0, cap, 1.0 + (n_classes - k) / 8.0, 1.0) for k in range(n_classes)
        ],
        "budget": budget,
    }


def _admitted_at_cap(spec: dict, node: str) -> int:
    problem, rates = build_instance(spec)
    expected = allocate_consumers(problem, node, rates)
    return sum(
        count == problem.classes[cid].max_consumers
        for cid, count in expected.populations.items()
    )


def test_skewed_class_counts_use_several_buckets():
    """Nodes with 1, 5, 20, 40 and 130 classes: a bucket takes nodes while
    its cells stay within twice its classes, so the layout splits into
    several buckets; the 130-class node's run of admissions at n^max is
    longer than the first fold span, so the span doubles."""
    spec = {
        "rates": [1.0],
        "nodes": [
            _uniform_node(1, 0.5),
            _uniform_node(5, 7.0),
            _uniform_node(20, 25.5),
            _uniform_node(40, 30.0),
            _uniform_node(130, 201.0),
        ],
    }
    engine = assert_admission_matches_reference(spec)
    buckets = engine._buckets
    assert len(buckets) >= 3
    assert sum(cells.size for _, cells, _ in buckets) <= 2 * engine.compiled.n_classes
    for nodes, cells, _ in buckets:
        counts = np.bincount(engine.compiled.class_node)[nodes]
        assert cells.shape == (nodes.size, counts.max() + 1)
        assert cells.size <= 2 * counts.sum()
    assert sorted(np.concatenate([nodes for nodes, _, _ in buckets])) == list(range(5))
    assert _admitted_at_cap(spec, "n4") == 100 > _FOLD_SPAN


def test_runs_ending_at_every_fold_span_boundary():
    """A run of admissions at n^max that ends just before, at and after
    each doubling of the fold span (and one that takes every class)."""
    for admitted in (15, 16, 17, 31, 32, 33, 63, 64, 65, 129, 130):
        spec = {"rates": [1.0], "nodes": [_uniform_node(130, 2.0 * admitted + 1.0)]}
        if admitted == 130:
            spec["nodes"][0]["budget"] = 2.0 * 130 - 2.0**-40
        assert_admission_matches_reference(spec)
        assert _admitted_at_cap(spec, "n0") == admitted


def test_budget_gone_before_any_class():
    """Flow cost equal to and above capacity: a contended node admits no
    consumer and reports its flow cost as used."""
    for budget in ("zero", "starved"):
        node = _uniform_node(6, budget)
        node["flow_node_cost"] = [2.0]
        assert_admission_matches_reference({"rates": [1.0], "nodes": [node]})


def test_every_contended_class_fits_at_cap():
    """A budget 2**-40 short of the need: the node is contended, yet the
    flooring slack admits every class at n^max, so there is no partial
    class and the node overspends by the shortfall, as the reference does."""
    spec = {"rates": [1.0], "nodes": [_uniform_node(5, 10.0 - 2.0**-40)]}
    assert_admission_matches_reference(spec)
    problem, rates = build_instance(spec)
    expected = allocate_consumers(problem, "n0", rates)
    assert set(expected.populations.values()) == {2}
    assert expected.used > problem.nodes["n0"].capacity


def test_partial_then_cheaper_takes_the_python_continuation(monkeypatch):
    """``PARTIAL_THEN_CHEAPER`` can still admit after its partial class, so
    the row-wise fill hands the four classes after it to
    :func:`_greedy_fill` with the budget the partial class left."""
    calls = []
    original = compiled_module._greedy_fill

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(compiled_module, "_greedy_fill", counting)
    monkeypatch.setattr(compiled_module, "_ROW_FILL_MIN_NODES", 1)
    admit_and_compare(PARTIAL_THEN_CHEAPER)
    assert len(calls) == 1
    cost, caps, counts, k, end, remaining, total = calls[0]
    assert cost[k:end].tolist() == [3.0, 3.0, 3.0, 1.0]
    assert (remaining, total) == (2.0, 8.0)


def test_ties_across_flows():
    """Classes of different flows with bit-equal ratios (value log 4 at
    unit cost 1 on both flows) straddle the partial class, so only the
    class-id tie break decides who is admitted."""
    tied = [(0, 1.0, 2, 1.0, 3.0), (1, 0.5, 2, 1.0, 2.0)]
    spec = {
        "rates": [1.0, 2.0],
        "nodes": [
            {
                "flow_node_cost": [0.0, 0.0],
                "classes": tied * 3 + [(0, 1.0, 2, 0.5, 3.0)],
                "budget": 5.0,
            }
        ],
    }
    problem, rates = build_instance(spec)
    ratios = allocate_consumers(problem, "n0", rates).ratios
    assert len({ratios[cid] for cid in ratios if cid != "c006"}) == 1
    assert_admission_matches_reference(spec)


def test_ties_across_a_wide_row():
    """120 classes of two flows, all with the same ratio, and a budget that
    runs out at the 41st: sorts of rows this wide are where an unstable
    sort would reorder ties."""
    tied = [(0, 1.0, 2, 1.0, 3.0), (1, 0.5, 2, 1.0, 2.0)]
    spec = {
        "rates": [1.0, 2.0],
        "nodes": [{"flow_node_cost": [0.0, 0.0], "classes": tied * 60, "budget": 81.0}],
    }
    engine = assert_admission_matches_reference(spec)
    populations = engine.compiled.populations_dict(
        engine._admit(engine.compiled.class_values(engine._rates))[0]
    )
    assert [populations[cid] for cid in sorted(populations)][39:42] == [2, 1, 0]


def test_free_and_worthless_classes_in_a_contended_node():
    """Zero-cost classes (useful: ratio +inf; worthless: ratio 0) and
    chargeable classes of value 0 and below mixed into a contended node."""
    spec = {
        "rates": [0.5, 0.0, 2.0],
        "nodes": [
            {
                "flow_node_cost": [1.0, 0.0, 0.0],
                "classes": [
                    (0, 2.0, 3, 1.0, 0.5),  # value log(1) = 0
                    (1, 2.0, 4, 1.0, 3.0),  # rate 0: free, useful
                    (0, 0.0, 2, 1.0, 1.0),  # zero cost: free, useful
                    (0, 1.0, 3, 2.0, 3.0),
                    (1, 1.0, 2, 1.0, 0.25),  # rate 0: free, value < 0
                    (2, 1.0, 3, 1.0, 1.0),
                    (0, 2.0, 2, 1.0, 0.25),  # value log(0.75) < 0
                    (2, 0.5, 5, 0.5, 1.0),
                ],
                "budget": 4.5,
            }
        ],
    }
    assert_admission_matches_reference(spec)
    problem, rates = build_instance(spec)
    expected = allocate_consumers(problem, "n0", rates)
    assert 0.0 in expected.ratios.values()
    assert math.inf in expected.ratios.values()
    assert any(count == 0 for count in expected.populations.values())
