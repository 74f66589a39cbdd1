"""Property tests: lowered accounting round-trips the dict-based model.

For random generated workloads and random interior states, every
quantity the :class:`~repro.core.compiled.CompiledProblem` computes on
dense arrays must equal the dict-based accounting in
:mod:`repro.model.allocation` / :mod:`repro.core.rate_allocation` — the
single sources of truth for the paper's equations.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compiled import (
    FAMILY_GENERIC,
    FAMILY_LOG,
    FAMILY_POW,
    compile_problem,
)
from repro.core.rate_allocation import aggregate_flow_price
from repro.model.allocation import (
    Allocation,
    link_usage,
    node_usage,
    total_utility,
)
from repro.model.costs import CostModelBuilder
from repro.model.entities import ConsumerClass, Flow, Link, Node, Route
from repro.model.problem import build_problem
from repro.utility.base import UtilityFunction
from repro.utility.functions import (
    ExponentialSaturationUtility,
    LogUtility,
    PowerUtility,
    ScaledUtility,
)
from repro.workloads.generator import GeneratorConfig, generate_workload
from tests.conftest import mixed_shapes

SHAPES = ("log", "pow25", "pow50", "pow75")


def _draw_state(data, problem):
    """Random rates (in bounds), populations (in bounds) and prices."""
    rates = {
        fid: data.draw(
            st.floats(
                min_value=flow.rate_min,
                max_value=flow.rate_max,
                allow_nan=False,
            ),
            label=f"rate:{fid}",
        )
        for fid, flow in problem.flows.items()
    }
    populations = {
        cid: data.draw(
            st.integers(min_value=0, max_value=cls.max_consumers),
            label=f"n:{cid}",
        )
        for cid, cls in problem.classes.items()
    }
    node_prices = {
        nid: data.draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            label=f"p:{nid}",
        )
        for nid in problem.consumer_nodes()
    }
    link_prices = {
        lid: data.draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            label=f"pl:{lid}",
        )
        for lid in problem.bottleneck_links()
    }
    return rates, populations, node_prices, link_prices


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(SHAPES),
    data=st.data(),
)
def test_lowered_accounting_round_trips(seed, shape, data):
    problem = generate_workload(GeneratorConfig(shape=shape), seed=seed)
    compiled = compile_problem(problem)
    rates, populations, node_prices, link_prices = _draw_state(data, problem)
    allocation = Allocation(rates=dict(rates), populations=dict(populations))

    r = compiled.rates_vector(rates)
    n = compiled.populations_vector(populations)
    nf = n.astype(np.float64)

    # eq. 8-9: per-flow aggregate prices.
    prices = compiled.flow_prices(
        nf,
        compiled.node_prices_vector(node_prices),
        compiled.link_prices_vector(link_prices),
    )
    for i, fid in enumerate(compiled.flow_ids):
        expected = aggregate_flow_price(
            problem, fid, populations, node_prices, link_prices
        )
        assert np.isclose(prices[i], expected, rtol=1e-9, atol=1e-9)

    # eq. 4/5 left-hand sides.
    links = compiled.link_usages(r)
    for l, lid in enumerate(compiled.link_ids):
        assert np.isclose(
            links[l], link_usage(problem, allocation, lid), rtol=1e-9, atol=1e-9
        )
    nodes = compiled.node_usages(r, nf)
    for b, nid in enumerate(compiled.node_ids):
        assert np.isclose(
            nodes[b], node_usage(problem, allocation, nid), rtol=1e-9, atol=1e-9
        )

    # eq. 6: the objective.
    assert np.isclose(
        compiled.total_utility(r, n),
        total_utility(problem, allocation),
        rtol=1e-9,
        atol=1e-9,
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), data=st.data())
def test_dict_vector_converters_round_trip(seed, data):
    problem = generate_workload(seed=seed)
    compiled = compile_problem(problem)
    rates, populations, _, _ = _draw_state(data, problem)
    assert compiled.rates_dict(compiled.rates_vector(rates)) == rates
    assert (
        compiled.populations_dict(compiled.populations_vector(populations))
        == populations
    )


#: Utilities whose lowering differs only in the last bit of a log offset or
#: a power exponent, so the family grouping must compare them exactly.
ONE_ULP_SHAPES = (
    LogUtility(scale=1.0, offset=1.0),
    LogUtility(scale=2.0, offset=math.nextafter(1.0, 2.0)),
    LogUtility(scale=1.0, offset=3.0),
    PowerUtility(scale=1.0, exponent=0.5),
    PowerUtility(scale=3.0, exponent=math.nextafter(0.5, 1.0)),
    ScaledUtility(LogUtility(scale=1.0, offset=1.0), factor=2.0),
    ScaledUtility(PowerUtility(scale=1.0, exponent=0.5), factor=0.5),
    ExponentialSaturationUtility(scale=5.0, knee=200.0),
)


def _hub_problem(flow_shapes: list[list[UtilityFunction]]):
    """One source feeding every flow to two consumer nodes; flow ``i`` has
    one class per entry of ``flow_shapes[i]`` (none for an empty list),
    alternating between the nodes."""
    flow_ids = [f"f{i}" for i in range(len(flow_shapes))]
    node_ids = ("n0", "n1")
    costs = CostModelBuilder()
    classes = []
    for i, shapes in enumerate(flow_shapes):
        for k, utility in enumerate(shapes):
            node = node_ids[k % 2]
            cid = f"c{i}.{k}"
            classes.append(
                ConsumerClass(cid, flow_ids[i], node, max_consumers=3, utility=utility)
            )
            costs.set_consumer(node, cid, 1.0)
    route = Route(nodes=("P", *node_ids), links=("P->n0", "n0->n1"))
    return build_problem(
        nodes=[Node("P"), *(Node(nid, capacity=10.0) for nid in node_ids)],
        links=[Link("P->n0", tail="P", head="n0"), Link("n0->n1", tail="n0", head="n1")],
        flows=[Flow(fid, source="P") for fid in flow_ids],
        classes=classes,
        routes={fid: route for fid in flow_ids},
        costs=costs.build(),
    )


def _family_oracle(utilities: list[UtilityFunction]) -> tuple[int, float, float]:
    """The per-flow rule, one flow at a time: log when every class is (a
    rescaling of) log with one offset, power when every class is power with
    one exponent, generic otherwise, and log when the flow has no class."""
    bases = []
    for utility in utilities:
        while isinstance(utility, ScaledUtility):
            utility = utility.base
        bases.append(utility)
    if not bases:
        return FAMILY_LOG, 0.0, 0.0
    if all(isinstance(u, LogUtility) for u in bases):
        if all(u.offset == bases[0].offset for u in bases):
            return FAMILY_LOG, bases[0].offset, 0.0
        return FAMILY_GENERIC, 0.0, 0.0
    if all(isinstance(u, PowerUtility) for u in bases):
        if all(u.exponent == bases[0].exponent for u in bases):
            return FAMILY_POW, 0.0, bases[0].exponent
    return FAMILY_GENERIC, 0.0, 0.0


@settings(max_examples=60, deadline=None)
@given(
    flow_shapes=st.lists(
        st.lists(st.sampled_from(ONE_ULP_SHAPES), max_size=4), min_size=1, max_size=6
    ).filter(lambda flows: any(flows))
)
@example(
    # One-ulp apart exponents and offsets, a flow with no classes, and a
    # scaled log whose offset matches.
    flow_shapes=[
        [ONE_ULP_SHAPES[3], ONE_ULP_SHAPES[4]],
        [],
        [ONE_ULP_SHAPES[0], ONE_ULP_SHAPES[1]],
        [ONE_ULP_SHAPES[0], ONE_ULP_SHAPES[5]],
        [ONE_ULP_SHAPES[6], ONE_ULP_SHAPES[3]],
    ]
)
def test_flow_families_match_the_per_flow_rule(flow_shapes):
    problem = _hub_problem(flow_shapes)
    compiled = compile_problem(problem)
    for i, fid in enumerate(compiled.flow_ids):
        utilities = [problem.classes[c].utility for c in problem.classes_of_flow(fid)]
        family, offset, exponent = _family_oracle(utilities)
        assert compiled.flow_family[i] == family, (fid, utilities)
        assert compiled.flow_offset[i] == offset, fid
        assert compiled.flow_exponent[i] == exponent, fid


def test_flow_families_on_a_generated_workload():
    problem = mixed_shapes(generate_workload(seed=3))
    compiled = compile_problem(problem)
    expected = [
        _family_oracle(
            [problem.classes[c].utility for c in problem.classes_of_flow(fid)]
        )
        for fid in compiled.flow_ids
    ]
    assert compiled.flow_family.tolist() == [family for family, _, _ in expected]
    assert compiled.flow_offset.tolist() == [offset for _, offset, _ in expected]
    assert compiled.flow_exponent.tolist() == [exponent for _, _, exponent in expected]
