"""Unit tests for the problem-lowering layer (:mod:`repro.core.compiled`)."""

import dataclasses

import numpy as np
import pytest

from repro.core.compiled import (
    FAMILY_GENERIC,
    FAMILY_LOG,
    FAMILY_POW,
    CompiledProblem,
    VectorizedEngine,
    compile_problem,
)
from repro.core.lrgp import LRGPConfig
from repro.model.allocation import (
    Allocation,
    link_usage,
    node_usage,
    total_utility,
)
from repro.model.problem import Problem, build_problem
from repro.utility.calculus import solve_rate, weighted_derivative
from repro.utility.functions import LogUtility, PowerUtility, UtilityFunction
from repro.workloads.base import base_workload
from repro.workloads.micro import micro_workload
from repro.workloads.registry import workload_from_spec
from tests.conftest import mixed_shapes


def replace_class_utility(
    problem: Problem, class_id: str, utility: UtilityFunction
) -> Problem:
    """Rebuild ``problem`` with one class's utility swapped out."""
    classes = [
        dataclasses.replace(cls, utility=utility) if cid == class_id else cls
        for cid, cls in problem.classes.items()
    ]
    return build_problem(
        nodes=problem.nodes.values(),
        links=problem.links.values(),
        flows=problem.flows.values(),
        classes=classes,
        routes={fid: problem.route(fid) for fid in problem.flows},
        costs=problem.costs,
    )


def dense_link_cost(c: CompiledProblem) -> np.ndarray:
    """The paper's dense ``L`` (bottleneck links x flows), scattered from
    the compiled COO entries: an oracle for the sparse lowering."""
    dense = np.zeros((c.n_links, c.n_flows))
    dense[c.ln_link, c.ln_flow] = c.ln_cost
    return dense


def dense_flow_node_cost(c: CompiledProblem) -> np.ndarray:
    """The paper's dense ``F`` (consumer nodes x flows), as above."""
    dense = np.zeros((c.n_nodes, c.n_flows))
    dense[c.fn_node, c.fn_flow] = c.fn_cost
    return dense


@pytest.fixture(scope="module")
def compiled_base():
    return compile_problem(base_workload())


class TestVocabularies:
    def test_ids_sorted_and_scoped(self, compiled_base):
        problem = compiled_base.problem
        assert compiled_base.flow_ids == tuple(sorted(problem.flows))
        assert compiled_base.class_ids == tuple(sorted(problem.classes))
        assert compiled_base.node_ids == problem.consumer_nodes()
        assert compiled_base.link_ids == problem.bottleneck_links()

    def test_array_shapes(self, compiled_base):
        c = compiled_base
        assert dense_link_cost(c).shape == (c.n_links, c.n_flows)
        assert dense_flow_node_cost(c).shape == (c.n_nodes, c.n_flows)
        for array in (c.rate_min, c.rate_max, c.flow_family):
            assert array.shape == (c.n_flows,)
        for array in (
            c.consumer_cost,
            c.class_flow,
            c.class_node,
            c.class_fn_index,
            c.max_consumers,
            c.class_family,
        ):
            assert array.shape == (c.n_classes,)

    def test_family_positions_partition_classes(self, compiled_base):
        c = compiled_base
        merged = np.concatenate(
            (
                c.log_class_positions,
                c.pow_class_positions,
                c.generic_class_positions,
            )
        )
        assert sorted(merged.tolist()) == list(range(c.n_classes))

    def test_incidence_matches_cost_model(self, compiled_base):
        c = compiled_base
        problem = c.problem
        link_cost = dense_link_cost(c)
        flow_node_cost = dense_flow_node_cost(c)
        for l, lid in enumerate(c.link_ids):
            for i, fid in enumerate(c.flow_ids):
                expected = (
                    problem.costs.link(lid, fid)
                    if fid in problem.flows_on_link(lid)
                    else 0.0
                )
                assert link_cost[l, i] == expected
        for b, nid in enumerate(c.node_ids):
            for i, fid in enumerate(c.flow_ids):
                expected = (
                    problem.costs.flow_node(nid, fid)
                    if fid in problem.flows_at_node(nid)
                    else 0.0
                )
                assert flow_node_cost[b, i] == expected
        for j, cid in enumerate(c.class_ids):
            cls = problem.classes[cid]
            assert c.consumer_cost[j] == problem.costs.consumer(cls.node, cid)
            assert c.flow_ids[c.class_flow[j]] == cls.flow_id
            assert c.node_ids[c.class_node[j]] == cls.node
            assert c.max_consumers[j] == cls.max_consumers


class TestConverters:
    def test_rates_round_trip(self, compiled_base):
        c = compiled_base
        rates = {fid: 10.0 + i for i, fid in enumerate(c.flow_ids)}
        assert c.rates_dict(c.rates_vector(rates)) == rates

    def test_rates_default_to_minimum(self, compiled_base):
        c = compiled_base
        assert np.array_equal(c.rates_vector(), c.rate_min)
        assert np.array_equal(c.rates_vector({}), c.rate_min)

    def test_populations_round_trip(self, compiled_base):
        c = compiled_base
        populations = {cid: j % 5 for j, cid in enumerate(c.class_ids)}
        assert c.populations_dict(c.populations_vector(populations)) == (
            populations
        )

    def test_price_vectors_follow_vocabulary_order(self, compiled_base):
        c = compiled_base
        prices = {nid: float(b) for b, nid in enumerate(c.node_ids)}
        assert c.node_prices_vector(prices).tolist() == [
            float(b) for b in range(c.n_nodes)
        ]
        assert c.link_prices_vector({}).tolist() == [0.0] * c.n_links


class TestFamilyClassification:
    def test_base_workload_is_all_log(self, compiled_base):
        c = compiled_base
        assert np.all(c.class_family == FAMILY_LOG)
        assert np.all(c.flow_family == FAMILY_LOG)
        assert c.generic_class_positions.size == 0

    def test_power_workload_is_all_pow(self):
        c = compile_problem(base_workload("pow50"))
        assert np.all(c.class_family == FAMILY_POW)
        assert np.all(c.flow_family == FAMILY_POW)

    def test_mixed_family_flow_falls_back_to_generic(self):
        # Flow "fa" hosts classes ca and cb; turning ca's log utility
        # into a power one leaves fa with mixed member families.
        mixed = replace_class_utility(
            micro_workload(), "ca", PowerUtility(scale=10.0)
        )
        c = compile_problem(mixed)
        assert c.flow_family[c.flow_ids.index("fa")] == FAMILY_GENERIC
        assert c.flow_family[c.flow_ids.index("fb")] == FAMILY_LOG

    def test_log_offset_mismatch_falls_back_to_generic(self):
        # Same family but different offsets: no shared closed form.
        shifted = replace_class_utility(
            micro_workload(), "ca", LogUtility(scale=10.0, offset=7.0)
        )
        c = compile_problem(shifted)
        assert c.flow_family[c.flow_ids.index("fa")] == FAMILY_GENERIC
        assert c.flow_family[c.flow_ids.index("fb")] == FAMILY_LOG


class TestGenericColumn:
    def test_generic_rate_is_solve_rate_on_the_same_terms(self):
        """The fallback column returns ``solve_rate``'s float exactly."""
        engine = VectorizedEngine(mixed_shapes(base_workload()), LRGPConfig())
        c = engine.compiled
        generic = np.nonzero(c.flow_family == FAMILY_GENERIC)[0]
        assert generic.size
        rng = np.random.default_rng(11)
        populations = rng.integers(1, c.max_consumers + 1).astype(np.float64)
        targets = rng.uniform(c.rate_min, c.rate_max)
        prices = np.empty(c.n_flows)
        terms = {}
        for i in range(c.n_flows):
            terms[i] = [
                (float(populations[j]), c.utilities[j])
                for j in np.nonzero(c.class_flow == i)[0]
            ]
            # A price whose eq. 7 optimum is the interior target rate.
            prices[i] = weighted_derivative(terms[i], float(targets[i]))
        rates = engine._solve_rates(prices, populations)
        for i in generic:
            expected = solve_rate(
                terms[i], float(prices[i]), float(c.rate_min[i]), float(c.rate_max[i])
            )
            assert c.rate_min[i] < expected < c.rate_max[i]
            assert rates[i] == expected


class TestLoweredAccounting:
    def test_usages_and_utility_match_dict_model(self, compiled_base):
        c = compiled_base
        problem = c.problem
        rates = {fid: 0.5 * (c.rate_min[i] + c.rate_max[i])
                 for i, fid in enumerate(c.flow_ids)}
        populations = {cid: int(c.max_consumers[j] // 2)
                       for j, cid in enumerate(c.class_ids)}
        allocation = Allocation(rates=dict(rates), populations=populations)
        r = c.rates_vector(rates)
        n = c.populations_vector(populations)

        link = c.link_usages(r)
        for l, lid in enumerate(c.link_ids):
            assert link[l] == pytest.approx(link_usage(problem, allocation, lid))
        node = c.node_usages(r, n.astype(np.float64))
        for b, nid in enumerate(c.node_ids):
            assert node[b] == pytest.approx(node_usage(problem, allocation, nid))
        assert c.total_utility(r, n) == pytest.approx(
            total_utility(problem, allocation)
        )

    @pytest.mark.parametrize("spec", ["base", "leafspine:flows=16"])
    def test_scatter_adds_match_dense_products(self, spec):
        """The sparse accounting equals the paper's dense matrix products
        (eq. 4-5, 8-9) built from the oracle ``L`` and ``F``."""
        c = compile_problem(workload_from_spec(spec))
        rng = np.random.default_rng(7)
        r = rng.uniform(c.rate_min, np.minimum(c.rate_max, 100.0))
        n = rng.integers(0, c.max_consumers + 1).astype(np.float64)
        node_prices = rng.uniform(0.0, 1.0, c.n_nodes)
        link_prices = rng.uniform(0.0, 1.0, c.n_links)
        link_cost = dense_link_cost(c)
        coefficients = dense_flow_node_cost(c)
        np.add.at(coefficients, (c.class_node, c.class_flow), c.consumer_cost * n)

        assert np.allclose(c.link_usages(r), link_cost @ r, rtol=1e-12)
        assert np.allclose(c.node_usages(r, n), coefficients @ r, rtol=1e-12)
        assert np.allclose(
            c.node_flow_costs(r), dense_flow_node_cost(c) @ r, rtol=1e-12
        )
        assert np.allclose(
            c.flow_prices(n, node_prices, link_prices),
            link_prices @ link_cost + node_prices @ coefficients,
            rtol=1e-12,
        )

    def test_class_values_match_utilities(self, compiled_base):
        c = compiled_base
        r = c.rates_vector(
            {fid: 12.0 + i for i, fid in enumerate(c.flow_ids)}
        )
        values = c.class_values(r)
        for j in range(c.n_classes):
            rate = float(r[c.class_flow[j]])
            assert values[j] == pytest.approx(c.utilities[j].value(rate))
