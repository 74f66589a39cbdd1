"""Engine selection + reference/vectorized trajectory equivalence.

The acceptance bar for any alternative engine: on every supported
workload its utility trajectory must match the reference driver's at
*every* iteration within
:data:`repro.utility.tolerance.ENGINE_EQUIVALENCE_RTOL`, and the final
allocation must agree (populations exactly — they are integers).
"""

import math

import pytest

from repro.core.compiled import FAMILY_GENERIC, compile_problem
from repro.core.consumer_allocation import allocate_consumers
from repro.core.engines import (
    LRGPEngine,
    ReferenceEngine,
    available_engines,
    create_engine,
)
from repro.core.gamma import AdaptiveGamma, FixedGamma
from repro.core.lrgp import LRGP, LRGPConfig
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL
from repro.workloads.base import base_workload
from repro.workloads.bottleneck import link_bottleneck_workload
from repro.workloads.micro import micro_workload
from repro.workloads.scaling import scale_flows
from tests.conftest import mixed_shapes

#: The equivalence matrix: every workload family the paper evaluates.
EQUIVALENCE_WORKLOADS = {
    "micro": micro_workload,
    "base": base_workload,
    "link-bottleneck": lambda: link_bottleneck_workload(200000.0),
    "flows-x4": lambda: scale_flows(4),
}


def assert_trajectories_match(reference: LRGP, candidate: LRGP) -> None:
    assert len(reference.utilities) == len(candidate.utilities)
    for i, (expected, actual) in enumerate(
        zip(reference.utilities, candidate.utilities)
    ):
        assert actual == pytest.approx(
            expected, rel=ENGINE_EQUIVALENCE_RTOL, abs=ENGINE_EQUIVALENCE_RTOL
        ), f"utility diverged at iteration {i + 1}"


class TestRegistry:
    def test_builtin_engines_listed(self):
        names = available_engines()
        assert "reference" in names
        assert "vectorized" in names
        assert names == tuple(sorted(names))

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError, match="reference"):
            create_engine("turbo", micro_workload(), LRGPConfig())

    def test_create_reference(self):
        engine = create_engine("reference", micro_workload(), LRGPConfig())
        assert isinstance(engine, ReferenceEngine)
        assert engine.name == "reference"

    def test_config_engine_field_and_override(self):
        problem = micro_workload()
        assert LRGP(problem).engine_name == "reference"
        assert (
            LRGP(problem, LRGPConfig(engine="vectorized")).engine_name
            == "vectorized"
        )
        assert (
            LRGP(
                problem, LRGPConfig(engine="vectorized"), engine="reference"
            ).engine_name
            == "reference"
        )


class TestVectorizedGating:
    def test_custom_admission_rejected(self):
        def admission(problem, node_id, rates):  # pragma: no cover - stub
            return allocate_consumers(problem, node_id, rates)

        config = LRGPConfig(admission=admission)
        with pytest.raises(ValueError, match="admission"):
            LRGP(micro_workload(), config, engine="vectorized")

    def test_unknown_gamma_schedule_rejected(self):
        class ExoticGamma(FixedGamma):
            pass

        config = LRGPConfig(node_gamma=ExoticGamma(0.05))
        with pytest.raises(ValueError, match="schedules only"):
            LRGP(micro_workload(), config, engine="vectorized")


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_WORKLOADS))
    def test_adaptive_gamma_250_iterations(self, name):
        make = EQUIVALENCE_WORKLOADS[name]
        reference = LRGP(make(), engine="reference")
        vectorized = LRGP(make(), engine="vectorized")
        reference.run(250)
        vectorized.run(250)
        assert_trajectories_match(reference, vectorized)
        assert vectorized.allocation().populations == (
            reference.allocation().populations
        )
        for flow_id, rate in reference.allocation().rates.items():
            assert vectorized.allocation().rates[flow_id] == pytest.approx(
                rate, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
            )

    def test_fixed_gamma(self):
        config = LRGPConfig.fixed(0.05)
        reference = LRGP(micro_workload(), config, engine="reference")
        vectorized = LRGP(micro_workload(), config, engine="vectorized")
        reference.run(120)
        vectorized.run(120)
        assert_trajectories_match(reference, vectorized)

    def test_snapshots_match(self):
        config = LRGPConfig(record_snapshots=True)
        reference = LRGP(micro_workload(), config, engine="reference")
        vectorized = LRGP(micro_workload(), config, engine="vectorized")
        reference.run(60)
        vectorized.run(60)
        for ref, vec in zip(reference.records, vectorized.records):
            assert vec.populations == ref.populations
            assert vec.node_gammas == pytest.approx(ref.node_gammas)
            for mapping in ("rates", "node_prices", "link_prices", "slack"):
                expected = getattr(ref, mapping)
                actual = getattr(vec, mapping)
                assert set(actual) == set(expected)
                for key, value in expected.items():
                    if math.isinf(value):
                        assert math.isinf(actual[key])
                    else:
                        assert actual[key] == pytest.approx(
                            value, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
                        )

    def test_reconfiguration_preserves_equivalence(self):
        """Figure 3 dynamics: drop a flow mid-run, keep matching."""
        reference = LRGP(base_workload(), engine="reference")
        vectorized = LRGP(base_workload(), engine="vectorized")
        reference.run(100)
        vectorized.run(100)
        reference.remove_flow("f5")
        vectorized.remove_flow("f5")
        reference.run(100)
        vectorized.run(100)
        assert_trajectories_match(reference, vectorized)

    def test_capacity_change_preserves_link_state(self):
        problem = link_bottleneck_workload(200000.0)
        reference = LRGP(problem, engine="reference")
        vectorized = LRGP(problem, engine="vectorized")
        reference.run(80)
        vectorized.run(80)
        tightened = problem.with_node_capacity("S0", 80000.0)
        reference.set_problem(tightened)
        vectorized.set_problem(tightened)
        reference.run(80)
        vectorized.run(80)
        assert_trajectories_match(reference, vectorized)


class TestMixedShapeEquivalence:
    """Generic flows: both engines solve eq. 7 with the one shared
    :func:`~repro.utility.calculus.solve_rate`, so on workloads whose flows
    mix power, exponential-saturation and log classes the vectorized
    engine admits the reference's populations and sends its rates at
    every iteration."""

    WORKLOADS = {
        "base": base_workload,
        "flows-x4": lambda: scale_flows(4),
        "bottleneck": lambda: link_bottleneck_workload(100.0),
    }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_200_iterations_match_reference(self, name):
        problem = mixed_shapes(self.WORKLOADS[name]())
        compiled = compile_problem(problem)
        assert (compiled.flow_family == FAMILY_GENERIC).sum() >= len(problem.flows) // 2
        config = LRGPConfig(record_snapshots=True)
        reference = LRGP(problem, config, engine="reference")
        vectorized = LRGP(problem, config, engine="vectorized")
        reference.run(200)
        vectorized.run(200)
        for ref, vec in zip(reference.records, vectorized.records):
            assert vec.populations == ref.populations, f"iteration {ref.iteration}"
            assert vec.rates.keys() == ref.rates.keys()
            for flow_id, rate in ref.rates.items():
                assert vec.rates[flow_id] == pytest.approx(rate, rel=1e-15, abs=0.0), (
                    f"rate of {flow_id} diverged at iteration {ref.iteration}"
                )


class TestLayoutEquivalence:
    """The former pinned layouts, held to the reference step by step.

    The dense and sparse layouts were folded into one lowered layout, so
    both former engine names now resolve to ``vectorized``; each former
    pin still runs on every equivalence workload. The engine must admit
    the reference's integer populations *exactly* at every iteration,
    and track its prices, step sizes and utilities within the pinned
    tolerance.
    """

    #: Former pinned-layout engine name -> the engine that replaced it.
    FORMER_LAYOUTS = {
        "vectorized-dense": "vectorized",
        "vectorized-sparse": "vectorized",
    }

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_WORKLOADS))
    @pytest.mark.parametrize("engine", sorted(FORMER_LAYOUTS))
    def test_layouts_match_reference(self, name, engine):
        make = EQUIVALENCE_WORKLOADS[name]
        reference = LRGP(make(), engine="reference")
        candidate = LRGP(make(), engine=self.FORMER_LAYOUTS[engine])
        for iteration in range(1, 251):
            reference.step()
            candidate.step()
            assert candidate.allocation().populations == (
                reference.allocation().populations
            ), f"populations diverged at iteration {iteration}"
            for accessor in ("node_prices", "link_prices", "node_gammas"):
                expected = getattr(reference, accessor)()
                actual = getattr(candidate, accessor)()
                assert actual.keys() == expected.keys()
                for key, value in expected.items():
                    assert actual[key] == pytest.approx(
                        value, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
                    ), f"{accessor}[{key}] diverged at iteration {iteration}"
        assert_trajectories_match(reference, candidate)
        for flow_id, rate in reference.allocation().rates.items():
            assert candidate.allocation().rates[flow_id] == pytest.approx(
                rate, rel=ENGINE_EQUIVALENCE_RTOL, abs=1e-9
            )

    def test_layout_engines_registered(self):
        """Only the one lowered engine is registered; the pinned-layout
        names are not."""
        names = available_engines()
        assert "vectorized" in names
        assert "vectorized-dense" not in names
        assert "vectorized-sparse" not in names
        with pytest.raises(ValueError):
            create_engine("vectorized-sparse", micro_workload(), LRGPConfig())

    def test_unknown_layout_rejected(self):
        """The engine takes no ``layout`` argument at all."""
        from repro.core.compiled import VectorizedEngine

        for layout in ("csr", "sparse", "dense", "auto"):
            with pytest.raises(TypeError, match="layout"):
                VectorizedEngine(micro_workload(), LRGPConfig(), layout=layout)


class TestEngineProtocol:
    def test_reference_engine_is_lrgp_engine(self):
        engine = create_engine("reference", micro_workload(), LRGPConfig())
        assert isinstance(engine, LRGPEngine)

    def test_vectorized_engine_is_lrgp_engine(self):
        engine = create_engine("vectorized", micro_workload(), LRGPConfig())
        assert isinstance(engine, LRGPEngine)
        assert engine.name == "vectorized"

    def test_adaptive_gamma_prototype_not_shared(self):
        """Each node adapts independently in both engines."""
        config = LRGPConfig(node_gamma=AdaptiveGamma())
        optimizer = LRGP(base_workload(), config, engine="vectorized")
        optimizer.run(120)
        gammas = set(optimizer.node_gammas().values())
        assert len(gammas) > 1

    def test_vectorized_state_reads_back_as_python_scalars(self):
        """Array-held state converts to plain ``int``/``float`` at the
        accessors, before and after a state-preserving rebind."""
        problem = link_bottleneck_workload(200000.0)
        optimizer = LRGP(problem, engine="vectorized")

        def assert_python_scalars():
            for accessor, kind in (
                ("rates", float),
                ("populations", int),
                ("node_prices", float),
                ("link_prices", float),
                ("node_gammas", float),
            ):
                values = getattr(optimizer.engine, accessor)().values()
                assert values and all(type(v) is kind for v in values), accessor

        optimizer.run(20)
        assert_python_scalars()
        optimizer.set_problem(problem.with_node_capacity("S0", 80000.0))
        assert_python_scalars()
        optimizer.step()
        assert_python_scalars()

    def test_problem_without_classes(self):
        """No consumer node at all: empty class and node axes still step."""
        from repro.model.costs import CostModelBuilder
        from repro.model.entities import Flow, Link, Node, Route
        from repro.model.problem import build_problem

        problem = build_problem(
            nodes=[Node("P"), Node("S", capacity=10.0)],
            links=[Link("P->S", tail="P", head="S", capacity=1.5)],
            flows=[Flow("f", source="P", rate_min=1.0, rate_max=2.0)],
            classes=[],
            routes={"f": Route(nodes=("P", "S"), links=("P->S",))},
            costs=CostModelBuilder().set_link("P->S", "f", 1.0).build(),
        )
        reference = LRGP(problem, engine="reference")
        vectorized = LRGP(problem, engine="vectorized")
        reference.run(5)
        vectorized.run(5)
        assert vectorized.utilities == reference.utilities
        assert vectorized.link_prices() == reference.link_prices()
        assert vectorized.node_prices() == {}
