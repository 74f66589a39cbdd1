"""Shared fixtures for the test suite."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.lrgp import LRGP, LRGPConfig
from repro.model.problem import Problem, build_problem
from repro.utility.functions import (
    ExponentialSaturationUtility,
    LogUtility,
    PowerUtility,
)
from repro.workloads.base import base_workload
from repro.workloads.micro import micro_workload


@pytest.fixture(scope="session")
def base_problem() -> Problem:
    """The paper's Table 1 workload (log utility)."""
    return base_workload()


@pytest.fixture(scope="session")
def converged_lrgp(base_problem: Problem) -> LRGP:
    """LRGP run for 250 iterations on the base workload (read-only!)."""
    optimizer = LRGP(base_problem, LRGPConfig.adaptive())
    optimizer.run(250)
    return optimizer


#: The library's micro workload doubles as the suite's tiny instance.
make_tiny_problem = micro_workload


@pytest.fixture()
def tiny_problem() -> Problem:
    return make_tiny_problem()


def mixed_shapes(problem: Problem) -> Problem:
    """``problem`` with every flow's classes cycled through three utility
    families (power, exponential saturation, log), keeping each class's
    rank as its scale.

    A flow with two or more classes then mixes families, so neither
    engine has a shared closed form for it: the vectorized engine marks
    it generic and both engines solve eq. 7 with
    :func:`repro.utility.calculus.solve_rate`.
    """
    classes = []
    for flow_id in sorted(problem.flows):
        for k, class_id in enumerate(problem.classes_of_flow(flow_id)):
            cls = problem.classes[class_id]
            rank = cls.utility.scale
            utility = (
                PowerUtility(scale=rank, exponent=0.5),
                ExponentialSaturationUtility(scale=5.0 * rank, knee=200.0),
                LogUtility(scale=rank),
            )[k % 3]
            classes.append(dataclasses.replace(cls, utility=utility))
    return build_problem(
        nodes=problem.nodes.values(),
        links=problem.links.values(),
        flows=problem.flows.values(),
        classes=classes,
        routes={flow_id: problem.route(flow_id) for flow_id in problem.flows},
        costs=problem.costs,
    )
