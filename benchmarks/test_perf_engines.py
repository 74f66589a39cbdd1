"""Perf guard: the vectorized LRGP engine beats the reference dict engine.

The compiled engine (:mod:`repro.core.compiled`) exists to make large
workloads cheap, so the guard measures median per-iteration wall time of
both registered engines across the flow-scaling ladder and requires the
vectorized engine to be at least :data:`SPEEDUP_THRESHOLD` times faster
on the 24-flow workload (``flows-x4``, the paper's Table 2 scale point).

Small workloads are measured for context only: below ~6 flows the numpy
dispatch overhead dominates and the reference engine can win — that
crossover is expected and documented in ``docs/engines.md``, not guarded;
``solve()`` handles it via ``VECTORIZED_MIN_FLOWS`` (the archived
``dispatch`` section).

The *scale* ladder extends the measurements past the paper's scale: the
vectorized engine from 24 flows up to the 1k-flow / 10k-link leaf-spine
fabric and the same fabric with 262,144 classes, archived as the
``scale`` section the same way ``dispatch`` records the fallback below 4
flows.  Each scale leg records its step median with the interquartile
range of its timed steps (``vectorized_ns_iqr``), so ``repro bench
compare`` judges those legs against their own spread.  Two guards (``-m perf``) hold the
1k-flow leg: its step must beat the reference engine's step on the same
machine by :data:`SCALE_SPEEDUP_THRESHOLD` (a machine-normalized time
bound), and its sparse incidence must stay a small fraction of the dense
``L``/``F`` footprint.

Every run archives ``results/BENCH_engines.json`` with the raw numbers.
The guards are marked ``perf`` so they can be selected alone with
``-m perf``.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Callable

import pytest
from conftest import RESULTS_DIR, median_and_iqr

from repro.core.compiled import compile_problem
from repro.core.lrgp import LRGP, LRGPConfig
from repro.model.problem import Problem
from repro.workloads.base import base_workload
from repro.workloads.datacenter import leaf_spine_workload
from repro.workloads.micro import micro_workload
from repro.workloads.scaling import scale_flows

#: The ISSUE's acceptance bar: vectorized >= 3x reference at 24 flows.
SPEEDUP_THRESHOLD = 3.0
#: The workload the guard is enforced on (24 flows).
GUARD_WORKLOAD = "flows-x4"

WARMUP_ITERATIONS = 30
TIMED_ITERATIONS = 200

#: The scale guard's workload: >= 1k flows over a >= 10k-link fabric.
SCALE_WORKLOAD = "leafspine:flows=1024,leaves=100,leaves_per_flow=4,spines=100"
#: Reduced iteration counts for the large legs (per-step cost is
#: milliseconds there; medians stabilize quickly).
SCALE_WARMUP_ITERATIONS = 5
SCALE_TIMED_ITERATIONS = 25
#: The 1k-flow leg with 64 classes per leaf and flow: 262,144 classes.
CLASS_SCALE_WORKLOAD = SCALE_WORKLOAD + ",classes_per_leaf=64"
#: Reference-engine iterations timed at the 1k leg (~0.1 s each).
SCALE_REFERENCE_ITERATIONS = 3
#: The 1k-leg time bound, normalized by the machine's own reference step:
#: the vectorized step measures ~58x faster (Xeon, 2 cores, numpy 2.4),
#: against ~9-11x before admission and eq. 13 were vectorized.
SCALE_SPEEDUP_THRESHOLD = 25.0
#: The scale leg must keep at least this much of the dense footprint off
#: the table (the measured ratio is ~290x; 10x is the hard floor that
#: still proves nonzero-proportional scaling).
MEMORY_RATIO_FLOOR = 10.0

WORKLOADS: tuple[tuple[str, Callable[[], Problem]], ...] = (
    ("micro", micro_workload),
    ("base", base_workload),
    ("flows-x2", lambda: scale_flows(2)),
    ("flows-x4", lambda: scale_flows(4)),
    ("flows-x8", lambda: scale_flows(8)),
)

#: Scale ladder: the paper ladder's top plus fabric workloads up to the
#: 1k-flow leg.  (name, factory, warmup, timed).
SCALE_WORKLOADS: tuple[
    tuple[str, Callable[[], Problem], int, int], ...
] = (
    ("flows-x4", lambda: scale_flows(4), WARMUP_ITERATIONS, TIMED_ITERATIONS),
    ("flows-x8", lambda: scale_flows(8), WARMUP_ITERATIONS, TIMED_ITERATIONS),
    (
        "leafspine:flows=256,leaves=64,spines=32",
        lambda: leaf_spine_workload(spines=32, leaves=64, flows=256),
        10,
        50,
    ),
    (
        SCALE_WORKLOAD,
        lambda: leaf_spine_workload(
            spines=100, leaves=100, flows=1024, leaves_per_flow=4
        ),
        SCALE_WARMUP_ITERATIONS,
        SCALE_TIMED_ITERATIONS,
    ),
    (
        CLASS_SCALE_WORKLOAD,
        lambda: leaf_spine_workload(
            spines=100, leaves=100, flows=1024, leaves_per_flow=4, classes_per_leaf=64
        ),
        2,
        SCALE_TIMED_ITERATIONS,
    ),
)


def step_samples_ns(
    problem: Problem,
    engine: str,
    warmup: int = WARMUP_ITERATIONS,
    timed: int = TIMED_ITERATIONS,
) -> list[int]:
    """Wall times of ``timed`` warm LRGP iterations under ``engine``."""
    optimizer = LRGP(problem, LRGPConfig.adaptive(), engine=engine)
    optimizer.run(warmup)
    samples = []
    for _ in range(timed):
        start = time.perf_counter_ns()
        optimizer.step()
        samples.append(time.perf_counter_ns() - start)
    return samples


def median_step_ns(
    problem: Problem,
    engine: str,
    warmup: int = WARMUP_ITERATIONS,
    timed: int = TIMED_ITERATIONS,
) -> float:
    """Median wall time of one warm LRGP iteration under ``engine``."""
    return statistics.median(step_samples_ns(problem, engine, warmup, timed))


@pytest.fixture(scope="module")
def engine_rows() -> list[dict[str, float | int | str]]:
    """Measure both engines on every workload (shared by both tests)."""
    rows: list[dict[str, float | int | str]] = []
    for name, factory in WORKLOADS:
        problem = factory()
        reference_ns = median_step_ns(problem, "reference")
        vectorized_ns = median_step_ns(problem, "vectorized")
        rows.append(
            {
                "name": name,
                "flows": len(problem.flows),
                "reference_ns": reference_ns,
                "vectorized_ns": vectorized_ns,
                "speedup": reference_ns / vectorized_ns,
            }
        )
    return rows


@pytest.fixture(scope="module")
def scale_rows() -> list[dict[str, float | int | str]]:
    """Measure the vectorized engine along the scale ladder.

    The reference engine runs only on the 1k-flow leg, and only for
    :data:`SCALE_REFERENCE_ITERATIONS` steps: one reference iteration there
    costs more than the whole vectorized sample.  The 262k-class leg is
    timed on the vectorized engine alone.
    """
    rows: list[dict[str, float | int | str]] = []
    for name, factory, warmup, timed in SCALE_WORKLOADS:
        problem = factory()
        compiled = compile_problem(problem)
        median, iqr = median_and_iqr(
            step_samples_ns(problem, "vectorized", warmup, timed)
        )
        row: dict[str, float | int | str] = {
            "name": name,
            "flows": compiled.n_flows,
            "links": compiled.n_links,
            "classes": compiled.n_classes,
            "incidence_nnz": compiled.nnz_link + compiled.nnz_node,
            "sparse_bytes": compiled.sparse_nbytes(),
            "dense_bytes": 8
            * (compiled.n_links + compiled.n_nodes)
            * compiled.n_flows,
            "vectorized_ns": median,
            "vectorized_ns_iqr": iqr,
        }
        if name == SCALE_WORKLOAD:
            row["reference_ns"] = median_step_ns(
                problem, "reference", 1, SCALE_REFERENCE_ITERATIONS
            )
            row["speedup"] = row["reference_ns"] / row["vectorized_ns"]
        rows.append(row)
    return rows


def test_benchmark_engines_archives_results(engine_rows, scale_rows):
    payload = {
        "version": 3,
        "timed_iterations": TIMED_ITERATIONS,
        "warmup_iterations": WARMUP_ITERATIONS,
        "guard_workload": GUARD_WORKLOAD,
        "threshold": SPEEDUP_THRESHOLD,
        "workloads": engine_rows,
        "dispatch": {
            "crossover_flows": 4,
            "note": (
                "speedup < 1.0 at 2 flows (micro), > 2.3 at 6 flows (base); "
                "solve() falls back to the reference engine below "
                "VECTORIZED_MIN_FLOWS = 4 and records "
                "metadata['engine_fallback']"
            ),
            "source_workloads": ["micro", "base"],
        },
        "scale": {
            "guard_workload": SCALE_WORKLOAD,
            "threshold": SCALE_SPEEDUP_THRESHOLD,
            "note": (
                "one sparse (COO) layout at every size; the 1k-flow leg's "
                "step is guarded against the reference step on the same "
                "machine, and its incidence against the dense L/F footprint "
                f"(>={MEMORY_RATIO_FLOOR:.0f}x smaller); the 262k-class leg "
                "is recorded, not guarded; vectorized_ns_iqr is the spread "
                "of each leg's timed steps"
            ),
            "source_workloads": [row["name"] for row in scale_rows],
            "workloads": scale_rows,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engines.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print()
    for row in engine_rows:
        print(
            f"{row['name']:>9} ({row['flows']:>2} flows): reference "
            f"{row['reference_ns']:>9.0f}ns, vectorized "
            f"{row['vectorized_ns']:>9.0f}ns, speedup {row['speedup']:.2f}x"
        )
    for row in scale_rows:
        print(
            f"{row['name']:>42} ({row['flows']:>4} flows, "
            f"{row['links']:>5} links): vectorized "
            f"{row['vectorized_ns']:>10.0f}ns, incidence "
            f"{row['sparse_bytes']}/{row['dense_bytes']} bytes"
        )
    for row in engine_rows:
        assert row["reference_ns"] > 0.0
        assert row["vectorized_ns"] > 0.0
    for row in scale_rows:
        assert row["vectorized_ns"] > 0.0


@pytest.mark.perf
def test_vectorized_speedup_at_24_flows(engine_rows):
    row = next(r for r in engine_rows if r["name"] == GUARD_WORKLOAD)
    assert row["flows"] == 24
    assert row["speedup"] >= SPEEDUP_THRESHOLD, (
        f"vectorized engine is only {row['speedup']:.2f}x the reference "
        f"engine at {row['flows']} flows (bar: {SPEEDUP_THRESHOLD:.0f}x)"
    )


@pytest.mark.perf
def test_step_time_1k_flows(scale_rows):
    """The 1k-flow leg's step time, normalized by the reference engine's
    step on the same machine (so the bound travels across hardware)."""
    row = next(r for r in scale_rows if r["name"] == SCALE_WORKLOAD)
    assert row["speedup"] >= SCALE_SPEEDUP_THRESHOLD, (
        f"vectorized 1k-flow step ({row['vectorized_ns'] / 1e6:.2f} ms) is "
        f"only {row['speedup']:.1f}x the reference step "
        f"(bar: {SCALE_SPEEDUP_THRESHOLD:.0f}x)"
    )


@pytest.mark.perf
def test_sparse_scale_1k_flows(scale_rows):
    """1k+ flows / 10k+ links on nonzero-sized arrays.

    The incidence footprint must be a small fraction of what the dense
    ``L``/``F`` matrices would occupy, and the leg must solve.
    """
    row = next(r for r in scale_rows if r["name"] == SCALE_WORKLOAD)
    assert row["flows"] >= 1024
    assert row["links"] >= 10_000
    assert row["dense_bytes"] / row["sparse_bytes"] >= MEMORY_RATIO_FLOOR

    problem = leaf_spine_workload(
        spines=100, leaves=100, flows=1024, leaves_per_flow=4
    )
    optimizer = LRGP(problem, LRGPConfig.adaptive(), engine="vectorized")
    outcome = None
    for _ in range(SCALE_WARMUP_ITERATIONS):
        outcome = optimizer.step()
    assert outcome is not None and outcome.utility > 0.0
