"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure of the paper and both
prints the rendered result and archives it under ``benchmarks/results/``
so a run leaves a complete, diffable record.

Budgets: simulated-annealing step counts default to a laptop-scale budget
and can be raised to the paper's 10^8 via the ``REPRO_SA_STEPS`` environment
variable (expect hours, as the paper reports 23-357 minutes per workload).
"""

from __future__ import annotations

import os
import statistics
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

#: Default SA budget for benchmark runs; the paper used 10**8.
DEFAULT_SA_STEPS = int(os.environ.get("REPRO_SA_STEPS", 500_000))
#: Default LRGP iteration budget (the paper plots 250).
DEFAULT_LRGP_ITERATIONS = int(os.environ.get("REPRO_LRGP_ITERS", 250))


def record_result(name: str, text: str) -> None:
    """Print a rendered experiment and archive it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def median_and_iqr(samples: list[int]) -> tuple[float, float]:
    """Median and interquartile range of timing samples: the value and the
    spread that ``repro bench compare`` reads as ``<metric>`` and
    ``<metric>_iqr``."""
    quartiles = statistics.quantiles(samples, n=4, method="inclusive")
    return statistics.median(samples), quartiles[2] - quartiles[0]
