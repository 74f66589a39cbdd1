#!/usr/bin/env python3
"""The LRGP benchmark: end to end with ``--trace 0``, layer by layer with
``--trace 1``.

Run from the repository root::

    python3 perfbench/run.py --workload fabric-1k --seed 1 --seconds 15 --trace 0

Workloads: ``cold-start``, ``fabric-1k``, ``farm``, ``fabric-1k-observed``
(see ``perfbench/LAYERS.md``).  Every workload is a closed loop: one
caller issues its next operation only after the previous one returned.

``--trace 0`` measures the named workload for ``--seconds`` seconds with
no spans and prints its end-to-end metrics.  ``--trace 1`` is the traced
run.  It covers every layer, so whichever workload is named it runs one
untraced and one traced operation of each of the four, prints every
per-layer metric and the tracing overhead of each workload, and writes
the spans to ``perfbench/out/``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout; without it the
benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from importlib.metadata import version
from pathlib import Path

from common import OUT, ROOT, SRC, Checks, cores, log

WORKLOADS = ("cold-start", "fabric-1k", "farm", "fabric-1k-observed")


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``
    from it; refuse to run against any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _facts(args: argparse.Namespace) -> dict[str, object]:
    import farm

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": cores(),
        "jobs": farm.jobs(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _measure(args: argparse.Namespace) -> tuple[dict[str, tuple[float, str]], Checks]:
    """The untraced run of one workload."""
    import cold_start
    import fabric
    import farm

    if args.workload == "cold-start":
        result = cold_start.measure(args.seconds)
    elif args.workload == "farm":
        result = farm.measure(args.seed, args.seconds)
    else:
        observed = args.workload == "fabric-1k-observed"
        result = fabric.measure(args.seconds, observed)
    for name, (value, unit) in sorted(result.report.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return result.metrics, result.checks


def _trace(args: argparse.Namespace, facts: dict[str, object]) -> tuple[dict[str, tuple[float, str]], Checks]:
    """The traced run: every workload, untraced then traced."""
    import cold_start
    import fabric
    import farm
    from spans import Tracer

    tracer = Tracer()
    checks = Checks()
    metrics: dict[str, tuple[float, str]] = {}
    overhead: dict[str, float] = {}

    layer, overhead["cold-start"], done = cold_start.traced(tracer)
    metrics.update(layer)
    checks.merge(done)
    layer, overhead["fabric-1k"], fabric_step_ms, done = fabric.traced_fabric(tracer)
    metrics.update(layer)
    checks.merge(done)
    layer, overhead["farm"], farm_facts, done = farm.traced(args.seed, tracer)
    metrics.update(layer)
    checks.merge(done)
    facts.update(farm_facts)
    layer, overhead["fabric-1k-observed"], done = fabric.traced_observed(tracer, fabric_step_ms)
    metrics.update(layer)
    checks.merge(done)
    for workload, seconds in overhead.items():
        metrics[f"trace.overhead_s.{workload}"] = (seconds, "s")

    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, facts)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics, checks


def _declared(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    _load_program()
    facts = _facts(args)
    if args.trace:
        metrics, checks = _trace(args, facts)
    else:
        metrics, checks = _measure(args)
    print("facts: " + json.dumps(facts, sort_keys=True))

    declared = _declared(args.trace)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        raise SystemExit(f"perfbench: metrics {produced} do not match BENCHMARK.json {declared}")
    for problem in checks.problems:
        log(f"check failed: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": checks.failed == 0,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
