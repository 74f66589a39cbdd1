"""``cold-start``: fresh ``repro optimize base --engine vectorized --json``
processes, one after another.

This is what a user waits for at paper scale: interpreter start, imports
(most of the wall time), building ``base``, a ~30 ms solve and printing
the JSON.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from typing import Any

from common import ROOT, Checks, Measurement, child_env, median, peak_rss_mb, window
from spans import Tracer

import repro
from repro.utility.tolerance import ENGINE_EQUIVALENCE_RTOL as RTOL

CLI = [sys.executable, "-m", "repro", "optimize", "base", "--engine", "vectorized", "--json"]
CHILD = [sys.executable, str(ROOT / "perfbench" / "cli_child.py")]
#: One fresh-process set-up per this many CLI calls, spread through the run.
SETUP_EVERY = 2
#: CLI calls and traced-child calls per traced run, for medians.
TRACE_CALLS = 3
#: Generous per-process limit; a healthy call takes ~1.2 s.
PROCESS_TIMEOUT_S = 120


def _spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess[str]]:
    started = time.perf_counter()
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
        check=False,
    )
    return time.perf_counter() - started, proc


def _without_wall(payload: dict[str, Any]) -> str:
    trimmed = dict(payload)
    trimmed.pop("wall_time_seconds", None)
    return json.dumps(trimmed, indent=2, sort_keys=True)


class Expected:
    """What every CLI call must print, computed in-process once."""

    def __init__(self) -> None:
        problem = repro.workload_from_spec("base")
        config = repro.LRGPConfig()
        self.text = _without_wall(
            repro.solve(problem, "lrgp", engine="vectorized", config=config).to_dict()
        )
        self.reference_utility = repro.solve(
            problem, "lrgp", engine="reference", config=config
        ).utility

    def failures(self, code: int, stdout: str, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()[-300:]}"]
        try:
            payload = json.loads(stdout)
        except ValueError as error:
            return [f"output is not JSON: {error}"]
        failures = []
        if _without_wall(payload) != self.text:
            failures.append("CLI JSON differs from in-process repro.solve(...).to_dict()")
        if payload.get("engine") != "vectorized":
            failures.append(f"ran engine {payload.get('engine')!r}, not vectorized")
        if not math.isclose(payload["utility"], self.reference_utility, rel_tol=RTOL):
            failures.append(
                f"utility {payload['utility']!r} not within {RTOL} of the "
                f"reference engine's {self.reference_utility!r}"
            )
        return failures


def _set_up(checks: Checks, samples: list[float], label: str) -> None:
    """Time one fresh-process import, build and bind, without a solve."""
    seconds, proc = _spawn([*CHILD, "setup"])
    failures = [] if proc.returncode == 0 else [proc.stderr.strip()[-300:]]
    if checks.record(label, failures):
        samples.append(seconds)


def measure(seconds: float) -> Measurement:
    """The untraced run.  There is no seed: ``base`` is fixed."""
    checks = Checks()
    expected = Expected()
    setup: list[float] = []
    walls: list[float] = []
    steps_ms: list[float] = []
    for index in window(seconds):
        if index % SETUP_EVERY == 0:
            _set_up(checks, setup, f"setup {index}")
        wall, proc = _spawn(CLI)
        if checks.record(f"call {index}", expected.failures(proc.returncode, proc.stdout, proc.stderr)):
            payload = json.loads(proc.stdout)
            walls.append(wall)
            steps_ms.append(payload["wall_time_seconds"] / payload["iterations"] * 1e3)
    return Measurement(
        metrics={
            "setup_s": (min(setup), "s"),
            "unit_ms_min": (min(steps_ms), "ms"),
            "peak_rss_mb": (peak_rss_mb(children=True), "MB"),
        },
        checks=checks,
        report={
            "setup_s_p50": (median(setup), "s"),
            "optimize_s_p50": (median(walls), "s"),
            "iteration_ms_p50": (median(steps_ms), "ms"),
            "calls": (len(walls), "count"),
        },
    )


def traced(tracer: Tracer) -> tuple[dict[str, tuple[float, str]], float, Checks]:
    """Per-layer numbers: untraced CLI calls against traced in-process CLI
    runs in fresh interpreters.  Returns (metrics, tracing overhead, checks)."""
    checks = Checks()
    expected = Expected()
    cli_walls: list[float] = []
    child_walls: list[float] = []
    layer_sums: list[float] = []
    import_s: list[float] = []
    serialize_ms: list[float] = []
    modules = 0
    for index in range(TRACE_CALLS):
        wall, proc = _spawn(CLI)
        if checks.record(f"call {index}", expected.failures(proc.returncode, proc.stdout, proc.stderr)):
            cli_walls.append(wall)
        trace = f"cli-{index}"
        with tracer.span("cli.traced_call", trace=trace) as parent:
            _, proc = _spawn([*CHILD, "trace"])
        if proc.returncode != 0:
            checks.record(f"traced call {index}", [proc.stderr.strip()[-300:]])
            continue
        record = json.loads(proc.stdout)
        failures = expected.failures(record["code"], record["stdout"], "")
        if not checks.record(f"traced call {index}", failures):
            continue
        child_walls.append((parent["end_ns"] - parent["start_ns"]) / 1e9)
        modules = record["modules"]
        ids: dict[str, int] = {}
        by_name: dict[str, float] = {}
        for span in sorted(record["spans"], key=lambda span: span["start_ns"]):
            added = tracer.add(span["name"], span["start_ns"], span["end_ns"], trace=trace)
            added["parent"] = ids.get(span["parent"], parent["id"])
            ids[span["name"]] = added["id"]
            by_name[span["name"]] = (span["end_ns"] - span["start_ns"]) / 1e9
        layer_sums.append(
            by_name["import"]
            + by_name["workloads.build"]
            + by_name["solve.solve"]
            + by_name["solve.serialize"]
        )
        import_s.append(by_name["import"])
        serialize_ms.append(by_name["solve.serialize"] * 1e3)
    metrics = {
        "import.wall_s": (median(import_s), "s"),
        "import.modules": (float(modules), "count"),
        "solve.serialize_ms": (median(serialize_ms), "ms"),
        "cli.overhead_s": (median(cli_walls) - median(layer_sums), "s"),
    }
    return metrics, median(child_walls) - median(cli_walls), checks
