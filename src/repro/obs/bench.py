"""``repro.obs.bench`` — benchmark trajectory artifact + regression watchdog.

The perf suites under ``benchmarks/`` each archive a ``BENCH_*.json``
with their raw numbers (engine speedups, telemetry overhead, fault
recovery).  This module consolidates those per-suite artifacts into one
flat *trajectory* snapshot — ``{"metrics": {"engines.workloads.3.speedup":
3.72, ...}}`` — and diffs two snapshots, flagging metric movements past a
threshold as regressions or improvements.

Direction is inferred from the metric name: latencies/overheads
(``*_ns``, ``*overhead*``, ``*time*``...) regress when they go *up*,
speedups/retention regress when they go *down*, and metrics with no
recognizable direction are reported as neutral ``changes`` (never
regressions — a watchdog that cries wolf on renamed counters gets
deleted from CI within a month).

A metric archived as ``null`` — a number the machine could not measure,
such as a parallel speedup on fewer cores than workers — is *unmeasured*:
snapshots list it under ``"unmeasured"`` instead of ``"metrics"``, and a
comparison skips it rather than diffing it or reporting it missing.

A metric archived with its spread — a sibling leaf ``<metric>_iqr``
holding the interquartile range of its repeats — is compared against
that noise: it is flagged only when the new value falls outside the old
value ± ``NOISE_FACTOR`` x IQR of the old snapshot.  Metrics without a recorded spread keep
the flat relative ``threshold``.  The ``_iqr`` leaves themselves are the
band, not metrics, and are never diffed.

When a latency-like metric regresses and both snapshots carry profiler
phase metrics (``*.self_seconds``, from ``repro profile`` /
``BENCH_profile.json``), the comparison also ranks the phases whose
exclusive time grew the most — *regression blame* — so the report names
the slow phase, not just the slow total.

CLI surface: ``repro bench snapshot`` writes the trajectory artifact,
``repro bench compare <old> <new>`` reports the diff (CI runs it as a
non-blocking step; ``--strict`` turns regressions into a failing exit).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.utility.tolerance import is_zero

__all__ = [
    "BenchComparison",
    "MetricDelta",
    "PhaseBlame",
    "collect_metrics",
    "compare_snapshots",
    "consolidate",
    "metric_direction",
    "render_comparison",
]

#: Default movement (relative) past which a metric is flagged.
DEFAULT_THRESHOLD = 0.10

#: Suffix of the leaf recording a metric's spread (interquartile range).
SPREAD_SUFFIX = "_iqr"
#: Half-width, in IQRs, of the noise band around a metric with a recorded
#: spread (Tukey's fence factor).
NOISE_FACTOR = 1.5

#: Tags marking a metric where *up is worse* (latency/deficit-like;
#: ``loss``/``drop`` cover deficit metrics such as ``utility_loss`` and
#: ``retention_drop``)...
_LOWER_IS_BETTER = (
    "_ns",
    "overhead",
    "time",
    "lost",
    "stale",
    "downtime",
    "misses",
    "loss",
    "drop",
)
#: ...and where *down is worse* (throughput-like; ``hit_rate``/``hits``
#: cover the sweep farm's cache effectiveness).
_HIGHER_IS_BETTER = ("speedup", "retention", "utility", "throughput", "hit_rate", "hits")


def _match_strength(leaf: str, tags: tuple[str, ...]) -> int:
    """How strongly ``leaf`` matches a tag family.

    3 = exact leaf match, 2 = suffix match (the trailing word), 1 = bare
    substring, 0 = no match.  Stronger match kinds always outrank weaker
    ones so the family whose tag *ends* the name wins over one merely
    mentioned inside it.
    """
    best = 0
    for tag in tags:
        bare = tag.lstrip("_")
        if leaf == bare:
            return 3
        if leaf.endswith(tag) or leaf.endswith(f"_{bare}"):
            best = max(best, 2)
        elif bare in leaf:
            best = max(best, 1)
    return best


def metric_direction(name: str) -> str:
    """``"lower"`` | ``"higher"`` (is better) | ``"neutral"``.

    The last path segment decides, so ``faults.single_crash.cold.
    recovery_time`` is latency-like even though the prefix is not.
    Exact and suffix tag matches take precedence over substring hits —
    ``utility_loss`` is a deficit (lower is better) even though it
    mentions ``utility`` — and an unresolvable tie between the families
    is reported neutral rather than guessed.
    """
    leaf = name.rsplit(".", 1)[-1].lower()
    lower = _match_strength(leaf, _LOWER_IS_BETTER)
    higher = _match_strength(leaf, _HIGHER_IS_BETTER)
    if lower > higher:
        return "lower"
    if higher > lower:
        return "higher"
    return "neutral"


def _leaves(payload: Any, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """``(dotted path, value)`` for every leaf of a JSON payload; keys join
    with ``.`` and list elements use their index."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _leaves(value, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _leaves(value, f"{prefix}.{index}" if prefix else str(index))
    else:
        yield prefix, payload


def collect_metrics(payload: Any, prefix: str = "") -> dict[str, float]:
    """Flatten every finite numeric leaf of a JSON payload.

    Keys join with ``.``; list elements use their index.  Booleans and
    non-finite floats are skipped — they are flags and sentinels, not
    performance metrics.
    """
    return {
        path: float(value)
        for path, value in _leaves(payload, prefix)
        if isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    }


def _null_leaves(payload: Any, prefix: str = "") -> list[str]:
    """Dotted paths of the ``null`` leaves of a JSON payload: the
    unmeasured metrics."""
    return [path for path, value in _leaves(payload, prefix) if value is None]


def consolidate(results_dir: str | Path) -> dict[str, Any]:
    """Merge every ``BENCH_*.json`` under ``results_dir`` into one snapshot.

    Metric names are prefixed with the suite name (``BENCH_engines.json``
    -> ``engines.``).  Unparseable artifacts are reported in ``skipped``
    instead of aborting the snapshot — one corrupt suite must not cost
    the trajectory of the others.
    """
    directory = Path(results_dir)
    metrics: dict[str, float] = {}
    unmeasured: list[str] = []
    suites: list[str] = []
    skipped: list[str] = []
    for path in sorted(directory.glob("BENCH_*.json")):
        suite = path.stem.removeprefix("BENCH_")
        if suite == "trajectory":
            continue  # never fold a snapshot into itself
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            skipped.append(path.name)
            continue
        suites.append(suite)
        metrics.update(collect_metrics(payload, suite))
        unmeasured.extend(_null_leaves(payload, suite))
    return {
        "version": 1,
        "suites": suites,
        "skipped": skipped,
        "metrics": {name: metrics[name] for name in sorted(metrics)},
        "unmeasured": sorted(unmeasured),
    }


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two snapshots."""

    name: str
    old: float
    new: float
    #: Relative change ``(new - old) / |old|``; ``inf`` when old == 0.
    change: float
    direction: str  # "lower" | "higher" | "neutral"
    #: The recorded IQR the move was judged against; ``None`` when the
    #: flat relative threshold applied.
    spread: float | None = None

    @property
    def is_regression(self) -> bool:
        if self.direction == "lower":
            return self.change > 0.0
        if self.direction == "higher":
            return self.change < 0.0
        return False


@dataclass(frozen=True)
class PhaseBlame:
    """One profiler phase implicated in a wall-clock regression.

    ``metric`` is the full ``*.self_seconds`` metric name, ``phase`` its
    dotted phase path (``solve.iteration.argmax``), ``delta_seconds`` the
    absolute self-time growth and ``change`` the relative one.
    """

    phase: str
    metric: str
    old: float
    new: float
    delta_seconds: float
    change: float


@dataclass(frozen=True)
class BenchComparison:
    """Diff of two trajectory snapshots at one threshold."""

    threshold: float
    regressions: tuple[MetricDelta, ...]
    improvements: tuple[MetricDelta, ...]
    changes: tuple[MetricDelta, ...]  # neutral-direction movements
    stable: int
    missing: tuple[str, ...]  # in old only
    added: tuple[str, ...]  # in new only
    #: Phase self-times that grew the most, ranked — populated only when a
    #: latency-like metric regressed and both snapshots carry phase data.
    blame: tuple[PhaseBlame, ...] = ()
    #: Metrics ``null`` (unmeasured) in either snapshot: never diffed.
    unmeasured: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        def rows(deltas: tuple[MetricDelta, ...]) -> list[dict[str, Any]]:
            return [
                {
                    "metric": delta.name,
                    "old": delta.old,
                    "new": delta.new,
                    "change": delta.change,
                    "direction": delta.direction,
                    "spread": delta.spread,
                }
                for delta in deltas
            ]

        return {
            "threshold": self.threshold,
            "regressions": rows(self.regressions),
            "improvements": rows(self.improvements),
            "changes": rows(self.changes),
            "stable": self.stable,
            "missing": list(self.missing),
            "added": list(self.added),
            "unmeasured": list(self.unmeasured),
            "blame": [
                {
                    "phase": entry.phase,
                    "metric": entry.metric,
                    "old": entry.old,
                    "new": entry.new,
                    "delta_seconds": entry.delta_seconds,
                    "change": entry.change,
                }
                for entry in self.blame
            ],
        }


def _metrics_of(snapshot: dict[str, Any]) -> dict[str, float]:
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        # A raw BENCH_*.json handed directly to compare: flatten it.
        return collect_metrics(snapshot)
    return {
        str(name): float(value)
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def _unmeasured_of(snapshot: dict[str, Any]) -> set[str]:
    """Null metric names of a snapshot (trajectory form or raw payload)."""
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        return set(_null_leaves(snapshot))
    return set(snapshot.get("unmeasured", ())) | set(_null_leaves(metrics))


#: Metric suffix identifying a profiler phase's exclusive time.
_PHASE_SELF_SUFFIX = ".self_seconds"

#: How many phases a blame report names, most-moved first.
_BLAME_LIMIT = 5


def _phase_label(metric: str) -> str:
    """``profile.phases.solve.iteration.argmax.self_seconds`` -> dotted phase."""
    label = metric.removesuffix(_PHASE_SELF_SUFFIX)
    if ".phases." in label:
        label = label.split(".phases.", 1)[1]
    return label


def _blame_phases(
    old_metrics: dict[str, float], new_metrics: dict[str, float]
) -> tuple[PhaseBlame, ...]:
    """Rank the phases whose self-time grew, largest absolute growth first.

    Only phases present in both snapshots participate — a phase that
    appeared or vanished is a code change, not a slowdown to attribute.
    """
    entries: list[PhaseBlame] = []
    for name in set(old_metrics) & set(new_metrics):
        if not name.endswith(_PHASE_SELF_SUFFIX):
            continue
        before, after = old_metrics[name], new_metrics[name]
        delta = after - before
        if delta <= 0.0:
            continue
        entries.append(
            PhaseBlame(
                phase=_phase_label(name),
                metric=name,
                old=before,
                new=after,
                delta_seconds=delta,
                change=math.inf if is_zero(before) else delta / abs(before),
            )
        )
    entries.sort(key=lambda entry: (-entry.delta_seconds, entry.metric))
    return tuple(entries[:_BLAME_LIMIT])


def _split_spreads(
    metrics: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, spreads)``: each ``<name>_iqr`` leaf whose ``<name>`` is
    also a metric moves out of the metrics into ``spreads[name]``."""
    spreads = {
        name.removesuffix(SPREAD_SUFFIX): value
        for name, value in metrics.items()
        if name.endswith(SPREAD_SUFFIX) and name.removesuffix(SPREAD_SUFFIX) in metrics
    }
    rest = {
        name: value
        for name, value in metrics.items()
        if name.removesuffix(SPREAD_SUFFIX) not in spreads or name in spreads
    }
    return rest, spreads


def compare_snapshots(
    old: dict[str, Any],
    new: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """Diff two snapshots (trajectory form, or raw ``BENCH_*`` payloads).

    A metric with a spread recorded in the old snapshot is flagged when it
    moves more than ``NOISE_FACTOR`` IQRs; any other metric when it moves
    more than ``threshold`` relative.
    """
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    unmeasured = _unmeasured_of(old) | _unmeasured_of(new)
    old_metrics = {
        name: value
        for name, value in _metrics_of(old).items()
        if name not in unmeasured
    }
    new_metrics = {
        name: value
        for name, value in _metrics_of(new).items()
        if name not in unmeasured
    }
    old_metrics, old_spreads = _split_spreads(old_metrics)
    new_metrics, _ = _split_spreads(new_metrics)
    regressions: list[MetricDelta] = []
    improvements: list[MetricDelta] = []
    changes: list[MetricDelta] = []
    stable = 0
    for name in sorted(set(old_metrics) & set(new_metrics)):
        before, after = old_metrics[name], new_metrics[name]
        if before == after:
            stable += 1
            continue
        change = (
            math.inf if is_zero(before) else (after - before) / abs(before)
        )
        spread = old_spreads.get(name)
        if spread is None:
            within_noise = abs(change) <= threshold
        else:
            within_noise = abs(after - before) <= NOISE_FACTOR * spread
        if within_noise:
            stable += 1
            continue
        delta = MetricDelta(
            name=name,
            old=before,
            new=after,
            change=change,
            direction=metric_direction(name),
            spread=spread,
        )
        if delta.is_regression:
            regressions.append(delta)
        elif delta.direction == "neutral":
            changes.append(delta)
        else:
            improvements.append(delta)
    regressions.sort(key=lambda delta: -abs(delta.change))
    improvements.sort(key=lambda delta: -abs(delta.change))
    changes.sort(key=lambda delta: -abs(delta.change))
    blame: tuple[PhaseBlame, ...] = ()
    if any(delta.direction == "lower" for delta in regressions):
        blame = _blame_phases(old_metrics, new_metrics)
    return BenchComparison(
        threshold=threshold,
        regressions=tuple(regressions),
        improvements=tuple(improvements),
        changes=tuple(changes),
        stable=stable,
        missing=tuple(sorted(set(old_metrics) - set(new_metrics))),
        added=tuple(sorted(set(new_metrics) - set(old_metrics))),
        blame=blame,
        unmeasured=tuple(sorted(unmeasured)),
    )


def _format_change(change: float) -> str:
    return "new-from-zero" if math.isinf(change) else f"{change:+.1%}"


def render_comparison(comparison: BenchComparison) -> str:
    """Human-readable diff (the ``repro bench compare`` output)."""
    lines = [
        f"benchmark comparison (threshold {comparison.threshold:.0%}, "
        f"or {NOISE_FACTOR:g} x IQR where recorded): "
        f"{len(comparison.regressions)} regression(s), "
        f"{len(comparison.improvements)} improvement(s), "
        f"{len(comparison.changes)} neutral change(s), "
        f"{comparison.stable} stable"
    ]
    for title, deltas in (
        ("regressions", comparison.regressions),
        ("improvements", comparison.improvements),
        ("changes", comparison.changes),
    ):
        if not deltas:
            continue
        lines.append(f"{title}:")
        for delta in deltas:
            arrow = "worse" if delta.is_regression else (
                "better" if delta.direction != "neutral" else "moved"
            )
            band = (
                ""
                if delta.spread is None
                else f", outside ±{NOISE_FACTOR:g} x IQR {delta.spread:g}"
            )
            lines.append(
                f"  {delta.name}: {delta.old:g} -> {delta.new:g} "
                f"({_format_change(delta.change)}, {arrow}{band})"
            )
    if comparison.blame:
        lines.append("regression blame (phase self-time growth):")
        for entry in comparison.blame:
            lines.append(
                f"  {entry.phase}: {entry.old:g}s -> {entry.new:g}s "
                f"(+{entry.delta_seconds:g}s, {_format_change(entry.change)})"
            )
    if comparison.missing:
        lines.append(
            f"missing in new: {', '.join(comparison.missing[:10])}"
            + (" ..." if len(comparison.missing) > 10 else "")
        )
    if comparison.added:
        lines.append(
            f"added in new: {', '.join(comparison.added[:10])}"
            + (" ..." if len(comparison.added) > 10 else "")
        )
    if comparison.unmeasured:
        lines.append(
            f"unmeasured (skipped): {', '.join(comparison.unmeasured[:10])}"
            + (" ..." if len(comparison.unmeasured) > 10 else "")
        )
    return "\n".join(lines)
