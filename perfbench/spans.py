"""Spans the benchmark records around its calls into the program.

A span is a dict with ``id``, ``name``, ``parent`` (the enclosing span's
id), ``trace`` (one id per CLI call, step or sweep cell, shared by the
spans of that request) and ``start_ns``/``end_ns`` on the
``time.perf_counter_ns`` clock.  On Linux that clock is
``CLOCK_MONOTONIC``, so spans a child process reports line up with the
parent's.  Spans stay in memory until :meth:`Tracer.write` at the end of
the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections.abc import Iterator
from pathlib import Path
from typing import Any


class Tracer:
    """Records nested spans in memory."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[dict[str, Any]] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[dict[str, Any]]:
        """Time the ``with`` body as one span nested under the open one."""
        record = self._new(name, trace, time.perf_counter_ns(), 0)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def add(self, name: str, start_ns: int, end_ns: int, trace: str | None = None) -> dict[str, Any]:
        """Record a span timed elsewhere (a child process, a pool worker)
        under the currently open span."""
        return self._new(name, trace, start_ns, end_ns)

    def _new(
        self, name: str, trace: str | None, start_ns: int, end_ns: int
    ) -> dict[str, Any]:
        parent = self._open[-1] if self._open else None
        if trace is None and parent is not None:
            trace = parent["trace"]
        record = {
            "id": len(self.spans) + 1,
            "name": name,
            "parent": None if parent is None else parent["id"],
            "trace": trace,
            "start_ns": start_ns,
            "end_ns": end_ns,
        }
        self.spans.append(record)
        return record

    def named(self, name: str) -> list[dict[str, Any]]:
        return [span for span in self.spans if span["name"] == name]

    def seconds(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in seconds."""
        return [duration(span) for span in self.named(name)]

    def write(self, path: Path, header: dict[str, Any]) -> None:
        """Write the header line, then one span per line (JSONL), each
        with its self time: its duration minus the part its children
        cover.  Children of a sweep pass run in parallel workers and
        overlap, so the covered part is the union of their intervals."""
        children: dict[int, list[dict[str, Any]]] = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            stream.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                record = dict(span, self_ns=_self_ns(span, children.get(span["id"], [])))
                stream.write(json.dumps(record, sort_keys=True) + "\n")


def _self_ns(span: dict[str, Any], children: list[dict[str, Any]]) -> int:
    covered = 0
    reach = span["start_ns"]
    for child in sorted(children, key=lambda child: child["start_ns"]):
        start = max(child["start_ns"], reach)
        end = min(child["end_ns"], span["end_ns"])
        if end > start:
            covered += end - start
            reach = end
    return span["end_ns"] - span["start_ns"] - covered


class NullTracer:
    """The untraced path: every span is a shared no-op context."""

    _NULL = contextlib.nullcontext()

    def span(self, name: str, trace: str | None = None) -> contextlib.nullcontext:
        return self._NULL


NULL_TRACER = NullTracer()


def duration(span: dict[str, Any]) -> float:
    return (span["end_ns"] - span["start_ns"]) / 1e9
