"""Trace sinks: where typed events go.

A sink is anything with ``emit(event)`` and ``close()``
(:class:`TraceSink`).  Four implementations cover the repo's needs:

* :class:`NullSink` — the default; discards everything, costs nothing.
* :class:`MemorySink` — buffers events in a list for tests, diagnostics
  and the ``repro stats`` command.
* :class:`JsonlSink` — one JSON object per line, the lossless archival
  format (``event_from_dict`` round-trips every type; a columnar
  record is one line).
* :class:`CsvSink` — flat tabular export; events are flattened via their
  ``flatten()`` mapping and the column set is the union of observed keys
  (or a caller-pinned ordered list, which is how ``repro.core.trace``
  keeps its documented column order stable).

Formatting discipline (the old ``core.trace`` inconsistency, fixed):
floats render with ``repr`` (lossless round-trip), ints with ``str``,
``None`` as the empty cell — one rule for every column.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path
from typing import IO, Any, Iterator, Protocol, runtime_checkable

from repro.obs.events import (
    TraceEvent,
    TraceEventError,
    event_from_dict,
    expand,
    select,
)


@runtime_checkable
class TraceSink(Protocol):
    """Anything that accepts a stream of trace events."""

    def emit(self, event: TraceEvent) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """Discards every event; the allocation-free default."""

    __slots__ = ()

    def emit(self, event: TraceEvent) -> None:
        pass

    def close(self) -> None:
        pass


NULL_SINK = NullSink()


class MemorySink:
    """Buffers events in memory (tests, diagnostics, ``repro stats``)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass

    def clear(self) -> None:
        self.events.clear()

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All buffered events with the given ``kind`` tag, in order.

        Columnar records count as the per-resource events they
        :func:`~repro.obs.events.expand` into, so asking a vectorized
        capture for ``price_update`` (or ``admission``/``gamma_step``)
        finds them.
        """
        return list(select(self.events, (kind,)))


class _StreamSink:
    """Shared open/close plumbing for file- or stream-backed sinks."""

    def __init__(self, target: str | Path | IO[str]) -> None:
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._finalize()
        self._stream.flush()
        if self._owns_stream:
            self._stream.close()

    def _finalize(self) -> None:
        """Hook for subclasses that buffer until close."""


class JsonlSink(_StreamSink):
    """One JSON object per event per line — the archival format.

    Rejects non-finite floats (``NaN``/``inf``) at emit time: Python's
    ``json`` would happily write them as bare ``NaN`` tokens, which are
    not JSON and poison every downstream reader of the capture.  A
    telemetry value that is not a number is a bug at the emitter — fail
    there, not three tools later.
    """

    def emit(self, event: TraceEvent) -> None:
        try:
            line = json.dumps(event.to_dict(), sort_keys=True, allow_nan=False)
        except ValueError as error:
            raise TraceEventError(
                f"non-finite float in {event.kind!r} event; JSONL captures "
                f"must be valid JSON: {error}"
            ) from error
        self._stream.write(line)
        self._stream.write("\n")


def open_trace(path: str | Path) -> IO[str]:
    """Open a JSONL capture for reading, transparently gunzipping.

    Detection is by content, not extension: a gzip member always starts
    with the magic bytes ``1f 8b``, so compressed captures work whatever
    they are named (``trace.jsonl.gz``, ``trace.jsonl``, ...).
    """
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def read_jsonl(source: str | Path | IO[str]) -> Iterator[TraceEvent]:
    """Parse a JSONL trace back into typed events (blank lines skipped).

    Paths may point at plain or gzip-compressed captures (see
    :func:`open_trace`).
    """
    if isinstance(source, (str, Path)):
        with open_trace(source) as stream:
            yield from read_jsonl(stream)
        return
    for line in source:
        text = line.strip()
        if text:
            yield event_from_dict(json.loads(text))


def format_cell(value: Any) -> str:
    """The one CSV formatting rule: floats ``repr``, ints ``str``,
    ``None`` empty, everything else ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):  # bool before int: it IS an int
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


class CsvSink(_StreamSink):
    """Tabular export of flattened events.

    Events are buffered and written on :meth:`close`, because the full
    column set (the union of every event's flattened keys) is only known
    once the stream ends.  Pass ``fieldnames`` to pin an explicit column
    order instead — unknown keys then raise, so a schema drift cannot
    silently reshuffle a documented format.  ``drop`` removes flattened
    keys before the unknown-key check (``repro.core.trace`` drops the
    ``type``/``t_ns`` envelope to keep its historical column set).
    A columnar record is written as the rows of the per-resource events
    it expands into, so v2 and v3 captures of a run render the same CSV.
    """

    def __init__(
        self,
        target: str | Path | IO[str],
        fieldnames: list[str] | None = None,
        drop: tuple[str, ...] = (),
    ) -> None:
        super().__init__(target)
        self._fieldnames = list(fieldnames) if fieldnames is not None else None
        # Sorted tuple, not a set: emit() iterates this per event, and the
        # trace path must not depend on hash-seed iteration order (R11).
        self._drop = tuple(sorted(set(drop)))
        self._rows: list[dict[str, Any]] = []

    def emit(self, event: TraceEvent) -> None:
        for item in expand(event):
            row = item.flatten()
            for key in self._drop:
                row.pop(key, None)
            self._rows.append(row)

    def _finalize(self) -> None:
        if self._fieldnames is not None:
            header = self._fieldnames
            pinned = set(header)
            for row in self._rows:
                unknown = set(row) - pinned
                if unknown:
                    raise ValueError(
                        f"event keys {sorted(unknown)} not in pinned CSV "
                        f"columns; extend fieldnames explicitly"
                    )
        else:
            seen: dict[str, None] = {}  # insertion-ordered set
            for row in self._rows:
                for key in row:
                    seen.setdefault(key)
            header = sorted(seen, key=lambda k: (k != "type", k))
        writer = csv.writer(self._stream, lineterminator="\n")
        writer.writerow(header)
        for row in self._rows:
            writer.writerow([format_cell(row.get(key)) for key in header])


def render_csv(events: Iterator[TraceEvent] | list[TraceEvent]) -> str:
    """Render an event stream as a CSV string (auto column union)."""
    buffer = io.StringIO()
    sink = CsvSink(buffer)
    for event in events:
        sink.emit(event)
    sink.close()
    return buffer.getvalue()
