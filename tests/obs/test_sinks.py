"""Tests for trace sinks and the shared CSV formatting rule."""

import gzip
import io
import math

import pytest

from repro.obs.events import (
    GammaStepEvent,
    IterationEvent,
    MessageEvent,
    TraceEventError,
)
from repro.obs.sinks import (
    NULL_SINK,
    CsvSink,
    JsonlSink,
    MemorySink,
    NullSink,
    TraceSink,
    format_cell,
    open_trace,
    read_jsonl,
    render_csv,
)


def iteration(i, utility=1.0, **extra):
    return IterationEvent(iteration=i, utility=utility, t_ns=i, **extra)


class TestProtocol:
    @pytest.mark.parametrize(
        "sink", [NullSink(), MemorySink(), CsvSink(io.StringIO())]
    )
    def test_implementations_satisfy_protocol(self, sink):
        assert isinstance(sink, TraceSink)


class TestMemorySink:
    def test_buffers_in_order_and_filters_by_kind(self):
        sink = MemorySink()
        events = [
            iteration(1),
            GammaStepEvent("S", 0.1, 0.05, True, t_ns=2),
            iteration(2),
        ]
        for event in events:
            sink.emit(event)
        assert sink.events == events
        assert sink.of_kind("iteration") == [events[0], events[2]]
        sink.clear()
        assert sink.events == []

    def test_of_kind_sees_through_columnar_records(self):
        """A vectorized capture holds columnar records, yet asking it for
        per-resource kinds must not come back quietly empty."""
        from repro import LRGP, LRGPConfig, Telemetry
        from repro.workloads.registry import workload_from_spec

        problem = workload_from_spec("bottleneck")
        captured = {}
        for engine in ("vectorized", "reference"):
            telemetry = Telemetry()
            config = LRGPConfig.adaptive(engine=engine, telemetry=telemetry)
            LRGP(problem, config).run(8)
            captured[engine] = telemetry.sink
        sink = captured["vectorized"]
        assert len(sink.of_kind("columnar_step")) == 8
        for kind in ("price_update", "admission", "gamma_step"):
            found = sink.of_kind(kind)
            assert found, kind
            assert len(found) == len(captured["reference"].of_kind(kind)), kind
        assert {event.resource_kind for event in sink.of_kind("price_update")} == {
            "node", "link",
        }

    def test_null_sink_discards(self):
        NULL_SINK.emit(iteration(1))
        NULL_SINK.close()


class TestJsonlNonFiniteRejection:
    """NaN/inf must fail at emit time, not poison the capture."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_raise_trace_event_error(self, bad):
        sink = JsonlSink(io.StringIO())
        with pytest.raises(TraceEventError, match="non-finite"):
            sink.emit(iteration(1, utility=bad))

    def test_rejected_event_writes_nothing(self):
        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        with pytest.raises(TraceEventError):
            sink.emit(iteration(1, rates={"fa": math.nan}))
        sink.emit(iteration(2))
        sink.close()
        assert len(buffer.getvalue().splitlines()) == 1


class TestOpenTrace:
    """Gzip captures are detected by magic bytes, not file extension."""

    def events(self):
        return [iteration(1), iteration(2, utility=2.5)]

    def write_gzip(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as stream:
            sink = JsonlSink(stream)
            for event in self.events():
                sink.emit(event)
        return path

    def test_reads_gzip_capture_regardless_of_suffix(self, tmp_path):
        path = self.write_gzip(tmp_path / "trace.jsonl")  # no .gz suffix
        with open_trace(path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 2

    def test_reads_plain_capture(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for event in self.events():
            sink.emit(event)
        sink.close()
        with open_trace(path) as stream:
            assert len(stream.read().splitlines()) == 2

    def test_read_jsonl_round_trips_gzip_paths(self, tmp_path):
        path = self.write_gzip(tmp_path / "trace.jsonl.gz")
        assert list(read_jsonl(path)) == self.events()


class TestFormatCell:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (None, ""),
            (0.1, "0.1"),
            (1.0, "1.0"),  # floats keep their repr, even integral ones
            (7, "7"),
            (True, "True"),  # bool is an int but must not render as one
            ("S", "S"),
        ],
    )
    def test_one_rule_for_every_column(self, value, expected):
        assert format_cell(value) == expected

    def test_float_repr_round_trips(self):
        value = 0.1 + 0.2  # classic non-representable sum
        assert float(format_cell(value)) == value


class TestCsvSink:
    def test_auto_union_puts_type_first_then_sorted(self):
        text = render_csv(
            [
                iteration(1),
                MessageEvent("a", "b", "RateUpdate", t_ns=2, latency=None),
            ]
        )
        header = text.splitlines()[0].split(",")
        assert header[0] == "type"
        assert header[1:] == sorted(header[1:])

    def test_absent_keys_render_empty_cells(self):
        text = render_csv(
            [iteration(1, rates={"fa": 2.0}), iteration(2)]
        )
        lines = text.splitlines()
        header = lines[0].split(",")
        index = header.index("rate:fa")
        assert lines[1].split(",")[index] == "2.0"
        assert lines[2].split(",")[index] == ""

    def test_pinned_fieldnames_keep_order(self):
        buffer = io.StringIO()
        sink = CsvSink(
            buffer,
            fieldnames=["utility", "iteration"],
            drop=("type", "t_ns"),
        )
        sink.emit(iteration(1, utility=3.5))
        sink.close()
        assert buffer.getvalue().splitlines() == ["utility,iteration", "3.5,1"]

    def test_pinned_fieldnames_reject_unknown_keys(self):
        sink = CsvSink(io.StringIO(), fieldnames=["iteration"])
        sink.emit(iteration(1))  # flatten has type/utility/t_ns too
        with pytest.raises(ValueError, match="not in pinned CSV columns"):
            sink.close()

    def test_drop_removes_envelope_keys(self):
        buffer = io.StringIO()
        sink = CsvSink(buffer, drop=("type", "t_ns"))
        sink.emit(iteration(1))
        sink.close()
        assert buffer.getvalue().splitlines()[0] == "iteration,utility"

    def test_drop_order_never_affects_output(self):
        # Regression for an R11 finding: ``drop`` used to be stored as a
        # frozenset and iterated per event, tying the (future-proofed)
        # emit path to hash iteration order.  The stored form is now a
        # sorted tuple, so permuted construction orders are one state.
        def render(drop):
            buffer = io.StringIO()
            sink = CsvSink(buffer, drop=drop)
            sink.emit(iteration(1))
            sink.emit(iteration(2, rates={"fa": 1.5}))
            sink.close()
            return buffer.getvalue()

        forward = render(("type", "t_ns", "rate:fa"))
        backward = render(("rate:fa", "t_ns", "type", "t_ns"))  # dupes too
        assert forward == backward
        assert CsvSink(io.StringIO(), drop=("b", "a", "b"))._drop == ("a", "b")

    def test_columnar_record_renders_as_its_expanded_rows(self):
        from repro import LRGP, LRGPConfig, Telemetry
        from repro.obs import expand_stream
        from repro.workloads.registry import workload_from_spec

        telemetry = Telemetry()
        config = LRGPConfig(engine="vectorized", telemetry=telemetry)
        LRGP(workload_from_spec("bottleneck"), config).run(5)
        events = telemetry.sink.events
        assert render_csv(events) == render_csv(list(expand_stream(events)))

    def test_writes_file_and_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.csv"
        sink = CsvSink(path)
        sink.emit(iteration(1))
        sink.close()
        sink.close()  # second close is a no-op
        assert path.read_text().startswith("type,")

    def test_borrowed_stream_stays_open(self):
        buffer = io.StringIO()
        sink = CsvSink(buffer)
        sink.emit(iteration(1))
        sink.close()
        assert not buffer.closed  # caller owns it
