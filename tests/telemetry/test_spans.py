"""Spans on the run's one recorder: pairing, hierarchy, adoption,
JSONL round-trip."""

import time

from repro.obs.recording import read_jsonl
from repro.runner.telemetry import TraceRecorder


def _lines(recorder):
    return [event.as_jsonable() for event in recorder.events]


class TestSpans:
    def test_start_end_pairing(self):
        recorder = TraceRecorder(run_id="a" * 16)
        span_id = recorder.start("sweep", points=2)
        assert recorder.open_spans() == [span_id]
        recorder.end(span_id)
        assert recorder.open_spans() == []
        start, end = _lines(recorder)
        assert start["event"] == "span_start"
        assert start["name"] == "sweep"
        assert start["attrs"] == {"points": 2}
        assert end["event"] == "span_end"
        assert end["span_id"] == span_id
        assert end["status"] == "ok"
        assert end["duration_s"] >= 0.0
        assert end["duration_s"] == end["t_s"] - start["t_s"]

    def test_span_lines_keep_their_keys(self):
        # A span line carries the span keys only: no lifecycle field
        # (``attempt``) leaks onto it from the shared event type.
        recorder = TraceRecorder(run_id="a" * 16)
        root = recorder.start("sweep")
        recorder.end(recorder.start("point", parent_id=root, kind="x"))
        recorder.end(root, status="error")
        assert [sorted(line) for line in _lines(recorder)] == [
            ["epoch_s", "event", "name", "run_id", "span_id", "t_s"],
            ["attrs", "epoch_s", "event", "name", "parent_id", "run_id",
             "span_id", "t_s"],
            ["duration_s", "event", "name", "run_id", "span_id", "status",
             "t_s"],
            ["duration_s", "event", "name", "run_id", "span_id", "status",
             "t_s"],
        ]

    def test_every_record_carries_run_id(self):
        recorder = TraceRecorder(run_id="b" * 16)
        recorder.end(recorder.start("x"))
        assert all(e.run_id == "b" * 16 for e in recorder.events)

    def test_parent_linkage(self):
        recorder = TraceRecorder()
        parent = recorder.start("sweep")
        child = recorder.start("point", parent_id=parent)
        start = [e for e in recorder.events if e.span_id == child][0]
        assert start.parent_id == parent

    def test_unknown_end_ignored(self):
        recorder = TraceRecorder()
        recorder.end("deadbeefdeadbeef")
        recorder.end(recorder.start("x"))
        recorder.end(recorder.events[-1].span_id)  # double close
        assert [e.event for e in recorder.events] == [
            "span_start",
            "span_end",
        ]

    def test_epoch_anchor_is_wall_clock(self):
        recorder = TraceRecorder()
        assert abs(recorder.epoch_s - time.time()) < 5.0
        span_id = recorder.start("x")
        start = recorder.events[0]
        assert abs(start.epoch_s - (recorder.epoch_s + start.t_s)) < 1e-9
        recorder.end(span_id)

    def test_context_manager_error_status(self):
        recorder = TraceRecorder()
        try:
            with recorder.span("x"):
                raise KeyError("boom")
        except KeyError:
            pass
        assert recorder.events[-1].status == "error"

    def test_adopt_preserves_foreign_records(self):
        worker = TraceRecorder(run_id="c" * 16)
        attempt = worker.start("attempt", kind="simulate")
        worker.end(attempt)
        records = _lines(worker)
        main = TraceRecorder(run_id="c" * 16)
        assert main.adopt(records) == 2
        assert [e.name for e in main.events] == ["attempt", "attempt"]
        # Adoption copies: mutating the original must not leak through.
        records[0]["name"] = "mutated"
        assert main.events[0].name == "attempt"
        # An adopted record reads back exactly as the worker wrote it.
        assert _lines(main) == [
            dict(records[0], name="attempt"),
            records[1],
        ]

    def test_flush_roundtrip(self, tmp_path):
        recorder = TraceRecorder(run_id="d" * 16)
        recorder.end(recorder.start("sweep"))
        path = tmp_path / "trace.jsonl"
        assert recorder.flush_jsonl(path) == 2
        # Incremental: a second flush appends only new records.
        recorder.end(recorder.start("point"))
        assert recorder.flush_jsonl(path) == 2
        records = read_jsonl(path)
        assert len(records) == 4
        assert all(r["run_id"] == "d" * 16 for r in records)
        assert [r["name"] for r in records] == [
            "sweep",
            "sweep",
            "point",
            "point",
        ]

    def test_spans_and_lifecycle_events_share_one_clock(self):
        recorder = TraceRecorder(run_id="e" * 16)
        span_id = recorder.start("point")
        recorder.record("finished", task_index=0, span_id=span_id)
        recorder.end(span_id)
        times = [e.t_s for e in recorder.events]
        assert times == sorted(times)
        assert [e.event for e in recorder.of_kind("finished")] == ["finished"]
