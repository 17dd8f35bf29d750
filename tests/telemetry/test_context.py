"""Ambient telemetry context: activation stack and the span() helper."""

import pytest

from repro.telemetry.context import (
    TelemetryContext,
    activate,
    current,
    current_ids,
    new_run_id,
    new_span_id,
    span,
)
from repro.runner.telemetry import TraceRecorder


class TestIds:
    def test_shape(self):
        run = new_run_id()
        assert len(run) == 16
        int(run, 16)  # hex

    def test_unique(self):
        assert len({new_run_id() for _ in range(64)}) == 64
        assert len({new_span_id() for _ in range(64)}) == 64


class TestActivation:
    def test_no_context_by_default(self):
        assert current() is None
        assert current_ids() is None

    def test_activate_and_restore(self):
        context = TelemetryContext("r" * 16, "s" * 16)
        with activate(context):
            assert current() is context
            assert current_ids() == {
                "run_id": "r" * 16,
                "span_id": "s" * 16,
            }
        assert current() is None

    def test_nesting_inner_wins(self):
        outer = TelemetryContext("a" * 16, "1" * 16)
        inner = TelemetryContext("b" * 16, "2" * 16)
        with activate(outer):
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is None

    def test_restore_on_exception(self):
        context = TelemetryContext("r" * 16, "s" * 16)
        with pytest.raises(RuntimeError):
            with activate(context):
                raise RuntimeError("boom")
        assert current() is None


class TestSpanHelper:
    def test_noop_without_context(self):
        with span("anything") as span_id:
            assert span_id is None
        assert current() is None

    def test_records_child_span(self):
        recorder = TraceRecorder(run_id="f" * 16)
        root = recorder.start("root")
        with activate(TelemetryContext("f" * 16, root, recorder=recorder)):
            with span("child", foo=1) as child_id:
                assert child_id is not None
                # The ambient span becomes the child for the body.
                assert current().span_id == child_id
            assert current().span_id == root
        events = [e.as_jsonable() for e in recorder.events]
        starts = [e for e in events if e["event"] == "span_start"]
        ends = [e for e in events if e["event"] == "span_end"]
        assert [s["name"] for s in starts] == ["root", "child"]
        assert starts[1]["parent_id"] == root
        assert starts[1]["attrs"] == {"foo": 1}
        assert len(ends) == 1 and ends[0]["status"] == "ok"

    def test_error_status_on_exception(self):
        recorder = TraceRecorder(run_id="f" * 16)
        root = recorder.start("root")
        with activate(TelemetryContext("f" * 16, root, recorder=recorder)):
            with pytest.raises(ValueError):
                with span("child"):
                    raise ValueError("nope")
        ends = [
            e.as_jsonable() for e in recorder.events if e.event == "span_end"
        ]
        assert ends and ends[-1]["status"] == "error"
