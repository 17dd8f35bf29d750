"""SweepStatus folding, rendering, and the follow() driver."""

import json
import time

from repro.runner import ExperimentRunner
from repro.telemetry.console import (
    SweepStatus,
    follow,
    render_status,
)
from tests.support import sim_tasks


def _trace(run_id="a" * 16):
    return [
        {"event": "run_start", "t_s": 0.0, "epoch_s": 1000.0,
         "run_id": run_id},
        {"event": "queued", "t_s": 0.1, "kind": "simulate",
         "run_id": run_id},
        {"event": "queued", "t_s": 0.1, "kind": "simulate",
         "run_id": run_id},
        {"event": "cache_hit", "t_s": 0.1, "kind": "simulate",
         "run_id": run_id},
        {"event": "started", "t_s": 0.2, "kind": "simulate",
         "run_id": run_id},
        {"event": "finished", "t_s": 1.2, "kind": "simulate",
         "duration_s": 1.0, "run_id": run_id},
        {"event": "started", "t_s": 1.3, "kind": "simulate",
         "run_id": run_id},
        {"event": "timeout", "t_s": 2.0, "kind": "simulate",
         "run_id": run_id},
        {"event": "retried", "t_s": 2.0, "kind": "simulate",
         "run_id": run_id},
        {"event": "started", "t_s": 2.1, "kind": "simulate",
         "run_id": run_id},
    ]


def _two_runs():
    return [
        {"event": "run_start", "t_s": 0.0, "run_id": "a" * 16},
        {"event": "queued", "t_s": 0.1, "kind": "simulate"},
        {"event": "started", "t_s": 0.2, "kind": "simulate"},
        {"event": "finished", "t_s": 1.1, "kind": "simulate",
         "duration_s": 0.9},
        {"event": "run_end", "t_s": 1.2},
        {"event": "run_start", "t_s": 1.2, "run_id": "b" * 16},
        {"event": "queued", "t_s": 1.3, "kind": "simulate"},
    ]


class TestFolding:
    def test_counters(self):
        status = SweepStatus()
        status.update_all(_trace())
        assert status.run_id == "a" * 16
        kind = status.kinds["simulate"]
        assert kind.queued == 2
        assert kind.cache_hits == 1
        assert kind.started == 3
        assert kind.finished == 1
        assert kind.retried == 1
        assert kind.timeouts == 1
        assert status.total == 3  # 2 queued + 1 cache hit
        assert status.done == 2  # 1 finished + 1 cache hit
        assert not status.run_ended

    def test_eta_from_completed_throughput(self):
        status = SweepStatus()
        status.update_all(_trace())
        # 1 completed (finished) over 2.1s elapsed, 1 remaining.
        eta = status.eta_s()
        assert eta is not None and abs(eta - 2.1) < 1e-9

    def test_next_run_reopens_the_view(self):
        # ``sweep`` runs once per protocol into one trace: a finished
        # run followed by the start of the next is still running, and
        # its elapsed time counts from the first run's start.
        status = SweepStatus()
        status.update_all(_two_runs())
        assert not status.run_ended
        assert abs(status.elapsed_s() - 1.3) < 1e-9
        assert status.kinds["simulate"].queued == 2

    def test_run_end_zeroes_eta(self):
        status = SweepStatus()
        status.update_all(_trace())
        status.update({"event": "run_end", "t_s": 3.0})
        assert status.run_ended
        assert status.eta_s() == 0.0

    def test_rates(self):
        status = SweepStatus()
        status.update_all(_trace())
        rates = status.rates()
        assert abs(rates["cache_hit_rate"] - 1 / 3) < 1e-9
        assert abs(rates["retry_rate"] - 1 / 3) < 1e-9
        assert abs(rates["timeout_rate"] - 1 / 3) < 1e-9

    def test_chaos_episode_tracking(self):
        status = SweepStatus()
        status.update({"event": "span_start", "span_id": "s1",
                       "name": "chaos_test", "t_s": 0.5})
        status.update({"event": "span_start", "span_id": "s2",
                       "name": "point", "t_s": 0.6})
        episodes = status.chaos_episodes()
        assert [e["span_id"] for e in episodes] == ["s1"]
        status.update({"event": "span_end", "span_id": "s1",
                       "name": "chaos_test", "t_s": 1.5})
        assert status.chaos_episodes() == []
        assert len(status.open_spans) == 1

    def test_as_dict_is_jsonable(self):
        status = SweepStatus()
        status.update_all(_trace())
        json.dumps(status.as_dict())


class TestRender:
    def test_frame_contents(self):
        status = SweepStatus()
        status.update_all(_trace())
        frame = render_status(status)
        assert "a" * 16 in frame
        assert "2/3" in frame
        assert "simulate" in frame
        assert "cache-hit 33%" in frame

    def test_progress_bar_full_when_done(self):
        status = SweepStatus()
        status.update_all(_trace())
        status.update({"event": "finished", "t_s": 3.0,
                       "kind": "simulate", "duration_s": 0.1})
        frame = render_status(status)
        assert "3/3" in frame
        assert "#" * 24 in frame


class TestFollow:
    def test_once_mode_reads_current_state(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w", encoding="utf-8") as handle:
            for record in _trace() + [{"event": "run_end", "t_s": 3.0}]:
                handle.write(json.dumps(record) + "\n")
        frames = []
        status = follow(trace, once=True, emit=frames.append)
        assert status.run_ended
        assert len(frames) == 1
        assert "ended" in frames[0]

    def test_follow_stops_on_run_end(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        span = {"event": "span_start", "span_id": "x", "name": "sweep",
                "t_s": 0.0}
        with open(trace, "w", encoding="utf-8") as handle:
            for record in [span] + _trace() + [
                {"event": "run_end", "t_s": 3.0}
            ]:
                handle.write(json.dumps(record) + "\n")
        frames = []
        status = follow(trace, interval_s=0.01, emit=frames.append)
        assert status.run_ended
        assert status.spans_seen == 1
        assert frames


    def test_follow_continues_into_the_next_run(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w", encoding="utf-8") as handle:
            for record in _two_runs():
                handle.write(json.dumps(record) + "\n")
        frames = []
        status = follow(
            trace, interval_s=0.01, max_frames=3, emit=frames.append
        )
        assert len(frames) == 3
        assert not status.run_ended
        assert "running" in frames[-1]


class TestLiveFollow:
    def test_trace_is_appended_while_the_run_goes(self, tmp_path):
        """``top`` follows a running sweep: completed points reach the
        trace file before ``run()`` returns."""
        seen = []

        def progress(done, total):
            if 0 < done < total:
                time.sleep(0.6)  # past the 0.5 s flush throttle
                seen.append(
                    follow(
                        tmp_path / "trace.jsonl", once=True,
                        emit=lambda frame: None,
                    ).as_dict()
                )

        runner = ExperimentRunner(progress=progress, telemetry_dir=tmp_path)
        runner.run(sim_tasks([2, 3, 4], sim_time_us=1e5))
        live = [s for s in seen if 0 < s["done"] < s["total"]]
        assert live, seen
        assert live[-1]["kinds"]["simulate"]["finished"] > 0
        assert live[-1]["total"] == 3
