"""The orchestrator's scheduling contract, exercised in-process.

Everything here runs ``serve(exit_when_idle=True)`` in the test
process (workers are still real child processes); the crash-injection
suite lives in ``test_crash_resume.py``.
"""

import json

import pytest

from repro.core.config import ScenarioConfig
from repro.runner import ExperimentRunner, SeedSpec, Task, TaskKind
from repro.runner.cache import ResultCache, cache_key
from repro.runner.serialize import scenario_to_jsonable
from repro.service import (
    Orchestrator,
    ServiceConfig,
    TaskState,
    build_submission,
    fold_journal,
    read_quarantine_records,
    write_submission,
)
from repro.service.orchestrator import ServicePaths, request_drain

SIM_TIME_US = 1e5


def _sim_task(n=2, seed=1, rep=0, point=0):
    scenario = ScenarioConfig.homogeneous(
        num_stations=n, sim_time_us=SIM_TIME_US, seed=seed
    )
    return Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": scenario_to_jsonable(scenario)},
        seed=SeedSpec(root_seed=seed, point_index=point, repetition=rep),
    )


def _poison_task():
    """A payload every ``simulate`` attempt fails on (missing scenario)."""
    return Task(kind=TaskKind.SIMULATE, payload={"broken": True})


def _submit(service_dir, tasks, label=None):
    paths = ServicePaths(service_dir)
    submission = build_submission(tasks, label=label)
    write_submission(paths.inbox, submission)
    return submission


def _serve(service_dir, **overrides):
    config = ServiceConfig(
        service_dir=service_dir,
        max_workers=overrides.pop("max_workers", 2),
        poll_interval_s=0.01,
        **overrides,
    )
    orchestrator = Orchestrator(config)
    state = orchestrator.serve(exit_when_idle=True)
    return orchestrator, state


def _trace_lines(service_dir):
    path = ServicePaths(service_dir).telemetry / "trace.jsonl"
    return path.read_text(encoding="utf-8").splitlines()


class TestHappyPath:
    def test_sweep_completes_bit_identical_to_runner(self, tmp_path):
        tasks = [_sim_task(n, point=i) for i, n in enumerate((2, 3))]
        baseline = ExperimentRunner().run(tasks)
        _submit(tmp_path / "svc", tasks)
        _, state = _serve(tmp_path / "svc")
        assert state.counts()[TaskState.COMPLETED] == len(tasks)
        cache = ResultCache(ServicePaths(tmp_path / "svc").cache)
        for task, want in zip(tasks, baseline):
            assert cache.get(cache_key(task.describe())) == want

    def test_journal_records_full_lifecycle(self, tmp_path):
        _submit(tmp_path / "svc", [_sim_task()])
        _serve(tmp_path / "svc")
        from repro.service.journal import read_journal

        records, corrupt = read_journal(
            ServicePaths(tmp_path / "svc").journal
        )
        assert corrupt == 0
        events = [r["event"] for r in records]
        assert events[0] == "service_start"
        assert "sweep_accepted" in events
        assert "task_enqueued" in events
        assert "lease_granted" in events
        assert "task_completed" in events
        assert events[-1] == "service_stop"

    def test_telemetry_written_runner_compatible(self, tmp_path):
        _submit(tmp_path / "svc", [_sim_task()])
        _serve(tmp_path / "svc")
        telemetry = ServicePaths(tmp_path / "svc").telemetry
        trace = [
            json.loads(line)
            for line in (telemetry / "trace.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        events = {record["event"] for record in trace}
        assert {"run_start", "queued", "started", "finished", "run_end"} \
            <= events
        # One stream: the spans share the trace file.
        assert {"span_start", "span_end"} <= events
        assert sorted(p.name for p in telemetry.iterdir()) == [
            "metrics.prom",
            "trace.jsonl",
        ]
        from repro.telemetry.console import SweepStatus

        status = SweepStatus()
        for record in trace:
            status.update(record)
        assert status.run_ended
        assert status.kinds["simulate"].finished == 1

    def test_worker_attempt_spans_adopted(self, tmp_path):
        _submit(tmp_path / "svc", [_sim_task()])
        _serve(tmp_path / "svc")
        spans = [
            record
            for record in map(json.loads, _trace_lines(tmp_path / "svc"))
            if record["event"] in ("span_start", "span_end")
        ]
        names = {s["name"] for s in spans}
        assert {"service", "point", "attempt"} <= names

    def test_attempt_spans_nest_under_point_spans(self, tmp_path):
        # sweep -> point -> attempt, as in the runner's span tree.
        _submit(tmp_path / "svc", [_sim_task(2), _sim_task(3, point=1)])
        _serve(tmp_path / "svc")
        starts = {
            record["span_id"]: record
            for record in map(json.loads, _trace_lines(tmp_path / "svc"))
            if record["event"] == "span_start"
        }
        attempts = [s for s in starts.values() if s["name"] == "attempt"]
        assert len(attempts) == 2
        for attempt in attempts:
            assert starts[attempt["parent_id"]]["name"] == "point"

    def test_chaos_point_records_chaos_test_span(self, tmp_path):
        # Local workers checkpoint every collision test; the chaos span
        # rides along as on the runner's straight-through path.
        from repro.chaos.plan import preset_plan

        task = Task(
            kind=TaskKind.COLLISION_TEST,
            payload={
                "num_stations": 2,
                "duration_us": 0.6e6,
                "warmup_us": 0.2e6,
                "seed": 1,
                "chaos": preset_plan("full", 0.6e6, seed=0).as_jsonable(),
            },
        )
        _submit(tmp_path / "svc", [task])
        _serve(tmp_path / "svc", max_workers=1)
        starts = {
            record["span_id"]: record
            for record in map(json.loads, _trace_lines(tmp_path / "svc"))
            if record["event"] == "span_start"
        }
        chaos = [s for s in starts.values() if s["name"] == "chaos_test"]
        assert len(chaos) == 1
        assert starts[chaos[0]["parent_id"]]["name"] == "attempt"


class TestDedupe:
    def test_resubmission_dedupes_completed_tasks(self, tmp_path):
        tasks = [_sim_task()]
        _submit(tmp_path / "svc", tasks)
        _serve(tmp_path / "svc")
        _submit(tmp_path / "svc", tasks)
        _, state = _serve(tmp_path / "svc")
        submits = list(state.submits.values())
        assert len(submits) == 1  # same submit_id both times
        assert state.counts()[TaskState.COMPLETED] == 1
        # The second acceptance deduped the task instead of re-running.
        assert submits[0].deduped == 1

    def test_cached_result_completes_without_execution(self, tmp_path):
        task = _sim_task()
        key = cache_key(task.describe())
        result = ExperimentRunner().run([task])[0]
        cache = ResultCache(ServicePaths(tmp_path / "svc").cache)
        cache.put(key, result, task.describe())
        _submit(tmp_path / "svc", [task])
        _, state = _serve(tmp_path / "svc")
        record = state.tasks[key]
        assert record.state == TaskState.COMPLETED
        assert record.completed_from == "cache"
        from repro.service.journal import read_journal

        records, _ = read_journal(ServicePaths(tmp_path / "svc").journal)
        assert not any(r["event"] == "lease_granted" for r in records)


class TestQuarantine:
    def test_poison_task_quarantined_sweep_completes(self, tmp_path):
        poison = _poison_task()
        healthy = _sim_task()
        _submit(tmp_path / "svc", [poison, healthy])
        _, state = _serve(tmp_path / "svc", max_retries=1)
        counts = state.counts()
        assert counts[TaskState.COMPLETED] == 1
        assert counts[TaskState.QUARANTINED] == 1
        parked = state.tasks[cache_key(poison.describe())]
        assert parked.attempts == 2  # 1 + max_retries deterministic tries
        records = read_quarantine_records(
            ServicePaths(tmp_path / "svc").quarantine
        )
        assert len(records) == 1
        record = records[0]
        assert record["task_id"] == parked.task_id
        assert record["task"] == poison.describe()
        assert len(record["failures"]) == 2
        assert record["failures"][0]["error_type"] == "KeyError"
        assert record["failures"][0]["traceback"]

    def test_requarantined_task_can_be_resubmitted(self, tmp_path):
        poison = _poison_task()
        _submit(tmp_path / "svc", [poison])
        _serve(tmp_path / "svc", max_retries=0)
        # Resubmission re-enqueues a quarantined task (the operator
        # fixed the environment and wants a retry).
        _submit(tmp_path / "svc", [poison])
        _, state = _serve(tmp_path / "svc", max_retries=0)
        parked = state.tasks[cache_key(poison.describe())]
        assert parked.state == TaskState.QUARANTINED

    @pytest.mark.parametrize("restart_before_retry", [False, True])
    def test_resubmitted_task_gets_fresh_attempt_budget(
        self, tmp_path, restart_before_retry
    ):
        poison = _poison_task()
        key = cache_key(poison.describe())
        _submit(tmp_path / "svc", [poison])
        _serve(tmp_path / "svc")  # max_retries=2: attempts 1, 2, 3
        if restart_before_retry:
            # Resubmission journaled, then the orchestrator stops
            # before any retry: the replay must reset the budget too.
            orchestrator = Orchestrator(
                ServiceConfig(service_dir=tmp_path / "svc")
            )
            orchestrator.admit_submission(build_submission([poison]))
            orchestrator.journal.close()
        else:
            _submit(tmp_path / "svc", [poison])
        _, state = _serve(tmp_path / "svc")
        from repro.service.journal import read_journal

        records, _ = read_journal(ServicePaths(tmp_path / "svc").journal)
        attempts = [
            r["attempt"] for r in records if r["event"] == "task_failed"
        ]
        assert attempts == [1, 2, 3, 1, 2, 3]
        assert state.tasks[key].state == TaskState.QUARANTINED
        assert state.tasks[key].attempts == 3
        assert fold_journal(tmp_path / "svc").tasks[key].attempts == 3
        (record,) = read_quarantine_records(
            ServicePaths(tmp_path / "svc").quarantine
        )
        assert record["attempts"] == 3


class TestAdmissionControl:
    def test_over_depth_submission_rejected(self, tmp_path):
        tasks = [_sim_task(n, point=i) for i, n in enumerate((2, 3, 5))]
        submission = _submit(tmp_path / "svc", tasks)
        _, state = _serve(tmp_path / "svc", max_queue_depth=2)
        submit = state.submits[submission["submit_id"]]
        assert not submit.accepted
        assert "depth" in submit.reason
        assert state.counts()[TaskState.COMPLETED] == 0
        rejected = ServicePaths(tmp_path / "svc").rejected
        assert list(rejected.glob("*.json"))
        assert list(rejected.glob("*.reason.txt"))

    def test_malformed_submission_rejected(self, tmp_path):
        paths = ServicePaths(tmp_path / "svc")
        paths.inbox.mkdir(parents=True)
        (paths.inbox / "bad.json").write_text(
            "not json", encoding="utf-8"
        )
        _, state = _serve(tmp_path / "svc")
        assert any(
            not submit.accepted for submit in state.submits.values()
        )
        assert not list(paths.inbox.glob("*.json"))

    def test_description_that_rebuilds_no_task_rejected(self, tmp_path):
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / "svc", max_workers=0)
        )
        bad = {"kind": "simulate", "payload": {}, "seed": {"bogus": 1}}
        orch.paths.inbox.mkdir(parents=True)
        (orch.paths.inbox / "bad.json").write_text(
            json.dumps({"tasks": [bad]}), encoding="utf-8"
        )
        with orch.lock:
            orch._scan_inbox()
        orch.journal.close()
        reason = orch.paths.rejected / "bad.reason.txt"
        assert reason.read_text().splitlines()[0] == "malformed submission"
        assert not orch.state.tasks


class TestRecovery:
    def test_orphaned_lease_reclaimed_and_completed(self, tmp_path):
        """A journal that ends mid-lease (dead worker) is recovered."""
        from repro.service.journal import JournalWriter

        task = _sim_task()
        key = cache_key(task.describe())
        paths = ServicePaths(tmp_path / "svc")
        paths.root.mkdir(parents=True)
        with JournalWriter(paths.journal) as journal:
            journal.append("service_start", pid=1)
            journal.append(
                "sweep_accepted", submit_id="s", task_count=1, deduped=0
            )
            journal.append(
                "task_enqueued",
                task_id=key,
                submit_id="s",
                task=task.describe(),
            )
            journal.append(
                "lease_granted", task_id=key, ttl_s=10.0, attempt=0
            )
            # ... and the orchestrator died here: no heartbeat, no
            # worker, no outcome.
        _, state = _serve(tmp_path / "svc")
        assert state.tasks[key].state == TaskState.COMPLETED
        from repro.service.journal import read_journal

        records, _ = read_journal(paths.journal)
        events = [r["event"] for r in records]
        assert "service_resume" in events
        assert "lease_reclaimed" in events
        # The reclaim consumed no attempt: the completion is attempt 0.
        assert state.tasks[key].attempts == 0

    def test_resume_is_bit_identical(self, tmp_path):
        """Interrupted-then-resumed == uninterrupted, bit for bit."""
        task = _sim_task()
        key = cache_key(task.describe())
        baseline = ExperimentRunner().run([task])[0]
        from repro.service.journal import JournalWriter

        paths = ServicePaths(tmp_path / "svc")
        paths.root.mkdir(parents=True)
        with JournalWriter(paths.journal) as journal:
            journal.append("service_start", pid=1)
            journal.append(
                "task_enqueued", task_id=key, task=task.describe()
            )
            journal.append("lease_granted", task_id=key, attempt=0)
        _serve(tmp_path / "svc")
        assert ResultCache(paths.cache).get(key) == baseline


class TestDrain:
    def test_drain_marker_stops_loop_with_pending_work(self, tmp_path):
        tasks = [_sim_task(n, point=i) for i, n in enumerate((2, 3))]
        _submit(tmp_path / "svc", tasks)
        request_drain(tmp_path / "svc")
        orchestrator, state = _serve(tmp_path / "svc")
        # Drained before dispatching anything: everything still owed.
        assert state.counts()[TaskState.COMPLETED] == 0
        assert state.stopped_clean
        from repro.service.journal import read_journal

        records, _ = read_journal(
            ServicePaths(tmp_path / "svc").journal
        )
        events = [r["event"] for r in records]
        assert "drain_start" in events
        assert events[-1] == "service_stop"
        # The marker is consumed so a restart serves normally.
        assert not ServicePaths(tmp_path / "svc").drain_marker.exists()

    def test_serve_after_drain_finishes_the_work(self, tmp_path):
        tasks = [_sim_task()]
        _submit(tmp_path / "svc", tasks)
        request_drain(tmp_path / "svc")
        _serve(tmp_path / "svc")
        _, state = _serve(tmp_path / "svc")
        assert state.counts()[TaskState.COMPLETED] == 1
