"""The unified lease table: one watchdog for local and remote workers.

A local worker is the orchestrator's own child: when it dies or goes
silent the orchestrator kills it if need be, journals one
``task_failed`` and starts a fresh worker.  A silent remote host may
merely be partitioned, so its lease is reclaimed without consuming an
attempt.  A task the cache already answers never gets a lease.  Local
cases run ``serve`` in this process (its workers are real child
processes); remote cases drive the protocol methods directly.
"""

import os
import signal
import threading
import time

import pytest

from repro.runner import ExperimentRunner
from repro.runner.cache import cache_key
from repro.service import (
    Orchestrator,
    ServiceConfig,
    TaskState,
    build_submission,
    fold_journal,
)
from repro.service.journal import read_journal
from repro.service.orchestrator import request_drain
from repro.service.status import pid_alive
from tests.support import sim_tasks


@pytest.fixture(scope="module")
def baseline():
    (task,) = sim_tasks((2,))
    return task, ExperimentRunner().run([task])[0]


def _orchestrator(tmp_path, task, **overrides):
    config = dict(
        service_dir=tmp_path / "svc",
        max_workers=1,
        poll_interval_s=0.01,
        heartbeat_interval_s=0.1,
    )
    config.update(overrides)
    orch = Orchestrator(ServiceConfig(**config))
    orch.admit_submission(build_submission([task]))
    return orch


def _serve(orch, limit_s=60.0):
    """``serve`` until idle; drain after ``limit_s`` so a broken
    watchdog fails the test instead of hanging it."""
    timer = threading.Timer(limit_s, request_drain, args=(orch.paths.root,))
    timer.daemon = True
    timer.start()
    try:
        return orch.serve(exit_when_idle=True)
    finally:
        timer.cancel()


def _records(orch, event):
    records, _ = read_journal(orch.paths.journal)
    return [r for r in records if r["event"] == event]


def _arm_fault(monkeypatch, tmp_path, spec):
    """Arm a one-shot worker fault; forked local workers inherit it."""
    monkeypatch.setenv("REPRO_FAULT", spec)
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))


def _assert_completed_by_fresh_worker(orch, baseline, failed):
    task, want = baseline
    key = cache_key(task.describe())
    assert orch.state.tasks[key].state == TaskState.COMPLETED
    assert orch.state.tasks[key].attempts == 1
    assert fold_journal(orch.paths.root).tasks[key].attempts == 1
    assert orch.cache.get(key) == want
    (completed,) = _records(orch, "task_completed")
    assert completed["worker"] != failed["worker"]


class TestPidAlive:
    def test_own_pid_alive(self):
        assert pid_alive(os.getpid())

    def test_dead_pid(self):
        # Fork a child that exits immediately; after wait, it's gone.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        assert not pid_alive(pid)

    def test_nonsense_pids(self):
        assert not pid_alive(None)
        assert not pid_alive(0)
        assert not pid_alive(-1)


class TestLocalWorkers:
    def test_silent_worker_killed_and_fails_once(
        self, tmp_path, monkeypatch, baseline
    ):
        # The first attempt hangs; freezing its process silences the
        # heartbeat thread too, as a wedged interpreter would.  Freeze
        # only once the one-shot hang has fired, or the retry would
        # fire it instead and hang.
        _arm_fault(monkeypatch, tmp_path, "task_hang:times=1,seconds=60")
        orch = _orchestrator(tmp_path, baseline[0], lease_ttl_s=0.5)
        hang_fired = tmp_path / "faults" / "slot-task_hang-0"
        frozen = []

        def freeze_lease_holder():
            deadline = time.monotonic() + 60
            while not frozen and time.monotonic() < deadline:
                if not hang_fired.exists():
                    time.sleep(0.01)
                    continue
                with orch.lock:
                    for lease in orch._leases.values():
                        worker = orch._workers.get(lease.worker_id)
                        if worker is not None:
                            os.kill(worker.proc.pid, signal.SIGSTOP)
                            frozen.append(worker.proc.pid)
                time.sleep(0.01)

        threading.Thread(target=freeze_lease_holder, daemon=True).start()
        _serve(orch)
        (failed,) = _records(orch, "task_failed")
        assert failed["error_type"] == "Watchdog"
        assert "silent" in failed["error"]
        assert failed["worker_pid"] == frozen[0]
        assert not pid_alive(frozen[0])  # SIGKILLed and reaped
        _assert_completed_by_fresh_worker(orch, baseline, failed)

    def test_worker_exit_mid_task_fails_once_and_is_respawned(
        self, tmp_path, monkeypatch, baseline
    ):
        _arm_fault(monkeypatch, tmp_path, "task_exit:times=1")
        orch = _orchestrator(tmp_path, baseline[0])
        _serve(orch)
        (failed,) = _records(orch, "task_failed")
        assert failed["error_type"] == "WorkerDied"
        assert "exitcode=117" in failed["error"]
        _assert_completed_by_fresh_worker(orch, baseline, failed)

    def test_worker_past_task_timeout_killed_and_fails_once(
        self, tmp_path, monkeypatch, baseline
    ):
        # Heartbeats keep arriving from the hung attempt; only the
        # task timeout catches it.
        _arm_fault(monkeypatch, tmp_path, "task_hang:times=1,seconds=60")
        orch = _orchestrator(tmp_path, baseline[0], task_timeout_s=2.0)
        _serve(orch)
        # Charged as the runner charges an overrun.
        (failed,) = _records(orch, "task_failed")
        assert failed["error_type"] == "TimeoutError"
        assert "exceeded" in failed["error"]
        (timeout,) = orch.trace.of_kind("timeout")
        assert (timeout.kind, timeout.attempt) == ("simulate", 0)
        assert not pid_alive(failed["worker_pid"])
        _assert_completed_by_fresh_worker(orch, baseline, failed)


class TestRemoteLeases:
    def _reclaimed(self, orch, task_id):
        with orch.lock:
            orch._watchdog()
        # The host's next heartbeat learns the lease is gone.
        assert orch.remote_heartbeat(task_id, "remote-1") is False
        orch.journal.close()
        assert not _records(orch, "task_failed")
        state = fold_journal(orch.paths.root)
        assert state.tasks[task_id].state == TaskState.PENDING
        assert state.tasks[task_id].attempts == 0
        (reclaimed,) = _records(orch, "lease_reclaimed")
        assert reclaimed["worker"] == "remote-1"
        return reclaimed["reason"]

    def test_silent_remote_lease_reclaimed_without_attempt(
        self, tmp_path, baseline
    ):
        orch = _orchestrator(
            tmp_path, baseline[0], max_workers=0, lease_ttl_s=0.05
        )
        shard = orch.remote_claim("remote-1")
        time.sleep(0.1)
        reason = self._reclaimed(orch, shard["task_id"])
        assert reason.startswith("watchdog: remote silent")

    def test_remote_lease_past_task_timeout_reclaimed_without_attempt(
        self, tmp_path, baseline
    ):
        orch = _orchestrator(
            tmp_path, baseline[0], max_workers=0, task_timeout_s=0.05
        )
        shard = orch.remote_claim("remote-1")
        time.sleep(0.1)
        assert orch.remote_heartbeat(shard["task_id"], "remote-1")
        reason = self._reclaimed(orch, shard["task_id"])
        assert reason.startswith("watchdog: remote overrun")


class TestPreServeClaim:
    def test_lease_granted_before_serve_is_not_reclaimed(
        self, tmp_path, baseline
    ):
        # An earlier incarnation admitted the task and closed; the next
        # one answers a claim before its serve loop starts.
        _orchestrator(tmp_path, baseline[0], max_workers=0).journal.close()
        orch = Orchestrator(
            ServiceConfig(
                service_dir=tmp_path / "svc",
                max_workers=0,
                poll_interval_s=0.01,
                drain_timeout_s=0.1,
            )
        )
        shard = orch.remote_claim("w1")
        task_id = shard["task_id"]
        loop = threading.Thread(target=_serve, args=(orch,), daemon=True)
        loop.start()
        deadline = time.monotonic() + 30
        while not orch.serving:
            assert time.monotonic() < deadline, "never served"
            time.sleep(0.01)
        assert orch.remote_claim("w2") is None
        assert orch.remote_heartbeat(task_id, "w1") is True
        request_drain(orch.paths.root)
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert not _records(orch, "lease_reclaimed")
        assert len(_records(orch, "lease_granted")) == 1
        (released,) = _records(orch, "lease_released")
        assert (released["task_id"], released["worker"]) == (task_id, "w1")


class TestDrain:
    def test_local_worker_commits_within_drain_window(
        self, tmp_path, monkeypatch, baseline
    ):
        # The attempt is in flight when the drain starts and finishes
        # well inside the 10 s drain window: its commit must land.
        _arm_fault(monkeypatch, tmp_path, "task_hang:times=1,seconds=1.5")
        orch = _orchestrator(tmp_path, baseline[0])
        workers = []

        def drain_once_leased():
            deadline = time.monotonic() + 60
            while not orch._leases and time.monotonic() < deadline:
                time.sleep(0.01)
            with orch.lock:
                workers.extend(w.proc.pid for w in orch._workers.values())
            request_drain(orch.paths.root)

        threading.Thread(target=drain_once_leased, daemon=True).start()
        _serve(orch)
        assert _records(orch, "drain_start")
        assert not _records(orch, "lease_released")
        (completed,) = _records(orch, "task_completed")
        assert completed["worker"].startswith("local-")
        task, want = baseline
        assert orch.cache.get(cache_key(task.describe())) == want
        assert workers and not any(pid_alive(pid) for pid in workers)


class TestCacheFastPath:
    def test_cached_task_completes_at_admission_without_workers(
        self, tmp_path, baseline
    ):
        task, want = baseline
        key = cache_key(task.describe())
        orch = Orchestrator(
            ServiceConfig(
                service_dir=tmp_path / "svc",
                max_workers=0,
                poll_interval_s=0.01,
                idle_grace_s=0.3,
            )
        )
        orch.cache.put(key, want, task.describe())
        reads = []
        read = orch.cache.get
        orch.cache.get = lambda task_id: reads.append(task_id) or read(
            task_id
        )
        orch.admit_submission(build_submission([task]))
        assert orch.state.tasks[key].state == TaskState.COMPLETED
        assert orch.state.tasks[key].completed_from == "cache"
        _serve(orch)
        # Checked once, when the task became pending; never per tick.
        assert reads == [key]
        assert not _records(orch, "lease_granted")
