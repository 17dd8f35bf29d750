"""One state transition: the orchestrator's live state is its journal's fold.

``Orchestrator._append`` journals a record and applies it through
:meth:`~repro.service.state.ServiceState.apply`, the reducer a restart
and ``repro-plc status`` run over the file.  So after every step —
admission, rejection, claim, commit, failure, quarantine, release,
restart — the live state equals ``fold_journal`` of the directory, and
a quarantine record written after a restart carries every attempt's
traceback and worker.  The protocol methods are driven directly; no
worker runs.
"""

import dataclasses

from repro.runner import Task, TaskKind
from repro.service import (
    Orchestrator,
    ServiceConfig,
    TaskState,
    build_submission,
    fold_journal,
    read_quarantine_records,
)
from tests.support import sim_tasks

#: Every ``simulate`` attempt of it fails (no scenario).
POISON = Task(kind=TaskKind.SIMULATE, payload={"broken": True})


def _orchestrator(service_dir, **overrides):
    config = dict(service_dir=service_dir, max_workers=0, sync_journal=False)
    config.update(overrides)
    return Orchestrator(ServiceConfig(**config))


def _assert_live_is_fold(orch):
    fold = fold_journal(orch.paths.root)
    assert dataclasses.asdict(orch.state) == dataclasses.asdict(fold)


def _fail(orch, worker_id, text):
    """Claim the next pending task as ``worker_id`` and fail it."""
    shard = orch.remote_claim(worker_id)
    assert shard["task"]["payload"] == POISON.payload
    verdict = orch.remote_fail(
        shard["task_id"],
        worker_id,
        error=text,
        error_type="KeyError",
        traceback=f"Traceback: {text}",
    )
    assert verdict == "failed"
    return shard["task_id"]


def test_live_state_is_the_fold_after_every_step(tmp_path):
    orch = _orchestrator(tmp_path / "svc", max_retries=1, max_queue_depth=4)
    healthy = sim_tasks((2, 3))
    submission = build_submission(healthy + [POISON])

    assert orch.admit_submission(submission)["new"] == 3
    _assert_live_is_fold(orch)
    assert orch.admit_submission(submission)["deduped"] == 3
    _assert_live_is_fold(orch)
    over = orch.admit_submission(build_submission(sim_tasks((4, 5))))
    assert not over["accepted"]
    _assert_live_is_fold(orch)

    # Rejected before admission: each under its own file name.
    orch.paths.inbox.mkdir(parents=True)
    for name in ("bad-one", "bad-two"):
        (orch.paths.inbox / f"{name}.json").write_text("{not json")
    with orch.lock:
        orch._scan_inbox()
    assert not orch.state.submits["bad-one"].accepted
    assert not orch.state.submits["bad-two"].accepted
    _assert_live_is_fold(orch)

    first = orch.remote_claim("w1")
    assert orch.state.tasks[first["task_id"]].lease["lease_id"]
    _assert_live_is_fold(orch)
    assert orch.remote_heartbeat(first["task_id"], "w1")
    status = orch.remote_complete(first["task_id"], "w1", result={"n": 2})
    assert status == "committed"
    _assert_live_is_fold(orch)
    second = orch.remote_claim("w2")
    _assert_live_is_fold(orch)

    # Fails up to quarantine (max_retries=1), then a resubmission.
    poison_id = _fail(orch, "w3", "first")
    assert orch.state.tasks[poison_id].state == TaskState.PENDING
    _assert_live_is_fold(orch)
    _fail(orch, "w3", "second")
    assert orch.state.tasks[poison_id].state == TaskState.QUARANTINED
    _assert_live_is_fold(orch)
    orch.admit_submission(build_submission([POISON]))
    assert orch.state.tasks[poison_id].failures == []
    _assert_live_is_fold(orch)

    with orch.lock:
        orch._release_leases("drain")
    assert orch.state.tasks[second["task_id"]].state == TaskState.PENDING
    _assert_live_is_fold(orch)
    orch.remote_claim("w4")
    assert orch.state.counts()[TaskState.LEASED] == 1
    orch.journal.close()

    restarted = _orchestrator(tmp_path / "svc")
    _assert_live_is_fold(restarted)
    with restarted.lock:
        restarted._recover()
    assert restarted.state.counts()[TaskState.LEASED] == 0
    _assert_live_is_fold(restarted)
    restarted.journal.close()


def test_quarantine_record_after_restart_keeps_every_attempt(tmp_path):
    orch = _orchestrator(tmp_path / "svc", max_retries=1)
    orch.admit_submission(build_submission([POISON]))
    _fail(orch, "w1", "first")
    orch.journal.close()

    orch = _orchestrator(tmp_path / "svc", max_retries=1)
    task_id = _fail(orch, "w2", "second")
    orch.journal.close()
    assert orch.state.tasks[task_id].state == TaskState.QUARANTINED
    (record,) = read_quarantine_records(orch.paths.quarantine)
    assert [
        (failure["attempt"], failure["worker"], failure["traceback"])
        for failure in record["failures"]
    ] == [(1, "w1", "Traceback: first"), (2, "w2", "Traceback: second")]
