"""Fold a replayed journal into the service's current task state.

The journal (:mod:`repro.service.journal`) is the write-ahead log; this
module is the deterministic reducer that turns its record stream into
the orchestrator's working state: one :class:`TaskRecord` per task id
with its lifecycle state, attempt count, active lease, and last error.
Both the restarting orchestrator (crash recovery) and the read-only
status view (``repro-plc status``) run the *same* fold, so what the
operator sees is exactly what a restart would act on.

Task lifecycle::

    PENDING ──lease_granted──▶ LEASED ──task_completed──▶ COMPLETED
       ▲                         │
       │      lease_reclaimed /  │ task_failed (attempts ≤ retries)
       └──────lease_released─────┘
                                 │ task_quarantined
                                 ▼
                            QUARANTINED

``task_failed`` consumes an attempt and returns the task to PENDING
(the orchestrator re-leases it, bit-identically — same
:class:`~repro.runner.seeding.SeedSpec`); ``lease_reclaimed`` and
``lease_released`` do *not* consume an attempt (a dead orchestrator or
a drain is not evidence against the task).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Tuple, Union

__all__ = [
    "TaskState",
    "TaskRecord",
    "SubmitRecord",
    "ServiceState",
    "fold_journal",
    "fold_records",
]


class TaskState:
    """Lifecycle states a journaled task can be in."""

    PENDING = "pending"
    LEASED = "leased"
    COMPLETED = "completed"
    QUARANTINED = "quarantined"

    ALL = (PENDING, LEASED, COMPLETED, QUARANTINED)


@dataclasses.dataclass
class TaskRecord:
    """Folded view of one task's journal history."""

    task_id: str
    state: str = TaskState.PENDING
    #: The task's full JSON-able description
    #: (:meth:`repro.runner.tasks.Task.describe`), carried in the
    #: ``task_enqueued`` record so a restart can rebuild the
    #: :class:`~repro.runner.tasks.Task` from the journal alone.
    description: Optional[Dict[str, Any]] = None
    submit_id: Optional[str] = None
    #: Failed attempts since the task was (re)enqueued (a
    #: reclaim/release does not count).
    attempts: int = 0
    #: Active lease fields (``lease_id``/``worker_pid``/``epoch_s``/
    #: ``ttl_s``), present only in the LEASED state.
    lease: Optional[Dict[str, Any]] = None
    last_error: Optional[str] = None
    last_error_type: Optional[str] = None
    #: Where the completed result came from: ``"worker"`` or ``"cache"``.
    completed_from: Optional[str] = None
    result_sha256: Optional[str] = None
    quarantine_record: Optional[str] = None

    @property
    def kind(self) -> Optional[str]:
        if self.description is None:
            return None
        return self.description.get("kind")

    def as_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        del out["description"]
        out["kind"] = self.kind
        return {k: v for k, v in out.items() if v is not None}


@dataclasses.dataclass
class SubmitRecord:
    """Folded view of one accepted or rejected submission."""

    submit_id: str
    accepted: bool
    label: Optional[str] = None
    task_count: int = 0
    deduped: int = 0
    reason: Optional[str] = None


@dataclasses.dataclass
class ServiceState:
    """Everything a restart (or a status view) needs from the journal."""

    tasks: Dict[str, TaskRecord] = dataclasses.field(default_factory=dict)
    submits: Dict[str, SubmitRecord] = dataclasses.field(
        default_factory=dict
    )
    #: ``service_start``/``service_resume``/``service_stop`` history,
    #: newest last.
    incarnations: List[Dict[str, Any]] = dataclasses.field(
        default_factory=list
    )
    #: Records skipped by the replay (torn/corrupt lines).
    corrupt_records: int = 0
    records: int = 0

    def by_state(self, state: str) -> List[TaskRecord]:
        return [t for t in self.tasks.values() if t.state == state]

    def counts(self) -> Dict[str, int]:
        out = {state: 0 for state in TaskState.ALL}
        for task in self.tasks.values():
            out[task.state] += 1
        return out

    @property
    def queue_depth(self) -> int:
        """Tasks the service still owes work to (pending + leased)."""
        counts = self.counts()
        return counts[TaskState.PENDING] + counts[TaskState.LEASED]

    @property
    def stopped_clean(self) -> bool:
        """True when the newest incarnation ended with ``service_stop``."""
        return bool(
            self.incarnations
            and self.incarnations[-1]["event"] == "service_stop"
        )


def fold_records(records: List[Dict[str, Any]]) -> ServiceState:
    """Reduce journal records (in file order) to a :class:`ServiceState`."""
    state = ServiceState(records=len(records))
    for record in records:
        event = record.get("event")
        task_id = record.get("task_id")
        if event in ("service_start", "service_resume", "service_stop"):
            state.incarnations.append(record)
            continue
        if event in ("sweep_accepted", "sweep_rejected"):
            submit_id = record.get("submit_id", "?")
            state.submits[submit_id] = SubmitRecord(
                submit_id=submit_id,
                accepted=(event == "sweep_accepted"),
                label=record.get("label"),
                task_count=int(record.get("task_count", 0)),
                deduped=int(record.get("deduped", 0)),
                reason=record.get("reason"),
            )
            continue
        if not task_id:
            continue
        task = state.tasks.get(task_id)
        if task is None:
            task = state.tasks[task_id] = TaskRecord(task_id=task_id)
        if event == "task_enqueued":
            task.state = TaskState.PENDING
            task.description = record.get("task", task.description)
            task.submit_id = record.get("submit_id", task.submit_id)
            # A resubmitted quarantined task gets a fresh attempt budget.
            task.attempts = 0
        elif event == "lease_granted":
            task.state = TaskState.LEASED
            task.lease = {
                "lease_id": record.get("lease_id"),
                "epoch_s": record.get("epoch_s"),
                "ttl_s": record.get("ttl_s"),
                "attempt": record.get("attempt", task.attempts),
            }
        elif event in ("lease_reclaimed", "lease_released"):
            # Not evidence against the task: no attempt consumed.
            if task.state == TaskState.LEASED:
                task.state = TaskState.PENDING
            task.lease = None
        elif event == "task_failed":
            task.attempts = int(record.get("attempt", task.attempts + 1))
            task.last_error = record.get("error")
            task.last_error_type = record.get("error_type")
            if task.state == TaskState.LEASED:
                task.state = TaskState.PENDING
            task.lease = None
        elif event == "task_completed":
            task.state = TaskState.COMPLETED
            task.lease = None
            task.completed_from = record.get("source", "worker")
            task.result_sha256 = record.get("result_sha256")
        elif event == "task_quarantined":
            task.state = TaskState.QUARANTINED
            task.lease = None
            task.attempts = int(record.get("attempts", task.attempts))
            task.quarantine_record = record.get("record_path")
    return state


def fold_journal(
    path_or_dir: Union[str, "Path"],  # noqa: F821 - str/Path both fine
) -> ServiceState:
    """Replay and fold the journal at ``path`` (file or service dir)."""
    from pathlib import Path

    from .journal import JOURNAL_FILENAME, read_journal

    path = Path(path_or_dir)
    if path.is_dir():
        path = path / JOURNAL_FILENAME
    records, corrupt = read_journal(path)
    state = fold_records(records)
    state.corrupt_records = corrupt
    return state
