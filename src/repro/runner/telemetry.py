"""Run telemetry: per-task lifecycle events and failure records.

The runner emits one :class:`TaskEvent` per lifecycle transition of
every task it schedules — ``queued``, ``cache_hit``, ``started``,
``retried``, ``timeout``, ``failed``, ``finished`` — plus run-level
events (``run_start``, ``run_end``, and ``pool_rebuild`` for each
worker replaced).  A :class:`TraceRecorder` collects them in order
and can append them to a JSONL file (one event object per line), which
is what ``repro-plc ... --trace FILE`` writes.

Permanently failed tasks additionally get a structured
:class:`TaskFailure` record (collected on
``ExperimentRunner.failures``), so a partial-results sweep can report
exactly which points were lost, after how many attempts, and why.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional

from ..obs.recording import JsonlEventLog

__all__ = ["TaskEvent", "TaskFailure", "TraceRecorder"]


@dataclasses.dataclass(frozen=True)
class TaskEvent:
    """One lifecycle transition of one task (or of the run itself).

    ``t_s`` is seconds since the recorder was created — a single
    monotonic origin for the whole trace, so event ordering and
    durations are meaningful across workers.  ``epoch_s`` (set on
    ``run_start``) anchors that origin to the wall clock, and
    ``run_id`` stamps every event, so traces from different
    processes/runs can be merged and correlated.
    """

    event: str
    t_s: float
    #: Slot of the task in the ``run()`` batch; ``None`` for run-level
    #: events (``run_start``, ``pool_rebuild``, ...).
    task_index: Optional[int] = None
    kind: Optional[str] = None
    #: Failed attempts before this one (0 = first execution).
    attempt: int = 0
    #: Wall-clock seconds the task spent executing (``finished`` only).
    duration_s: Optional[float] = None
    #: PID of the worker process that executed the task.
    worker_pid: Optional[int] = None
    error: Optional[str] = None
    detail: Optional[str] = None
    #: Telemetry correlation: the run this event belongs to (every
    #: event) and the span that produced it (when spans are enabled).
    run_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    #: Wall-clock epoch seconds of the recorder's ``t_s = 0`` origin;
    #: emitted on ``run_start`` so cross-process merges share an axis.
    epoch_s: Optional[float] = None

    def as_jsonable(self) -> Dict[str, Any]:
        return {
            key: value
            for key, value in dataclasses.asdict(self).items()
            if value is not None
        }


@dataclasses.dataclass(frozen=True)
class TaskFailure:
    """Why one task produced no result.

    ``attempts`` counts every execution attempt (1 + retries).  The
    failed slot in the results list is ``None``; this record is the
    structured explanation.
    """

    task_index: int
    kind: str
    key: str
    attempts: int
    error_type: str
    error: str
    timed_out: bool = False
    #: For checkpointed tasks: the store directory and what it holds
    #: (valid snapshot count, newest resumable seq/sim-time) at failure
    #: time — i.e. exactly where a re-run would pick the point up.
    checkpoint: Optional[Dict[str, Any]] = None

    def as_jsonable(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        if out["checkpoint"] is None:
            del out["checkpoint"]
        return out


class TraceRecorder(JsonlEventLog):
    """Collect :class:`TaskEvent` records; flush them to JSONL.

    The collection/flush contract (ordered ``events`` list,
    append-only incremental ``flush_jsonl``) comes from
    :class:`~repro.obs.recording.JsonlEventLog` — the same conventions
    the MAC/SoF trace recorders of :mod:`repro.obs.trace` follow.
    This recorder adds the ``t_s`` stamping relative to its creation:
    a single monotonic origin for the whole trace, so event ordering
    and durations are meaningful across workers.

    Every event is stamped with the recorder's ``run_id``; the
    ``epoch_s`` wall-clock anchor of the ``t_s = 0`` origin goes out on
    ``run_start`` events (see :meth:`record_run_start`).
    """

    def __init__(self, run_id: Optional[str] = None) -> None:
        super().__init__()
        self._t0 = time.perf_counter()
        #: Wall-clock anchor of ``t_s = 0``.
        self.epoch_s = time.time() - (time.perf_counter() - self._t0)
        if run_id is None:
            from ..telemetry.context import new_run_id

            run_id = new_run_id()
        self.run_id = run_id

    def record(self, event: str, **fields: Any) -> TaskEvent:
        fields.setdefault("run_id", self.run_id)
        return self.append(
            TaskEvent(
                event=event, t_s=time.perf_counter() - self._t0, **fields
            )
        )

    def record_run_start(self, **fields: Any) -> TaskEvent:
        """A ``run_start`` event carrying the wall-clock epoch anchor."""
        fields.setdefault("epoch_s", self.epoch_s)
        return self.record("run_start", **fields)

    def of_kind(self, event: str) -> List[TaskEvent]:
        """Events with the given ``event`` name, in record order."""
        return [e for e in self.events if e.event == event]
