"""Run telemetry: one event stream per run, plus failure records.

The runner emits one :class:`TaskEvent` per lifecycle transition of
every task it schedules — ``queued``, ``cache_hit``, ``started``,
``retried``, ``timeout``, ``failed``, ``checkpoint_resume`` (the
attempt picked its point up from a snapshot; saves are recorded only
in each checkpoint store's own ``journal.jsonl``), ``finished`` — plus
run-level events (``run_start``, ``run_end``, and ``pool_rebuild`` for
each worker replaced).  When the run writes a trace file, the same
:class:`TraceRecorder` also records its *spans* — the timed scopes of
the run (sweep → point → attempt, chaos episodes) — as paired
``span_start``/``span_end`` events.  Both kinds share one event list,
one clock and one ``run_id``, and append to one JSONL file (one event
object per line): what ``repro-plc ... --trace FILE`` and the
``trace.jsonl`` of a ``--telemetry-dir`` hold.

Paired span records (rather than one record at close) are what make
the file tail-able: a live console shows in-flight spans, and a
crashed run leaves its open spans visible instead of losing them.

Permanently failed tasks additionally get a structured
:class:`TaskFailure` record (collected on
``ExperimentRunner.failures``), so a partial-results sweep can report
exactly which points were lost, after how many attempts, and why.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Any, Dict, Iterator, List, Optional

from ..obs.recording import JsonlEventLog
from ..telemetry.context import new_run_id, new_span_id

__all__ = ["TaskEvent", "TaskFailure", "TraceRecorder"]


@dataclasses.dataclass(frozen=True)
class TaskEvent:
    """One lifecycle transition of one task (or of the run itself), or
    one end of a span.

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
    #: Failed attempts before this one (0 = first execution); ``None``
    #: on span events.
    attempt: Optional[int] = 0
    #: Wall-clock seconds the task spent executing (``finished``), or
    #: the span lasted (``span_end``).
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
    #: Wall-clock epoch seconds: of the recorder's ``t_s = 0`` origin
    #: on ``run_start``, of the span's start on ``span_start``, so
    #: cross-process merges share an axis.
    epoch_s: Optional[float] = None
    #: Span events only: the span's name, its closing status (``ok``,
    #: ``error``, ``aborted``) and the attributes it was opened or
    #: closed with.
    name: Optional[str] = None
    status: Optional[str] = None
    attrs: Optional[Dict[str, Any]] = None

    def as_jsonable(self) -> Dict[str, Any]:
        return {
            key: value
            for key, value in dataclasses.asdict(self).items()
            if value is not None
        }


#: The :class:`TaskEvent` fields, what :meth:`TraceRecorder.adopt`
#: keeps of a foreign record.
_EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(TaskEvent))


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

    Spans are recorded on the same list (:meth:`start`, :meth:`end`,
    :meth:`span`) — the protocol the ambient
    :class:`~repro.telemetry.context.TelemetryContext` records through:

    >>> recorder = TraceRecorder(run_id="r" * 16)
    >>> with recorder.span("sweep", points=3) as sweep_id:
    ...     with recorder.span("point", parent_id=sweep_id):
    ...         pass
    >>> [e.event for e in recorder.events]
    ['span_start', 'span_start', 'span_end', 'span_end']
    """

    def __init__(self, run_id: Optional[str] = None) -> None:
        super().__init__()
        self._t0 = time.perf_counter()
        #: Wall-clock anchor of ``t_s = 0``.
        self.epoch_s = time.time() - (time.perf_counter() - self._t0)
        self.run_id = run_id if run_id is not None else new_run_id()
        #: Open spans: span_id -> (name, start t_s).
        self._open: Dict[str, Any] = {}

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

    # -- spans ---------------------------------------------------------------

    def start(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> str:
        """Open a span; returns its id."""
        span_id = new_span_id()
        t_s = time.perf_counter() - self._t0
        self.append(
            TaskEvent(
                event="span_start",
                t_s=t_s,
                attempt=None,
                run_id=self.run_id,
                span_id=span_id,
                parent_id=parent_id,
                epoch_s=self.epoch_s + t_s,
                name=name,
                attrs=attrs or None,
            )
        )
        self._open[span_id] = (name, t_s)
        return span_id

    def end(self, span_id: str, status: str = "ok", **attrs: Any) -> None:
        """Close a span; unknown/already-closed ids are ignored."""
        opened = self._open.pop(span_id, None)
        if opened is None:
            return
        name, started = opened
        t_s = time.perf_counter() - self._t0
        self.append(
            TaskEvent(
                event="span_end",
                t_s=t_s,
                attempt=None,
                duration_s=t_s - started,
                run_id=self.run_id,
                span_id=span_id,
                name=name,
                status=status,
                attrs=attrs or None,
            )
        )

    @contextlib.contextmanager
    def span(
        self, name: str, parent_id: Optional[str] = None, **attrs: Any
    ) -> Iterator[str]:
        """Record one span around the body; yields its id, and closes
        it with ``status="error"`` on an exception."""
        span_id = self.start(name, parent_id=parent_id, **attrs)
        try:
            yield span_id
        except BaseException:
            self.end(span_id, status="error")
            raise
        self.end(span_id)

    def open_spans(self) -> List[str]:
        """Ids of spans started but not yet ended, in start order."""
        return list(self._open)

    def adopt(self, records: List[Dict[str, Any]]) -> int:
        """Append span records produced elsewhere (a worker process).

        The records keep their own ids and timestamps, so adoption is
        a plain append that ``flush_jsonl`` persists with everything
        else.  Only :class:`TaskEvent` fields are kept; a missing one
        is left off the line.  Returns how many were adopted.
        """
        for record in records:
            self.append(
                TaskEvent(**{key: record.get(key) for key in _EVENT_FIELDS})
            )
        return len(records)
