"""The durable sweep orchestrator: the service's supervising process.

One :class:`Orchestrator` owns one *service directory* — journal,
inbox, quarantine, checkpoints, result cache, telemetry — and runs the
scheduling loop: admit submissions from the inbox (a task the
content-addressed result cache already holds completes on the spot),
lease pending tasks to workers, watch their heartbeats, commit their
results, re-lease a failed task at once (the runner's retry rule, with
``max_retries`` for ``retries``), quarantine poison, and drain cleanly
on request.

Every worker speaks one protocol — claim, heartbeat, then commit or
fail (:meth:`~Orchestrator.remote_claim`,
:meth:`~Orchestrator.remote_heartbeat`,
:meth:`~Orchestrator.remote_complete`,
:meth:`~Orchestrator.remote_fail`) — by running
:func:`~repro.runner.workers.work_loop` over one of two carriers.
The ``max_workers`` local worker processes :meth:`Orchestrator.serve`
starts are a :class:`~repro.runner.workers.WorkerPlane` — the same
forked workers ``ExperimentRunner`` uses — whose pipes the loop
answers while it waits between ticks; ``repro-plc work --connect``
hosts use HTTP (:mod:`repro.service.net`).  One lease table holds both
kinds.  They differ only in what a silent or dead lease costs: a local
worker is this process's own child, so the plane knows it stopped
working — it is killed if need be, its attempt is consumed and a fresh
worker takes its place; a silent remote host may merely be
partitioned, so the watchdog reclaims its lease without consuming an
attempt.  A lost local worker is charged the error the plane names —
``WorkerDied``, ``TimeoutError`` (with a ``timeout`` trace event, as in
the runner) or ``Watchdog`` — and a local claim runs with the runtime
:func:`~repro.runner.tasks.attempt_runtime` builds, its ``attempt``
span under the lease's ``point`` span.

Crash-safety discipline (the tentpole invariant):

1. **Journal first.**  Every state transition is a durable journal
   record *before* it takes effect, and the record is the transition:
   :meth:`Orchestrator._append` applies it to :attr:`Orchestrator.state`
   through :meth:`~repro.service.state.ServiceState.apply`, the reducer
   a restart and ``repro-plc status`` fold the file with, so the live
   state is always the fold of the journal.  ``kill -9`` between the
   record and an effect outside the state is recovered by replaying the
   journal: the restarted orchestrator re-derives the effect from the
   record.
2. **Effects are idempotent.**  Re-granting a lease whose shard never
   reached a worker re-runs the task bit-identically (same
   :class:`~repro.runner.seeding.SeedSpec`); re-committing a result the
   cache already holds dedupes on the cache key.
3. **One commit point.**  A task is *done* when ``task_completed`` is
   journaled.  The result is written to the cache immediately before
   (the ``result_commit`` kill window): dying between the two leaves a
   cached result and a leased task, and the restart completes it from
   the cache without recomputation — converging on the same bits.

Restart reclaims every lease the previous incarnation held without
consuming an attempt: a dead orchestrator is not evidence against the
task.  Its local workers are gone (each exits once its parent is
gone), and a remote host that is still computing may commit anyway —
commits converge on the cache key.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import faults
from ..runner.cache import ResultCache, cache_key, result_checksum
from ..runner.tasks import attempt_runtime
from ..runner.telemetry import TraceRecorder
from ..runner.workers import (
    HEARTBEAT_S,
    IDLE_CLAIM_S,
    SILENCE_TTL_S,
    LocalWorker,
    WorkerPlane,
)
from ..telemetry.openmetrics import write_openmetrics
from .journal import JOURNAL_FILENAME, JournalWriter
from .quarantine import QUARANTINE_DIRNAME, write_quarantine_record
from .signals import handle_signals
from .state import ServiceState, TaskRecord, TaskState, fold_journal
from .submit import (
    INBOX_DIRNAME,
    REJECTED_DIRNAME,
    read_submission,
)

__all__ = [
    "DRAIN_MARKER",
    "Orchestrator",
    "ServiceConfig",
    "ServicePaths",
    "request_drain",
]

#: Cross-process drain request: ``repro-plc drain`` touches this file,
#: the serve loop sees it and shuts down cleanly.
DRAIN_MARKER = "DRAIN"

#: Pid file of the running orchestrator (presence + live pid = serving).
PID_FILENAME = "serve.pid"


@dataclasses.dataclass(frozen=True)
class ServicePaths:
    """The on-disk layout of one service directory."""

    root: Path

    def __post_init__(self) -> None:
        # Accept plain strings everywhere a service dir is named.
        object.__setattr__(self, "root", Path(self.root))

    @property
    def journal(self) -> Path:
        return self.root / JOURNAL_FILENAME

    @property
    def inbox(self) -> Path:
        return self.root / INBOX_DIRNAME

    @property
    def rejected(self) -> Path:
        return self.root / REJECTED_DIRNAME

    @property
    def quarantine(self) -> Path:
        return self.root / QUARANTINE_DIRNAME

    @property
    def checkpoints(self) -> Path:
        return self.root / "checkpoints"

    @property
    def cache(self) -> Path:
        return self.root / "cache"

    @property
    def telemetry(self) -> Path:
        return self.root / "telemetry"

    @property
    def drain_marker(self) -> Path:
        return self.root / DRAIN_MARKER

    @property
    def pid_file(self) -> Path:
        return self.root / PID_FILENAME


def request_drain(service_dir: Union[str, Path]) -> Path:
    """Ask the orchestrator owning ``service_dir`` to drain and stop."""
    marker = ServicePaths(Path(service_dir)).drain_marker
    marker.parent.mkdir(parents=True, exist_ok=True)
    marker.write_text(str(time.time()), encoding="utf-8")
    return marker


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs of one orchestrator incarnation.

    Nothing here may change task *results* — only scheduling, safety
    margins, and disk layout.  The determinism contract (task identity
    = cache key of the description, retries replay the same seed) is
    what makes every knob safe to tune between incarnations.
    """

    service_dir: Union[str, Path]
    #: Local worker processes ``serve`` keeps running.
    max_workers: int = 2
    #: Deterministic retries before quarantine: a task failing
    #: ``max_retries + 1`` attempts is poison, not unlucky.
    max_retries: int = 2
    #: Heartbeat silence tolerated before a lease is stale.
    lease_ttl_s: float = SILENCE_TTL_S
    #: How often workers heartbeat their lease (and how often a local
    #: worker checks that its orchestrator is still alive).
    heartbeat_interval_s: float = HEARTBEAT_S
    #: Hard per-attempt wall-clock limit (``None`` = unlimited).
    task_timeout_s: Optional[float] = None
    #: Admission control: a submission that would push pending+leased
    #: past this depth is rejected (backpressure, not silent loss).
    max_queue_depth: int = 10000
    #: Scheduling-loop poll period, and how often an idle local worker
    #: claims again.
    poll_interval_s: float = IDLE_CLAIM_S
    #: Checkpoint cadence for long simulate/collision points
    #: (``None`` = only the runner defaults).
    checkpoint_every_us: Optional[float] = None
    #: fsync every journal append (only tests may turn this off).
    sync_journal: bool = True
    #: Seconds a drain waits for in-flight workers before terminating
    #: them (their leases are released; no attempt is consumed).
    drain_timeout_s: float = 10.0
    #: With ``exit_when_idle``: seconds the service must stay idle
    #: before exiting.  ``0`` exits on the first idle poll (the PR 9
    #: behaviour); the HTTP front end uses a grace so a freshly started
    #: server doesn't exit before its first remote submission arrives.
    idle_grace_s: float = 0.0


@dataclasses.dataclass
class _Lease:
    """One task leased to a worker, local or remote.

    Liveness is heartbeat recency for both kinds: the watchdog asks how
    long ago the last heartbeat arrived, never whether a pid exists (a
    remote pid means nothing on this host).
    """

    task_id: str
    worker_id: str
    granted_monotonic: float
    last_beat_monotonic: float
    span_id: Optional[str] = None


class Orchestrator:
    """Supervise one service directory.  See the module docstring."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.paths = ServicePaths(Path(config.service_dir))
        self.paths.root.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.paths.cache)
        self.journal = JournalWriter(
            self.paths.journal, sync=config.sync_journal
        )
        #: The fold of the journal: :meth:`_append` applies every record
        #: this incarnation writes, and nothing else changes it.
        self.state: ServiceState = fold_journal(self.paths.journal)
        #: Whether an earlier incarnation left records to recover from.
        self._resumed = self.state.records > 0
        #: This incarnation's event stream: lifecycle events and spans.
        self.trace = TraceRecorder()
        #: Every lease this incarnation granted, local or remote.
        self._leases: Dict[str, _Lease] = {}
        #: The local worker processes; the plane judges their leases.
        self._plane = WorkerPlane(
            config.max_workers,
            self._local_call,
            self._worker_lost,
            timeout_s=config.task_timeout_s,
            ttl_s=config.lease_ttl_s,
            poll_s=config.poll_interval_s,
            heartbeat_s=config.heartbeat_interval_s,
        )
        #: The live local workers, by worker id (the plane's own dict).
        self._workers: Dict[str, LocalWorker] = self._plane.workers
        #: Serializes every state mutation between the scheduling loop
        #: and the HTTP handler threads.  The journal keeps exactly one
        #: *process* writer; within that process, this lock keeps one
        #: *writer at a time* — an RLock so handler paths can call the
        #: same helpers the loop uses.
        self.lock = threading.RLock()
        #: Notified after every journal append: what an HTTP request
        #: held open (an idle claim, an unfinished sweep's status)
        #: waits on.  Every state change is journaled first, so an
        #: append is the one wake-up any held question needs.
        self.appended = threading.Condition(self.lock)
        #: Set while a drain is in progress — the HTTP layer answers
        #: 503 + Retry-After to new submissions and claims, and local
        #: workers are told to stop.
        self.draining = False
        #: Set once the journal is closed; every mutating HTTP route
        #: refuses after this point.
        self.closed = False
        #: True from the moment :meth:`serve` has journaled this
        #: incarnation's start and recovered the previous one's leases
        #: until the journal closes — what ``GET /v1/status`` reports.
        self.serving = False
        #: The signal that triggered the drain, if any (``repro-plc
        #: serve`` exits ``128 + signum`` so supervisors see SIGTERM
        #: drains as 143, per convention).
        self.shutdown_signum: Optional[int] = None
        self._next_task_index = len(self.state.tasks)
        self._task_indices: Dict[str, int] = {}
        self._sweep_span: Optional[str] = None

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> None:
        """Reclaim every lease the previous incarnation held, then close
        the ``result_commit`` crash window from the cache.  A lease
        this incarnation granted (a claim answered before ``serve``)
        is live, not a leftover."""
        for record in self.state.by_state(TaskState.LEASED):
            if record.task_id in self._leases:
                continue
            self._append(
                "lease_reclaimed",
                task_id=record.task_id,
                reason="orchestrator restart",
            )
        for record in self.state.by_state(TaskState.PENDING):
            self._complete_if_cached(record)

    # -- serve loop --------------------------------------------------------

    def serve(self, exit_when_idle: bool = False) -> ServiceState:
        """Run the scheduling loop until drained (or idle, if asked).

        ``exit_when_idle=True`` returns once the inbox is empty and no
        task is pending or leased — the mode tests, CI smoke, and
        one-shot batch deployments use.  Without it the loop runs until
        a drain request (SIGTERM/SIGINT or the ``DRAIN`` marker).  The
        local workers live exactly as long as this call.
        """
        cfg = self.config
        self.paths.pid_file.parent.mkdir(parents=True, exist_ok=True)
        self.paths.pid_file.write_text(str(os.getpid()), encoding="utf-8")
        resumed = self._resumed
        self._append(
            "service_resume" if resumed else "service_start",
            pid=os.getpid(),
            run_id=self.trace.run_id,
            tasks=len(self.state.tasks),
            corrupt_records=self.state.corrupt_records,
        )
        self._sweep_span = self.trace.start(
            "service", workers=cfg.max_workers, resumed=resumed
        )
        self.trace.record_run_start(
            detail=f"service tasks={len(self.state.tasks)}",
            span_id=self._sweep_span,
        )
        with self.lock:
            if resumed:
                self._recover()
            self.serving = True
        drained = False
        idle_since: Optional[float] = None
        try:
            with handle_signals(mode="flag") as shutdown:
                while True:
                    if shutdown.is_set() or self.paths.drain_marker.exists():
                        drained = True
                        self.shutdown_signum = shutdown.signum
                        self._drain()
                        break
                    with self.lock:
                        self._scan_inbox()
                        self._watchdog()
                        self._plane.spawn()
                        idle = self.state.queue_depth == 0 and not list(
                            self.paths.inbox.glob("*.json")
                        )
                    if exit_when_idle and idle:
                        now = time.monotonic()
                        if idle_since is None:
                            idle_since = now
                        if now - idle_since >= cfg.idle_grace_s:
                            break
                    elif not idle:
                        idle_since = None
                    self._plane.answer(cfg.poll_interval_s)
        finally:
            # Truthful shutdown telemetry even on an unexpected error:
            # workers stop, spans close, the trace flushes, the journal
            # records the stop — the restart path depends on none of
            # this, but the operator's status view does.
            self.draining = True
            with self.lock:
                self._plane.stop()
                self._release_leases("drain" if drained else "shutdown")
                self._append(
                    "service_stop",
                    pid=os.getpid(),
                    drained=drained,
                    counts=self.state.counts(),
                )
            self.trace.record(
                "run_end",
                span_id=self._sweep_span,
                detail=f"counts={self.state.counts()}",
            )
            for open_id in self.trace.open_spans():
                if open_id != self._sweep_span:
                    self.trace.end(open_id, status="aborted")
            self.trace.end(self._sweep_span)
            self._flush_telemetry()
            with self.lock:
                self.closed = True
                self.serving = False
                self.journal.close()
            try:
                self.paths.pid_file.unlink()
            except OSError:
                pass
            try:
                self.paths.drain_marker.unlink()
            except OSError:
                pass
        return self.state

    # -- inbox / admission -------------------------------------------------

    def _scan_inbox(self) -> None:
        inbox = self.paths.inbox
        if not inbox.is_dir():
            return
        for path in sorted(inbox.glob("*.json")):
            submission = read_submission(path)
            if submission is None:  # journaled under the file's name
                reason = "malformed submission"
                self._append(
                    "sweep_rejected", submit_id=path.stem, reason=reason
                )
                self._reject(path, reason)
                continue
            submit_id = submission.get("submit_id") or path.stem
            verdict = self.admit_submission(submission, submit_id=submit_id)
            if not verdict["accepted"]:
                self._reject(path, verdict["reason"])
                continue
            try:
                path.unlink()
            except OSError:
                pass

    def admit_submission(
        self, submission: Dict[str, Any], submit_id: Optional[str] = None
    ) -> Dict[str, Any]:
        """Admission control + enqueue for one validated submission.

        The single accept/reject decision both input channels share:
        the inbox scan calls it for dropped files, the HTTP front end
        (``POST /v1/sweeps``) calls it directly — so a sweep is
        admitted by exactly the same rules, journal records, and dedupe
        regardless of how it arrived.  Idempotent by construction: task
        identity is :func:`~repro.runner.cache.cache_key` of each
        description, so a duplicated or retried submission dedupes
        instead of double-enqueueing.  A newly enqueued task whose
        result the cache already holds completes here, without a
        lease.  Returns a verdict dict (``accepted``, ``submit_id``,
        and either ``task_count`` / ``deduped`` / ``new`` or
        ``reason``).
        """
        with self.lock:
            descriptions = submission["tasks"]
            if submit_id is None:
                from .submit import submission_id

                submit_id = submission.get("submit_id") or submission_id(
                    descriptions
                )
            new: List[Any] = []
            deduped = 0
            for description in descriptions:
                task_id = cache_key(description)
                known = self.state.tasks.get(task_id)
                if known is not None and known.state != TaskState.QUARANTINED:
                    deduped += 1
                    continue
                new.append((task_id, description))
            depth = self.state.queue_depth
            if depth + len(new) > self.config.max_queue_depth:
                reason = (
                    f"queue depth {depth} + {len(new)} new tasks "
                    f"exceeds limit {self.config.max_queue_depth}"
                )
                self._append(
                    "sweep_rejected", submit_id=submit_id, reason=reason
                )
                return {
                    "accepted": False,
                    "submit_id": submit_id,
                    "reason": reason,
                }
            self._append(
                "sweep_accepted",
                submit_id=submit_id,
                label=submission.get("label"),
                task_count=len(descriptions),
                deduped=deduped,
            )
            for task_id, description in new:
                self._append(
                    "task_enqueued",
                    task_id=task_id,
                    submit_id=submit_id,
                    task=description,
                )
                record = self.state.tasks[task_id]
                self.trace.record(
                    "queued",
                    task_index=self._task_index(task_id),
                    kind=description.get("kind"),
                    span_id=self._sweep_span,
                )
                self._complete_if_cached(record)
            return {
                "accepted": True,
                "submit_id": submit_id,
                "task_count": len(descriptions),
                "deduped": deduped,
                "new": len(new),
            }

    def _reject(self, path: Path, reason: str) -> None:
        """Park a rejected inbox file beside its reason."""
        self.paths.rejected.mkdir(parents=True, exist_ok=True)
        target = self.paths.rejected / path.name
        try:
            shutil.move(str(path), str(target))
            # Correlation ids alongside the reason so `repro-plc
            # report` can tie the rejection to this incarnation's span
            # tree (first line stays the bare reason for humans).
            target.with_suffix(".reason.txt").write_text(
                f"{reason}\n"
                f"run_id: {self.trace.run_id}\n"
                f"span_id: {self._sweep_span}\n",
                encoding="utf-8",
            )
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass

    def _complete_if_cached(self, record: TaskRecord) -> None:
        """The cache fast-path, run once as a task becomes pending.

        A result already in the cache — from an earlier sweep, or a
        commit whose ``task_completed`` a crash cut off — completes the
        task without a lease.
        """
        cached = self.cache.get(record.task_id)
        if cached is None:
            return
        self._append(
            "task_completed",
            task_id=record.task_id,
            source="cache",
            result_sha256=result_checksum(cached),
        )
        self.trace.record(
            "cache_hit",
            task_index=self._task_index(record.task_id),
            kind=record.kind,
            span_id=self._sweep_span,
        )

    def _task_index(self, task_id: str) -> int:
        """Stable per-task slot number for trace events (top view)."""
        index = self._task_indices.get(task_id)
        if index is None:
            index = self._task_indices[task_id] = self._next_task_index
            self._next_task_index += 1
        return index

    # -- local workers -----------------------------------------------------

    def _local_call(
        self,
        worker_id: str,
        name: str,
        task_id: Optional[str],
        fields: Dict[str, Any],
    ) -> Any:
        """One pipe call, answered by the same method as its HTTP twin.

        The pipe names the worker, so the message carries no worker id.
        A local claim also carries the runtime the task runs with
        (:func:`~repro.runner.tasks.attempt_runtime`): checkpoints with
        resume, and the lease's ``point`` span for its ``attempt`` span
        to hang under.
        """
        if name == "heartbeat":
            return self.remote_heartbeat(task_id, worker_id)
        if name == "commit":
            return self.remote_complete(task_id, worker_id, **fields)
        if name == "fail":
            return self.remote_fail(task_id, worker_id, **fields)
        shard = self.remote_claim(worker_id)
        if shard is not None:
            shard["runtime"] = attempt_runtime(
                shard["task"]["kind"],
                shard["task_id"],
                checkpoint_root=self.paths.checkpoints,
                checkpoint_every_us=self.config.checkpoint_every_us,
                run_id=self.trace.run_id,
                parent_span_id=self._leases[shard["task_id"]].span_id,
            )
        return shard

    def _worker_lost(
        self,
        worker_id: str,
        task_id: Optional[str],
        error_type: str,
        error: str,
        pid: Optional[int],
    ) -> None:
        """The plane removed a local worker: our own child, so we know
        it stopped working, and the lease it held is one failed attempt
        with the error the plane names.  The next tick's spawn replaces
        it."""
        lease = self._leases.get(task_id)
        if lease is None or lease.worker_id != worker_id:
            return
        if error_type == "TimeoutError":
            record = self.state.tasks[task_id]
            self.trace.record(
                "timeout",
                task_index=self._task_index(task_id),
                kind=record.kind,
                attempt=record.attempts,
                span_id=lease.span_id,
            )
        self._record_failure(
            lease, error=error, error_type=error_type, worker_pid=pid
        )

    # -- watchdog ----------------------------------------------------------

    def _watchdog(self) -> None:
        """Settle local workers that exited, went silent or overran
        (the plane), and remote leases gone silent or past
        ``task_timeout_s``."""
        self._plane.watch()
        cfg = self.config
        now = time.monotonic()
        for lease in list(self._leases.values()):
            if lease.worker_id in self._workers:
                continue
            silent_s = now - lease.last_beat_monotonic
            overrun = (
                cfg.task_timeout_s is not None
                and now - lease.granted_monotonic > cfg.task_timeout_s
            )
            if silent_s <= cfg.lease_ttl_s and not overrun:
                continue
            verdict = "overrun" if overrun else "silent"
            # A silent remote host may be dead or merely partitioned;
            # heartbeat recency is the only truth across the wire.
            # Reclaim WITHOUT consuming a retry attempt: losing contact
            # is not evidence against the task.  If the host later
            # commits its result, remote_complete converges on the
            # cache key (duplicate commits are idempotent).
            self._append(
                "lease_reclaimed",
                task_id=lease.task_id,
                reason=f"watchdog: remote {verdict} "
                f"(silent {silent_s:.1f}s)",
                worker=lease.worker_id,
            )
            self._requeue(lease)

    def _requeue(self, lease: _Lease) -> None:
        """Drop a lease whose reclaim or release is journaled: its task
        is pending again, with no attempt consumed."""
        del self._leases[lease.task_id]
        if lease.span_id:
            self.trace.end(lease.span_id, status="aborted")

    def _record_failure(
        self,
        lease: _Lease,
        *,
        error: str,
        error_type: str,
        traceback_text: Optional[str] = None,
        worker_pid: Optional[int] = None,
    ) -> None:
        """One failed attempt, journaled with its traceback: the task is
        pending again (re-leased at once) or, past ``max_retries``,
        quarantined with the failure history the fold holds."""
        task_id = lease.task_id
        del self._leases[task_id]
        record = self.state.tasks[task_id]
        attempt = record.attempts + 1
        self._append(
            "task_failed",
            task_id=task_id,
            attempt=attempt,
            error=error,
            error_type=error_type,
            traceback=traceback_text,
            worker_pid=worker_pid,
            worker=lease.worker_id,
        )
        if lease.span_id:
            self.trace.end(lease.span_id, status="error")
        if attempt > self.config.max_retries:
            record_path = write_quarantine_record(
                self.paths.quarantine,
                task_id,
                record.description or {},
                record.failures,
                run_id=self.trace.run_id,
                span_id=lease.span_id,
            )
            self._append(
                "task_quarantined",
                task_id=task_id,
                attempts=attempt,
                record_path=str(record_path),
            )
            event = "failed"
        else:
            event = "retried"
        self.trace.record(
            event,
            task_index=self._task_index(task_id),
            kind=record.kind,
            attempt=attempt,
            error=f"{error_type}: {error}",
            span_id=lease.span_id,
        )

    # -- the worker protocol (local pipe and HTTP alike) -------------------

    def remote_claim(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Lease one pending task to ``worker_id``; ``None`` when nothing
        is claimable.

        The one claim path: journal ``lease_granted`` (with the worker
        id) before the shard leaves, start the ``point`` span, and hand
        back the full task description — the worker rebuilds the
        :class:`~repro.runner.tasks.Task` with its exact
        :class:`~repro.runner.seeding.SeedSpec`, so where a task runs
        can never change its bits.
        """
        with self.lock:
            if self.draining or self.closed:
                return None
            record = next(
                (
                    r
                    for r in self.state.by_state(TaskState.PENDING)
                    if r.description is not None
                ),
                None,
            )
            if record is None:
                return None
            task_id = record.task_id
            attempt = record.attempts
            span_id = self.trace.start(
                "point",
                parent_id=self._sweep_span,
                task_id=task_id,
                kind=record.kind,
                attempt=attempt,
                worker=worker_id,
            )
            self._append(
                "lease_granted",
                task_id=task_id,
                lease_id=f"{worker_id}-{self.journal.seq}",
                ttl_s=self.config.lease_ttl_s,
                attempt=attempt,
                worker=worker_id,
            )
            faults.fire("lease_grant")
            now = time.monotonic()
            self._leases[task_id] = _Lease(
                task_id=task_id,
                worker_id=worker_id,
                granted_monotonic=now,
                last_beat_monotonic=now,
                span_id=span_id,
            )
            self.trace.record(
                "started",
                task_index=self._task_index(task_id),
                kind=record.kind,
                attempt=attempt,
                span_id=span_id,
                parent_id=self._sweep_span,
            )
            return {
                "task_id": task_id,
                "task": record.description,
                "attempt": attempt,
                "lease_ttl_s": self.config.lease_ttl_s,
                "heartbeat_interval_s": self.config.heartbeat_interval_s,
            }

    def remote_heartbeat(self, task_id: str, worker_id: str) -> bool:
        """Refresh a lease; ``False`` when the lease is gone.

        ``False`` tells the worker its lease was reclaimed (it was
        silent past the TTL, or the server restarted).  The worker may
        still finish and commit — the commit converges idempotently —
        but it must not rely on exclusivity.
        """
        with self.lock:
            lease = self._leases.get(task_id)
            if lease is None or lease.worker_id != worker_id:
                return False
            lease.last_beat_monotonic = time.monotonic()
            return True

    def remote_complete(
        self,
        task_id: str,
        worker_id: str,
        result: Dict[str, Any],
        elapsed_s: Optional[float] = None,
        worker_pid: Optional[int] = None,
        spans: Optional[List[Dict[str, Any]]] = None,
    ) -> str:
        """Commit a result: ``committed`` / ``duplicate`` / ``unknown``.

        The one commit path, in the one order: ``cache.put`` →
        (``result_commit`` fault point) → journal ``task_completed``.  A
        lost ack converges on redelivery: the retried commit finds the
        task COMPLETED and is answered ``duplicate`` — same bits, no
        recomputation.  Commits are accepted even when the lease was
        reclaimed meanwhile (task identity is the cache key; a correct
        result is a correct result regardless of who held the lease).
        """
        with self.lock:
            if self.closed:
                return "unknown"
            record = self.state.tasks.get(task_id)
            if record is None:
                return "unknown"
            if record.state == TaskState.COMPLETED:
                return "duplicate"
            self.cache.put(task_id, result, record.description or {})
            faults.fire("result_commit")
            self._append(
                "task_completed",
                task_id=task_id,
                source="worker",
                result_sha256=result_checksum(result),
                worker=worker_id,
                worker_pid=worker_pid,
                elapsed_s=elapsed_s,
            )
            lease = self._leases.pop(task_id, None)
            if spans:
                self.trace.adopt(spans)
            self.trace.record(
                "finished",
                task_index=self._task_index(task_id),
                kind=record.kind,
                attempt=record.attempts,
                duration_s=elapsed_s,
                worker_pid=worker_pid,
                span_id=lease.span_id if lease else None,
            )
            if lease and lease.span_id:
                self.trace.end(lease.span_id, status="ok")
            return "committed"

    def remote_fail(
        self,
        task_id: str,
        worker_id: str,
        error: str,
        error_type: str = "RemoteWorkerError",
        traceback: Optional[str] = None,
    ) -> str:
        """Record a failed attempt: ``failed`` / ``ignored``.

        Only the current lease holder's report consumes an attempt — a
        stale worker whose lease was already reclaimed (its failure may
        have *been* the partition) is ignored, preserving the
        reclaim-does-not-consume-an-attempt invariant.
        """
        with self.lock:
            if self.closed:
                return "ignored"
            lease = self._leases.get(task_id)
            if lease is None or lease.worker_id != worker_id:
                return "ignored"
            self._record_failure(
                lease,
                error=error,
                error_type=error_type,
                traceback_text=traceback,
            )
            return "failed"

    def remote_leases(self) -> Dict[str, str]:
        """``task_id → worker_id`` of the leases remote hosts hold."""
        with self.lock:
            return {
                task_id: lease.worker_id
                for task_id, lease in self._leases.items()
                if lease.worker_id not in self._workers
            }

    # -- drain / shutdown --------------------------------------------------

    def _drain(self) -> None:
        """Stop granting leases; let in-flight work commit.

        Local and remote workers alike get the drain window to commit
        (the result and fail routes stay open and the pipes stay
        answered while ``draining`` — only *new* submissions and claims
        are refused).  Whatever is still leased at the deadline is
        released by the shutdown path without consuming an attempt.
        """
        with self.lock:
            self.draining = True
            self._append(
                "drain_start",
                pid=os.getpid(),
                leases=len(self._leases),
            )
        deadline = time.monotonic() + self.config.drain_timeout_s
        while time.monotonic() < deadline:
            with self.lock:
                self._watchdog()
                if not self._leases:
                    break
            self._plane.answer(self.config.poll_interval_s)

    def _release_leases(self, reason: str) -> None:
        for lease in list(self._leases.values()):
            self._append(
                "lease_released",
                task_id=lease.task_id,
                reason=reason,
                worker=lease.worker_id,
            )
            self._requeue(lease)

    # -- helpers -----------------------------------------------------------

    def _append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Journal one record, apply it to :attr:`state` — the one
        state transition, the same a restart folds — and wake the
        requests held on :attr:`appended`.  They run once the caller
        releases the lock."""
        with self.appended:
            record = self.journal.append(event, **fields)
            self.state.apply(record)
            self.appended.notify_all()
        return record

    def _flush_telemetry(self) -> None:
        telemetry = self.paths.telemetry
        try:
            telemetry.mkdir(parents=True, exist_ok=True)
            self.trace.flush_jsonl(telemetry / "trace.jsonl")
            write_openmetrics(
                telemetry / "metrics.prom", run_id=self.trace.run_id
            )
        except OSError:
            pass
