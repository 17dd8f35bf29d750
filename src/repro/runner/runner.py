"""The fault-tolerant parallel experiment runner.

:class:`ExperimentRunner` executes an ordered list of
:class:`~repro.runner.tasks.Task` and returns their results *in input
order*, regardless of completion order, worker count or cache state:

1. every task's cache key is computed in the submitting process;
2. cached points are answered from disk;
3. the remaining points run either in-process (``max_workers=1`` — the
   serial path, no processes, no pickling; the serial step of
   :class:`~repro.runner.batch.BatchRunner` packs ``simulate`` points
   into batch-kernel dispatches) or on the forked workers of a
   :class:`~repro.runner.workers.WorkerPlane`, which claim them one
   at a time, heartbeat them and commit their results — the protocol
   the service's workers speak;
4. fresh results are written back to the cache (when one is
   configured) and every result is slotted back by task index.

Determinism: each task's random draws are fully specified by its
:class:`~repro.runner.seeding.SeedSpec`, so steps 2–4 cannot change the
numbers — only how fast they arrive.  The determinism contract is
enforced by ``tests/integration/test_conformance.py``.

Fault tolerance (``tests/runner/test_faults.py``): a failing task is
retried at once, up to ``retries`` times — the rule the service
applies with ``max_retries`` — and because a retry resubmits the
*same* :class:`Task` (hence the same ``SeedSpec``), the determinism
contract extends to failure paths: a sweep that recovers from worker
crashes is bit-identical to a clean run.  ``task_timeout_s`` puts a
wall-clock bound on each running task (on workers only — a hung task
cannot be preempted in-process).  A worker that dies or overruns the
bound charges the one task it held one failed attempt, with the error
the :class:`~repro.runner.workers.WorkerPlane` names (``WorkerDied``,
``TimeoutError``); it is killed if need be and a fresh worker takes
its place (counted in ``pool_rebuilds``).  With
``on_failure="partial"``, a task that exhausts its retries leaves
``None`` in its result slot and a structured
:class:`~repro.runner.telemetry.TaskFailure` on ``runner.failures``
instead of aborting the sweep; the default ``"raise"`` mode raises
:class:`RunnerTaskError` (with counters still finalized truthfully).
Every lifecycle transition is recorded on ``runner.trace``.  With a
``trace_path``, the run's spans join it and the stream is appended to
that one JSONL file as the run goes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.config import ScenarioConfig
from ..core.metrics import RunnerCounters
from ..core.results import SimulationResult, StationStats
from .cache import ResultCache, cache_key
from .seeding import SeedSpec
from .serialize import scenario_to_jsonable
from ..telemetry.context import TelemetryContext, activate
from ..telemetry.openmetrics import write_openmetrics
from .tasks import (
    Task,
    TaskKind,
    attempt_runtime,
    checkpoint_status,
    resume_point,
    run_task,
)
from .telemetry import TaskFailure, TraceRecorder
from .workers import IDLE_CLAIM_S, WorkerPlane

__all__ = [
    "RunnerConfig",
    "ExperimentRunner",
    "RunnerTaskError",
    "SimPointResult",
    "rehydrate_simulation",
    "require_complete",
]


class RunnerTaskError(RuntimeError):
    """One or more tasks failed permanently (retries exhausted).

    Carries the structured :class:`TaskFailure` records on
    ``.failures`` so callers can report exactly which points were lost.
    """

    def __init__(self, message: str, failures: Sequence[TaskFailure] = ()):
        super().__init__(message)
        self.failures = list(failures)


class _WorkerTraceback(Exception):
    """The traceback text a worker sent with a failed attempt, chained
    as the cause of the :class:`RunnerTaskError` it led to."""


@dataclasses.dataclass(frozen=True)
class RunnerConfig:
    """How to execute experiment points.

    Parameters
    ----------
    max_workers:
        ``1`` (default) runs points serially in-process; ``n > 1``
        fans them out over ``n`` worker processes; ``0`` or ``None``
        means "one per CPU".
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables
        caching.
    progress:
        Optional ``callback(done, total)`` invoked in the submitting
        process as points complete (including permanently failed ones).
    retries:
        Retry attempts per task after its first failure (default 0 —
        one attempt total).  A failed task is retried at once, with
        its exact ``SeedSpec``, so retrying cannot change the numbers.
    task_timeout_s:
        Per-task wall-clock bound, enforced by killing the worker of an
        overrunning task.  ``None`` (default) disables it; with
        ``max_workers=1`` there is no worker to kill, so it is not
        enforced.
    on_failure:
        ``"raise"`` (default) aborts the sweep with
        :class:`RunnerTaskError` on the first permanent failure;
        ``"partial"`` completes the sweep, leaves ``None`` in failed
        slots and records a :class:`TaskFailure` per lost point.
    trace_path:
        When set, the run's event stream is appended to this JSONL
        file at run start, as points complete (at most every 0.5 s)
        and when the run ends — so ``repro-plc top`` can follow it.
        The stream holds the task lifecycle events and the run's
        spans (sweep → point → attempt, plus ``chaos_test`` under a
        chaos point's attempt, and a ``checkpoint_resume`` lifecycle
        event for an attempt that resumed from a snapshot); an
        ambient :class:`~repro.telemetry.context.TelemetryContext`
        is active for the duration of each ``run()``, and every JSONL
        line any layer writes during the run (obs traces, chaos
        ledgers, the checkpoint stores' ``journal.jsonl`` of saves and
        resumes) is stamped with the run's ``run_id``.  ``None``
        (default) records no span and activates no context — the
        zero-cost path.
    telemetry_dir:
        Telemetry directory (the layout ``repro-plc top`` and
        ``repro-plc report`` expect): the run's stream goes to its
        ``trace.jsonl`` unless ``trace_path`` is set, and the runner's
        counters are rendered to its ``metrics.prom`` in OpenMetrics
        text format on the same schedule — the Prometheus
        textfile-collector pattern.
    checkpoint_dir:
        When set, ``simulate`` and ``collision_test`` points snapshot
        their full simulation state into
        ``checkpoint_dir/<cache_key>/`` as they run, and a (re)run of
        the same point — after a crash, a kill, or an exhausted-retry
        failure — resumes from the newest valid snapshot instead of
        starting over.  Resumption is bit-identical to an
        uninterrupted run (the :mod:`repro.checkpoint` invariant), so
        cache keys and results are unaffected.  ``None`` (default)
        disables checkpointing.  Points with an ``obs`` capture config
        run straight through (capture sessions stream artifacts and
        cannot be re-entered mid-run).
    checkpoint_every_us:
        Snapshot cadence in simulated microseconds; ``None`` uses the
        per-kind defaults (:data:`repro.checkpoint.slotsim
        .DEFAULT_SLOTSIM_EVERY_US`, :data:`repro.checkpoint
        .DEFAULT_CHECKPOINT_EVERY_US`).
    resume:
        ``True`` (default) resumes checkpointed points from the newest
        valid snapshot when one exists; ``False`` ignores existing
        snapshots and recomputes from scratch (still writing fresh
        ones).

    All constraints are validated here at construction time, so a bad
    config fails immediately with a clear message instead of deep
    inside a sweep.
    """

    max_workers: Optional[int] = 1
    cache_dir: Optional[Union[str, Path]] = None
    progress: Optional[Callable[[int, int], None]] = None
    retries: int = 0
    task_timeout_s: Optional[float] = None
    on_failure: str = "raise"
    trace_path: Optional[Union[str, Path]] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_every_us: Optional[float] = None
    resume: bool = True
    telemetry_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.telemetry_dir is not None and self.trace_path is None:
            object.__setattr__(
                self, "trace_path", Path(self.telemetry_dir) / "trace.jsonl"
            )
        if (
            self.checkpoint_every_us is not None
            and self.checkpoint_every_us <= 0
        ):
            raise ValueError(
                "checkpoint_every_us must be > 0 or None, "
                f"got {self.checkpoint_every_us}"
            )
        if self.checkpoint_every_us is not None and self.checkpoint_dir is None:
            raise ValueError(
                "checkpoint_every_us requires checkpoint_dir to be set"
            )
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError(
                "max_workers must be >= 0 or None (0/None = one per CPU), "
                f"got {self.max_workers}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ValueError(
                f"task_timeout_s must be > 0 or None, got {self.task_timeout_s}"
            )
        if self.on_failure not in ("raise", "partial"):
            raise ValueError(
                f"on_failure must be 'raise' or 'partial', got {self.on_failure!r}"
            )

    def resolved_workers(self) -> int:
        if not self.max_workers:
            return max(1, os.cpu_count() or 1)
        return self.max_workers


@dataclasses.dataclass(frozen=True)
class SimPointResult:
    """One simulated point: the counters result plus optional extras."""

    result: SimulationResult
    winners: Optional[Tuple[int, ...]] = None


@dataclasses.dataclass
class _Pending:
    """One not-yet-completed task and its retry state."""

    index: int
    task: Task
    #: ``task.describe()`` and its cache key.
    description: Dict[str, Any]
    key: str
    #: Failed attempts so far (0 = never attempted).
    attempt: int = 0
    #: Telemetry "point" span covering the task's whole lifecycle
    #: (``None`` without a trace file).
    span_id: Optional[str] = None


@dataclasses.dataclass
class _RunState:
    """Mutable bookkeeping of one ``run()`` call."""

    #: One slot per task, in task order.
    results: List[Optional[Dict[str, Any]]]
    done: int = 0
    executed: int = 0
    failures: List[TaskFailure] = dataclasses.field(default_factory=list)
    #: Entries waiting for a worker, in claim order.
    queue: List[_Pending] = dataclasses.field(default_factory=list)
    #: Leased entries by task index — a task list may repeat a cache
    #: key — each with its :func:`resume_point` at lease time.
    leases: Dict[int, Tuple[_Pending, Optional[Tuple[int, float]]]] = (
        dataclasses.field(default_factory=dict)
    )

    @property
    def total(self) -> int:
        return len(self.results)


class ExperimentRunner:
    """Execute experiment tasks in parallel, deterministically, cached —
    and keep going when workers crash, hang, or tasks fail."""

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        **options: Any,
    ) -> None:
        """``options`` are the other :class:`RunnerConfig` fields."""
        self.config = RunnerConfig(
            max_workers=max_workers,
            cache_dir=cache_dir,
            progress=progress,
            **options,
        )
        self.cache = (
            ResultCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.counters = RunnerCounters()
        #: Structured records of permanently failed tasks, across runs.
        self.failures: List[TaskFailure] = []
        #: The run's event stream, across runs: lifecycle events, and
        #: spans when there is a trace file.
        self.trace = TraceRecorder()
        #: Telemetry correlation id shared by the trace and every JSONL
        #: line written while a telemetry run is active.
        self.run_id = self.trace.run_id
        self._last_flush = 0.0

    # -- core execution ----------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> List[Optional[Dict[str, Any]]]:
        """Execute ``tasks``; results are returned in task order.

        In ``on_failure="partial"`` mode a slot is ``None`` when its
        task failed permanently — consult :attr:`failures` (or call
        :func:`require_complete`) before consuming the results.
        """
        tasks = list(tasks)
        start = time.perf_counter()
        workers = self.config.resolved_workers()
        self.counters.points_total += len(tasks)
        self.counters.workers = workers

        state = _RunState(results=[None] * len(tasks))
        with contextlib.ExitStack() as scope:
            sweep_id: Optional[str] = None
            if self.config.trace_path is not None:
                sweep_id = self.trace.start(
                    "sweep", points=len(tasks), workers=workers
                )
                # While the sweep span is open, every JSONL line any
                # layer writes in this process carries our run_id (see
                # repro.obs.recording.append_jsonl); workers get the
                # same ids via the task runtime.
                scope.enter_context(
                    activate(
                        TelemetryContext(
                            self.run_id, sweep_id, recorder=self.trace
                        )
                    )
                )
            self.trace.record_run_start(
                detail=f"points={len(tasks)}", span_id=sweep_id
            )
            self._flush_telemetry(force=True)
            try:
                pending: List[_Pending] = []
                for i, task in enumerate(tasks):
                    description = task.describe()
                    key = cache_key(description)
                    if self.cache is not None:
                        cached = self.cache.get(key)
                        if cached is not None:
                            state.results[i] = cached
                            state.done += 1
                            self.trace.record(
                                "cache_hit",
                                task_index=i,
                                kind=task.kind,
                                span_id=sweep_id,
                            )
                            continue
                    entry = _Pending(
                        index=i, task=task, description=description, key=key
                    )
                    if sweep_id is not None:
                        entry.span_id = self.trace.start(
                            "point",
                            parent_id=sweep_id,
                            task_index=i,
                            kind=task.kind,
                        )
                    runtime = attempt_runtime(
                        task.kind,
                        key,
                        checkpoint_root=self.config.checkpoint_dir,
                        resume=self.config.resume,
                        checkpoint_every_us=self.config.checkpoint_every_us,
                        run_id=self.run_id,
                        parent_span_id=entry.span_id,
                    )
                    if runtime is not None:
                        entry.task = dataclasses.replace(task, runtime=runtime)
                    pending.append(entry)
                    self.trace.record(
                        "queued",
                        task_index=i,
                        kind=task.kind,
                        span_id=entry.span_id,
                        parent_id=sweep_id,
                    )
                self._progress(state.done, state.total)

                # A lone task gains nothing from a worker — unless only
                # a worker can enforce its timeout.
                inline = 1 if self.config.task_timeout_s is None else 0
                if workers == 1 or len(pending) <= inline:
                    self._run_serial(pending, state)
                else:
                    self._run_workers(pending, state, workers)
            finally:
                # Counter finalization must not depend on a clean sweep:
                # a mid-run failure still leaves truthful telemetry.
                self.failures.extend(state.failures)
                self.counters.executed += state.executed
                self.counters.failed += len(state.failures)
                if self.cache is not None:
                    self.counters.cache_hits += self.cache.hits
                    self.counters.cache_misses += self.cache.misses
                    self.counters.cache_corrupt += self.cache.corrupt
                    self.cache.hits = self.cache.misses = self.cache.corrupt = 0
                self.counters.wall_time_s += time.perf_counter() - start
                self.trace.record(
                    "run_end",
                    span_id=sweep_id,
                    detail=(
                        f"done={state.done}/{state.total} "
                        f"failed={len(state.failures)}"
                    ),
                )
                if sweep_id is not None:
                    aborted = sys.exc_info()[0] is not None
                    for open_id in self.trace.open_spans():
                        if open_id != sweep_id:
                            self.trace.end(open_id, status="aborted")
                    self.trace.end(
                        sweep_id, status="error" if aborted else "ok"
                    )
                self._flush_telemetry(force=True)
        return state.results

    def run_degraded_local(
        self, tasks: Sequence[Task], reason: str = "all hosts unreachable"
    ) -> List[Optional[Dict[str, Any]]]:
        """Execute ``tasks`` locally as the *degraded* path of a remote
        sweep.

        The graceful-degradation hook of the HTTP sweep client
        (:class:`repro.service.net.client.SweepClient`): when every
        remote host is unreachable the client falls back here instead
        of raising.  Identical to :meth:`run` except that the fallback
        is recorded truthfully — a structured ``degraded_local`` trace
        event and the ``degraded_local`` counter — so operators can see
        a sweep silently stopped being distributed.  Results are
        bit-identical to the remote path by the determinism contract
        (same tasks, same ``SeedSpec``s, same cache keys).
        """
        self.counters.degraded_local += 1
        self.trace.record("degraded_local", detail=reason)
        return self.run(tasks)

    def _flush_telemetry(self, force: bool = False) -> None:
        """Append the trace's new events to the trace file and render
        the counters to the OpenMetrics textfile, at most every 0.5 s
        unless ``force``d.

        Failure to write the textfile must never kill a sweep — the
        metrics file is advisory output, not part of the results.
        """
        cfg = self.config
        if cfg.trace_path is None:
            return
        now = time.monotonic()
        if not force and now - self._last_flush < 0.5:
            return
        self._last_flush = now
        self.trace.flush_jsonl(cfg.trace_path)
        if cfg.telemetry_dir is not None:
            try:
                write_openmetrics(
                    Path(cfg.telemetry_dir) / "metrics.prom",
                    runner_counters=self.counters,
                    run_id=self.run_id,
                )
            except OSError:
                pass

    # -- serial path -------------------------------------------------------
    def _run_serial(
        self, pending: Sequence[_Pending], state: _RunState
    ) -> None:
        for entry in pending:
            attempt = self._attempt(
                entry, state, lambda task: (resume_point(task), run_task(task))
            )
            if attempt is not None:
                resume, envelope = attempt
                self._complete(entry, envelope, resume, state)

    def _attempt(
        self, entry: _Pending, state: _RunState, step: Callable[[Task], Any]
    ) -> Any:
        """Run ``step(entry.task)`` in-process, settling each exception
        through :meth:`_retry_or_fail` and retrying at once; what
        ``step`` returned, or ``None`` once ``entry`` failed for good."""
        while True:
            self.trace.record(
                "started",
                task_index=entry.index,
                kind=entry.task.kind,
                attempt=entry.attempt,
                span_id=entry.span_id,
            )
            try:
                return step(entry.task)
            except Exception as exc:
                error = str(exc) or repr(exc)
                if not self._retry_or_fail(
                    entry, state, type(exc).__name__, error, cause=exc
                ):
                    return None

    # -- worker path -------------------------------------------------------
    def _run_workers(
        self, pending: Sequence[_Pending], state: _RunState, workers: int
    ) -> None:
        """Run ``pending`` on forked workers that claim one entry at a
        time (:class:`~repro.runner.workers.WorkerPlane`), until none is
        queued or leased.  Heartbeat silence is not judged: the workers
        are our children, and one stopped with the sweep (^Z) is still
        working once resumed."""
        state.queue = list(pending)
        plane = WorkerPlane(
            min(workers, len(pending)),
            functools.partial(self._local_call, state),
            functools.partial(self._worker_lost, state),
            ttl_s=None,
            timeout_s=self.config.task_timeout_s,
        )
        try:
            while state.queue or state.leases:
                plane.spawn()
                plane.answer(IDLE_CLAIM_S)
                plane.watch()
        finally:
            plane.stop()

    def _local_call(
        self,
        state: _RunState,
        worker_id: str,
        name: str,
        task_id: Optional[int],
        fields: Dict[str, Any],
    ) -> Any:
        """Answer one worker's ``claim``, ``heartbeat``, ``commit`` or
        ``fail``; a task id is the entry's task index."""
        if name == "claim":
            return self._lease(state)
        if name == "heartbeat":
            return task_id in state.leases
        lease = state.leases.pop(task_id, None)
        if lease is None:
            return "unknown"
        entry, resume = lease
        if name == "commit":
            self._complete(entry, fields, resume, state)
            return "committed"
        cause = _WorkerTraceback(fields.get("traceback", ""))
        if self._retry_or_fail(
            entry, state, fields["error_type"], fields["error"], cause=cause
        ):
            state.queue.append(entry)
        return "failed"

    def _lease(self, state: _RunState) -> Optional[Dict[str, Any]]:
        """The first queued entry as a claim answer; ``None`` when the
        queue is empty."""
        if not state.queue:
            return None
        entry = state.queue.pop(0)
        state.leases[entry.index] = (entry, resume_point(entry.task))
        self.trace.record(
            "started",
            task_index=entry.index,
            kind=entry.task.kind,
            attempt=entry.attempt,
            span_id=entry.span_id,
        )
        return {
            "task_id": entry.index,
            "task": entry.description,
            "runtime": entry.task.runtime,
        }

    def _worker_lost(
        self,
        state: _RunState,
        worker_id: str,
        task_id: Optional[int],
        error_type: str,
        error: str,
        pid: Optional[int],
    ) -> None:
        """A worker is gone and will be replaced; the task it held, if
        any, fails one attempt with the error the plane names."""
        self.counters.pool_rebuilds += 1
        self.trace.record(
            "pool_rebuild", detail=f"replacing worker {worker_id}: {error}"
        )
        lease = state.leases.pop(task_id, None)
        if lease is None:
            return
        entry = lease[0]
        timed_out = error_type == "TimeoutError"
        if timed_out:
            self.counters.timeouts += 1
            self.trace.record(
                "timeout",
                task_index=entry.index,
                kind=entry.task.kind,
                attempt=entry.attempt,
                span_id=entry.span_id,
            )
        if self._retry_or_fail(
            entry, state, error_type, error, timed_out=timed_out
        ):
            state.queue.append(entry)

    # -- completion / failure handling -------------------------------------
    def _complete(
        self,
        entry: _Pending,
        envelope: Dict[str, Any],
        resume: Optional[Tuple[int, float]],
        state: _RunState,
    ) -> None:
        """Store one attempt's result; ``resume`` is the task's
        :func:`resume_point` as the attempt started."""
        result = envelope["result"]
        if self.cache is not None:
            self.cache.put(entry.key, result, entry.description)
        state.results[entry.index] = result
        state.executed += 1
        state.done += 1
        if resume is not None:
            # This attempt picked the simulation up mid-run instead of
            # recomputing from t=0 — the crash-recovery path working.
            self.trace.record(
                "checkpoint_resume",
                task_index=entry.index,
                kind=entry.task.kind,
                attempt=entry.attempt,
                span_id=entry.span_id,
                detail=f"seq={resume[0]} sim_time_us={resume[1]}",
            )
        if entry.span_id is not None:
            self.trace.adopt(envelope.get("spans", []))
            self.trace.end(entry.span_id)
        self.trace.record(
            "finished",
            task_index=entry.index,
            kind=entry.task.kind,
            attempt=entry.attempt,
            duration_s=envelope.get("elapsed_s"),
            worker_pid=envelope.get("worker_pid"),
            span_id=entry.span_id,
        )
        self._progress(state.done, state.total)

    def _retry_or_fail(
        self,
        entry: _Pending,
        state: _RunState,
        error_type: str,
        error: str,
        timed_out: bool = False,
        cause: Optional[BaseException] = None,
    ) -> bool:
        """Retry ``entry`` at once or record its permanent failure.

        Returns ``True`` when the entry is to be retried (the caller
        runs or requeues it now).  In ``"raise"`` mode a permanent failure raises
        :class:`RunnerTaskError` immediately, from ``cause`` (the task's
        exception, or its worker's traceback); ``run()``'s ``finally``
        finalizes the counters.
        """
        if entry.attempt < self.config.retries:
            entry.attempt += 1
            self.counters.retried += 1
            self.trace.record(
                "retried",
                task_index=entry.index,
                kind=entry.task.kind,
                attempt=entry.attempt,
                error=f"{error_type}: {error}",
                span_id=entry.span_id,
            )
            return True
        failure = TaskFailure(
            task_index=entry.index,
            kind=entry.task.kind,
            key=entry.key,
            attempts=entry.attempt + 1,
            error_type=error_type,
            error=error,
            timed_out=timed_out,
            # Where a re-run would resume this point from, if anywhere.
            checkpoint=checkpoint_status(entry.task),
        )
        state.failures.append(failure)
        state.done += 1
        if entry.span_id is not None:
            self.trace.end(entry.span_id, status="error")
        self.trace.record(
            "failed",
            task_index=entry.index,
            kind=entry.task.kind,
            attempt=entry.attempt,
            error=f"{error_type}: {error}",
            span_id=entry.span_id,
        )
        self._progress(state.done, state.total)
        if self.config.on_failure == "raise":
            raise RunnerTaskError(
                f"task {entry.index} ({entry.task.kind}) failed after "
                f"{failure.attempts} attempt(s): {failure.error_type}: "
                f"{failure.error}",
                failures=[failure],
            ) from cause
        return False

    def _progress(self, done: int, total: int) -> None:
        self._flush_telemetry()
        if self.config.progress is not None:
            self.config.progress(done, total)

    # -- simulation conveniences ------------------------------------------
    def run_points(
        self,
        pairs: Sequence[Tuple[ScenarioConfig, SeedSpec]],
        record_winners: bool = False,
    ) -> List[SimPointResult]:
        """Simulate explicit ``(scenario, SeedSpec)`` points, in order.

        Each pair becomes one ``simulate`` task seeded by its own
        :class:`SeedSpec` — the grid contract of :meth:`run_scenarios`,
        or any other seeding mode, such as the ``legacy_rep`` seeds that
        reproduce :func:`repro.core.simulator.simulate` bit-for-bit.
        """
        pairs = list(pairs)
        raw = self.run(
            [
                Task(
                    kind=TaskKind.SIMULATE,
                    payload={
                        "scenario": scenario_to_jsonable(scenario),
                        "record_winners": record_winners,
                    },
                    seed=seed,
                )
                for scenario, seed in pairs
            ]
        )
        require_complete(raw, self.failures)
        return [
            rehydrate_simulation(scenario, entry)
            for (scenario, _), entry in zip(pairs, raw)
        ]

    def run_scenarios(
        self,
        scenarios: Sequence[ScenarioConfig],
        root_seed: int = 1,
        repetitions: int = 1,
        record_winners: bool = False,
    ) -> List[List[SimPointResult]]:
        """Simulate every ``(scenario, repetition)`` pair.

        Point ``i`` (the scenario's position) at repetition ``r`` is
        seeded from ``(root_seed, i, r)`` per the determinism contract;
        the scenario's own ``seed`` field is *not* used.  Returns one
        list of :class:`SimPointResult` per scenario, repetition-major.
        """
        points = self.run_points(
            [
                (
                    scenario,
                    SeedSpec(root_seed=root_seed, point_index=i, repetition=rep),
                )
                for i, scenario in enumerate(scenarios)
                for rep in range(repetitions)
            ],
            record_winners,
        )
        return [
            points[i * repetitions : (i + 1) * repetitions]
            for i in range(len(scenarios))
        ]


def require_complete(
    results: Sequence[Optional[Dict[str, Any]]],
    failures: Sequence[TaskFailure] = (),
) -> None:
    """Raise :class:`RunnerTaskError` if any result slot is ``None``.

    The guard between a partial-results run and code that rehydrates
    every slot (sweeps, Figure 2 / Table 2, boost validation): instead
    of a ``TypeError`` deep inside aggregation, callers get the failed
    indices and the structured failure records.
    """
    missing = [i for i, entry in enumerate(results) if entry is None]
    if not missing:
        return
    shown = ", ".join(str(i) for i in missing[:8])
    if len(missing) > 8:
        shown += ", ..."
    raise RunnerTaskError(
        f"{len(missing)} of {len(results)} task(s) have no result "
        f"(failed indices: {shown}); inspect runner.failures for "
        "per-task records or re-run with retries",
        failures=failures,
    )


def rehydrate_simulation(
    scenario: ScenarioConfig, entry: Dict[str, Any]
) -> SimPointResult:
    """Rebuild a :class:`SimulationResult` from a task's counters dict."""
    result = SimulationResult(
        scenario=scenario,
        duration_us=entry["duration_us"],
        successes=entry["successes"],
        collisions=entry["collisions"],
        collision_events=entry["collision_events"],
        idle_slots=entry["idle_slots"],
        stations=[StationStats(**s) for s in entry["stations"]],
    )
    winners = entry.get("winners")
    return SimPointResult(
        result=result,
        winners=tuple(winners) if winners is not None else None,
    )
