"""The fault-tolerant parallel experiment runner.

:class:`ExperimentRunner` executes an ordered list of
:class:`~repro.runner.tasks.Task` and returns their results *in input
order*, regardless of completion order, worker count or cache state:

1. every task's cache key is computed in the submitting process;
2. cached points are answered from disk;
3. the remaining points run either in-process (``max_workers=1`` — the
   serial path, no processes, no pickling) or on the forked workers of
   a :class:`~repro.runner.workers.WorkerPlane`, which claim them one
   at a time, heartbeat them and commit their results — the protocol
   the service's workers speak;
4. fresh results are written back to the cache (when one is
   configured) and every result is slotted back by task index.

Determinism: each task's random draws are fully specified by its
:class:`~repro.runner.seeding.SeedSpec`, so steps 2–4 cannot change the
numbers — only how fast they arrive.  The determinism contract is
enforced by ``tests/runner/test_determinism.py``.

Fault tolerance (``tests/runner/test_faults.py``): a failing task is
retried up to ``retries`` times with capped exponential backoff — and
because a retry resubmits the *same* :class:`Task` (hence the same
``SeedSpec``), the determinism contract extends to failure paths: a
sweep that recovers from worker crashes is bit-identical to a clean
run.  ``task_timeout_s`` puts a wall-clock bound on each running task
(on workers only — a hung task cannot be preempted in-process).  A
worker that dies or overruns the bound charges the one task it held
one failed attempt; it is killed if need be and a fresh worker takes
its place (counted in ``pool_rebuilds``).  With
``on_failure="partial"``, a task that exhausts its retries leaves
``None`` in its result slot and a structured
:class:`~repro.runner.telemetry.TaskFailure` on ``runner.failures``
instead of aborting the sweep; the default ``"raise"`` mode raises
:class:`RunnerTaskError` (with counters still finalized truthfully).
Every lifecycle transition is recorded on ``runner.trace`` and can be
exported as JSONL via ``trace_path``.
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
from .backoff import FullJitterBackoff
from .cache import ResultCache, cache_key
from .seeding import SeedSpec
from .serialize import scenario_to_jsonable
from ..telemetry.context import TelemetryContext, activate
from ..telemetry.openmetrics import write_openmetrics
from ..telemetry.spans import SpanRecorder
from .tasks import Task, TaskKind, checkpoint_status, resume_point, run_task
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
        one attempt total).  A retry reuses the task's exact
        ``SeedSpec``, so retrying cannot change the numbers.
    task_timeout_s:
        Per-task wall-clock bound, enforced by killing the worker of an
        overrunning task.  ``None`` (default) disables it; with
        ``max_workers=1`` there is no worker to kill, so it is not
        enforced.
    backoff_base_s / backoff_max_s:
        Capped exponential backoff before retry ``k`` (1-based):
        ``min(backoff_max_s, backoff_base_s * 2**(k-1))``.
    backoff_jitter / backoff_seed:
        Full-jitter decorrelation of the retry delays: the actual sleep
        before retry ``k`` is ``uniform(0, backoff_s(k))`` drawn from a
        private RNG (:class:`~repro.runner.backoff.FullJitterBackoff`),
        so many clients retrying against one service don't synchronize
        into retry storms.  ``backoff_seed`` makes the delay sequence
        reproducible for tests; ``backoff_jitter=False`` restores the
        deterministic schedule.  Jitter can never change results —
        only retry timing.
    on_failure:
        ``"raise"`` (default) aborts the sweep with
        :class:`RunnerTaskError` on the first permanent failure;
        ``"partial"`` completes the sweep, leaves ``None`` in failed
        slots and records a :class:`TaskFailure` per lost point.
    trace_path:
        When set, task lifecycle events are appended to this JSONL
        file at the end of every ``run()``.
    span_path:
        When set, hierarchical telemetry spans (sweep → point →
        attempt, plus chaos/checkpoint scopes) are recorded and
        appended to this JSONL file, an ambient
        :class:`~repro.telemetry.context.TelemetryContext` is active
        for the duration of each ``run()``, and every JSONL line any
        layer writes during the run (obs traces, chaos ledgers,
        checkpoint journals) is stamped with the run's ``run_id``.
        ``None`` (default) disables spans entirely — the zero-cost
        path.
    metrics_path:
        When set, the runner's counters are rendered to this file in
        OpenMetrics text format at run start, periodically as points
        complete (throttled), and finally when the run ends — the
        Prometheus textfile-collector pattern.
    telemetry_dir:
        Convenience switch: setting it defaults ``trace_path``,
        ``span_path`` and ``metrics_path`` to ``trace.jsonl``,
        ``spans.jsonl`` and ``metrics.prom`` inside the directory (the
        layout ``repro-plc top`` and ``repro-plc report`` expect).
        Explicitly-set paths win over the derived ones.
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
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: bool = True
    backoff_seed: Optional[int] = None
    on_failure: str = "raise"
    trace_path: Optional[Union[str, Path]] = None
    checkpoint_dir: Optional[Union[str, Path]] = None
    checkpoint_every_us: Optional[float] = None
    resume: bool = True
    span_path: Optional[Union[str, Path]] = None
    metrics_path: Optional[Union[str, Path]] = None
    telemetry_dir: Optional[Union[str, Path]] = None

    def __post_init__(self) -> None:
        if self.telemetry_dir is not None:
            base = Path(self.telemetry_dir)
            if self.trace_path is None:
                object.__setattr__(self, "trace_path", base / "trace.jsonl")
            if self.span_path is None:
                object.__setattr__(self, "span_path", base / "spans.jsonl")
            if self.metrics_path is None:
                object.__setattr__(
                    self, "metrics_path", base / "metrics.prom"
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
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff_base_s and backoff_max_s must be >= 0")
        if self.on_failure not in ("raise", "partial"):
            raise ValueError(
                f"on_failure must be 'raise' or 'partial', got {self.on_failure!r}"
            )

    def resolved_workers(self) -> int:
        if not self.max_workers:
            return max(1, os.cpu_count() or 1)
        return self.max_workers

    def backoff_s(self, attempt: int) -> float:
        """Deterministic backoff *cap* before retry ``attempt`` (1-based).

        The actual sleep is sampled by :meth:`backoff_sampler` — full
        jitter in ``[0, backoff_s(attempt)]`` unless jitter is off.
        """
        return min(
            self.backoff_max_s,
            self.backoff_base_s * (2 ** max(0, attempt - 1)),
        )

    def backoff_sampler(self) -> FullJitterBackoff:
        """A fresh delay sampler honouring this config's jitter knobs."""
        return FullJitterBackoff(
            base_s=self.backoff_base_s,
            max_s=self.backoff_max_s,
            jitter=self.backoff_jitter,
            seed=self.backoff_seed,
        )


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
    #: Monotonic time before which the entry must not be (re)submitted.
    not_before: float = 0.0
    #: Telemetry "point" span covering the task's whole lifecycle
    #: (``None`` when spans are disabled).
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
        #: Full-jitter retry-delay sampler (satellite of the HTTP front
        #: end: the same helper the service client uses).
        self._backoff = self.config.backoff_sampler()
        #: Structured records of permanently failed tasks, across runs.
        self.failures: List[TaskFailure] = []
        #: Lifecycle event trace, across runs.
        self.trace = TraceRecorder()
        #: Telemetry correlation id shared by the trace, the spans, and
        #: every JSONL line written while a telemetry run is active.
        self.run_id = self.trace.run_id
        #: Hierarchical span recorder; ``None`` when spans are disabled
        #: (``span_path`` unset) — the zero-cost path.
        self.spans: Optional[SpanRecorder] = (
            SpanRecorder(run_id=self.run_id)
            if self.config.span_path is not None
            else None
        )
        self._last_metrics_write = 0.0

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
            if self.spans is not None:
                sweep_id = self.spans.start(
                    "sweep", points=len(tasks), workers=workers
                )
                # While the sweep span is open, every JSONL line any
                # layer writes in this process carries our run_id (see
                # repro.obs.recording.append_jsonl); workers get the
                # same ids via the task runtime.
                scope.enter_context(
                    activate(
                        TelemetryContext(
                            self.run_id, sweep_id, recorder=self.spans
                        )
                    )
                )
            self.trace.record_run_start(
                detail=f"points={len(tasks)}", span_id=sweep_id
            )
            self._write_metrics(force=True)
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
                        index=i,
                        task=self._with_checkpointing(task, key),
                        description=description,
                        key=key,
                    )
                    if self.spans is not None:
                        entry.span_id = self.spans.start(
                            "point",
                            parent_id=sweep_id,
                            task_index=i,
                            kind=task.kind,
                        )
                        entry.task = self._with_telemetry(
                            entry.task, entry.span_id
                        )
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
                if self.spans is not None:
                    aborted = sys.exc_info()[0] is not None
                    for open_id in self.spans.open_spans():
                        if open_id != sweep_id:
                            self.spans.end(open_id, status="aborted")
                    self.spans.end(
                        sweep_id, status="error" if aborted else "ok"
                    )
                    self.spans.flush_jsonl(self.config.span_path)
                if self.config.trace_path is not None:
                    self.trace.flush_jsonl(self.config.trace_path)
                self._write_metrics(force=True)
        return state.results

    #: Task kinds whose executors understand the checkpoint runtime.
    _CHECKPOINTABLE = (TaskKind.SIMULATE, TaskKind.COLLISION_TEST)

    def _with_checkpointing(self, task: Task, key: str) -> Task:
        """Attach the per-point checkpoint runtime, if configured.

        Each point snapshots into its own ``checkpoint_dir/<cache_key>``
        subdirectory: the cache key already identifies the point's full
        description, so concurrent sweep points never share a store,
        and a re-run of the same sweep finds its snapshots again.  A
        task that already carries an explicit ``runtime`` is left
        untouched.  The runtime is excluded from ``describe()``, so
        ``key`` (computed by the caller) is unaffected.
        """
        if self.config.checkpoint_dir is None:
            return task
        if task.kind not in self._CHECKPOINTABLE or task.runtime is not None:
            return task
        runtime: Dict[str, Any] = {
            "checkpoint_dir": str(Path(self.config.checkpoint_dir) / key),
            "resume": self.config.resume,
        }
        if self.config.checkpoint_every_us is not None:
            runtime["checkpoint_every_us"] = self.config.checkpoint_every_us
        return dataclasses.replace(task, runtime=runtime)

    def _with_telemetry(self, task: Task, parent_span_id: str) -> Task:
        """Ship the correlation ids to the (possibly remote) worker.

        The ids ride in the execution-time ``runtime`` dict — excluded
        from ``describe()`` and the cache key, like the checkpoint
        knobs — and :func:`~repro.runner.tasks.run_task` re-activates
        them around the execution, so JSONL written *inside worker
        processes* carries the same ``run_id`` as ours.
        """
        runtime = dict(task.runtime or {})
        runtime["telemetry"] = {
            "run_id": self.run_id,
            "parent_span_id": parent_span_id,
        }
        return dataclasses.replace(task, runtime=runtime)

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

    def _write_metrics(self, force: bool = False) -> None:
        """Render counters to the OpenMetrics textfile (throttled).

        Failure to write the textfile must never kill a sweep — the
        metrics file is advisory output, not part of the results.
        """
        path = self.config.metrics_path
        if path is None:
            return
        now = time.monotonic()
        if not force and now - self._last_metrics_write < 0.5:
            return
        self._last_metrics_write = now
        try:
            write_openmetrics(
                path, runner_counters=self.counters, run_id=self.run_id
            )
        except OSError:
            pass

    # -- serial path -------------------------------------------------------
    def _run_serial(
        self, pending: Sequence[_Pending], state: _RunState
    ) -> None:
        for entry in pending:
            while True:
                delay = entry.not_before - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                self.trace.record(
                    "started",
                    task_index=entry.index,
                    kind=entry.task.kind,
                    attempt=entry.attempt,
                    span_id=entry.span_id,
                )
                resume = resume_point(entry.task)
                try:
                    envelope = run_task(entry.task)
                except Exception as exc:
                    error = str(exc) or repr(exc)
                    if self._retry_or_fail(
                        entry, state, type(exc).__name__, error, cause=exc
                    ):
                        continue
                    break  # permanent failure, partial mode
                self._complete(entry, envelope, resume, state)
                break

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
        """The first queued entry whose backoff has elapsed, as a claim
        answer; ``None`` when no entry is ready."""
        now = time.monotonic()
        for position, entry in enumerate(state.queue):
            if entry.not_before <= now:
                break
        else:
            return None
        del state.queue[position]
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
        verdict: str,
        error: str,
        pid: Optional[int],
    ) -> None:
        """A worker is gone and will be replaced; the task it held, if
        any, fails one attempt."""
        self.counters.pool_rebuilds += 1
        self.trace.record(
            "pool_rebuild", detail=f"replacing {verdict} worker {worker_id}"
        )
        lease = state.leases.pop(task_id, None)
        if lease is None:
            return
        entry = lease[0]
        error_type = "WorkerDied" if verdict == "exited" else "Watchdog"
        if verdict == "overrun":
            self.counters.timeouts += 1
            self.trace.record(
                "timeout",
                task_index=entry.index,
                kind=entry.task.kind,
                attempt=entry.attempt,
                span_id=entry.span_id,
            )
            error_type = "TimeoutError"
            error = f"task exceeded {self.config.task_timeout_s}s wall clock"
        if self._retry_or_fail(
            entry, state, error_type, error, timed_out=verdict == "overrun"
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
        if self.spans is not None:
            worker_spans = envelope.get("spans")
            if worker_spans:
                self.spans.adopt(worker_spans)
            if entry.span_id is not None:
                self.spans.end(entry.span_id)
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
        """Schedule a retry for ``entry`` or record its permanent failure.

        Returns ``True`` when a retry was scheduled (the caller requeues
        the entry).  In ``"raise"`` mode a permanent failure raises
        :class:`RunnerTaskError` immediately, from ``cause`` (the task's
        exception, or its worker's traceback); ``run()``'s ``finally``
        finalizes the counters.
        """
        if entry.attempt < self.config.retries:
            entry.attempt += 1
            entry.not_before = time.monotonic() + self._backoff.sample(
                entry.attempt
            )
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
        if self.spans is not None and entry.span_id is not None:
            self.spans.end(entry.span_id, status="error")
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
        self._write_metrics()
        if self.config.progress is not None:
            self.config.progress(done, total)

    # -- simulation conveniences ------------------------------------------
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
        tasks = []
        for i, scenario in enumerate(scenarios):
            payload = {
                "scenario": scenario_to_jsonable(scenario),
                "record_winners": record_winners,
            }
            for rep in range(repetitions):
                tasks.append(
                    Task(
                        kind=TaskKind.SIMULATE,
                        payload=payload,
                        seed=SeedSpec(
                            root_seed=root_seed,
                            point_index=i,
                            repetition=rep,
                        ),
                    )
                )
        raw = self.run(tasks)
        require_complete(raw, self.failures)
        grouped: List[List[SimPointResult]] = []
        for i, scenario in enumerate(scenarios):
            chunk = raw[i * repetitions : (i + 1) * repetitions]
            grouped.append(
                [rehydrate_simulation(scenario, entry) for entry in chunk]
            )
        return grouped


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
