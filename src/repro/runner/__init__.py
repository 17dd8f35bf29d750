"""Parallel experiment execution with deterministic seeding and caching.

The paper's evaluation — throughput-vs-N sweeps, the (CW, DC) boosting
search, fairness and coexistence studies — consists of many *independent*
simulation points.  This package runs them:

- **in parallel** across processes (:class:`ExperimentRunner`, whose
  forked workers claim tasks one at a time over the worker protocol
  the service shares, :mod:`repro.runner.workers`; an in-process
  serial path for ``max_workers=1``);
- **deterministically** — every point's random stream is derived from
  ``(root_seed, point_index, repetition)`` via
  :class:`numpy.random.SeedSequence` spawn keys, so results are
  bit-identical regardless of worker count or scheduling order
  (:mod:`repro.runner.seeding`);
- **incrementally** — completed points are memoized on disk under a
  stable content hash of the full configuration tuple
  (:mod:`repro.runner.cache`), so re-running a sweep or resuming an
  interrupted search only simulates new points.

The execution layer is **fault tolerant**: per-task retries with
capped exponential backoff (a retry reuses the task's exact
:class:`SeedSpec`, so recovery cannot change the numbers), per-task
wall-clock timeouts, a fresh worker for each one that dies or
overruns — charging only the task it held one attempt — and an
optional partial-results mode that returns what completed plus a
structured :class:`TaskFailure` per lost point
(:mod:`repro.runner.telemetry`).
Fault paths are exercised deterministically through the ``task_*``
fault points of :mod:`repro.faults`.

Progress, cache and fault behaviour are observable through
:class:`repro.core.metrics.RunnerCounters` (``runner.counters``) and
the per-task lifecycle trace (``runner.trace``, exportable as JSONL
via ``trace_path``).
"""

from ..faults import InjectedFault
from .backoff import FullJitterBackoff
from .batch import BatchRunner
from .cache import CacheEntryError, ResultCache, cache_key
from .runner import (
    ExperimentRunner,
    RunnerConfig,
    RunnerTaskError,
    require_complete,
)
from .seeding import SeedSpec, derive_seed_sequence, streams_for
from .serialize import canonical_json, scenario_from_jsonable, scenario_to_jsonable
from .tasks import Task, TaskKind
from .telemetry import TaskEvent, TaskFailure, TraceRecorder

__all__ = [
    "BatchRunner",
    "FullJitterBackoff",
    "ExperimentRunner",
    "RunnerConfig",
    "RunnerTaskError",
    "require_complete",
    "ResultCache",
    "CacheEntryError",
    "cache_key",
    "SeedSpec",
    "derive_seed_sequence",
    "streams_for",
    "Task",
    "TaskKind",
    "TaskEvent",
    "TaskFailure",
    "TraceRecorder",
    "InjectedFault",
    "canonical_json",
    "scenario_to_jsonable",
    "scenario_from_jsonable",
]
