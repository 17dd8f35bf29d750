"""Batch-kernel execution with per-point caching.

:class:`BatchRunner` is the sweep-facing entry to
:class:`~repro.batch.kernel.BatchSlotKernel`: it takes the same
``(scenarios, root_seed, repetitions)`` inputs as
:meth:`~repro.runner.runner.ExperimentRunner.run_scenarios` and returns
the same repetition-major :class:`~repro.runner.runner.SimPointResult`
lists — bit-identical numbers, computed hundreds of points at a time.

The cache contract is the load-bearing part.  Every point is keyed by
the sha256 of the **scalar** ``simulate`` task description it is
equivalent to (same scenario payload, same
:class:`~repro.runner.seeding.SeedSpec`), and the batch kernel's
bit-exactness guarantee makes the stored dict identical to what the
scalar task would have written.  Consequences:

- a sweep half-computed by :class:`ExperimentRunner` finishes on the
  batch path without recomputing (and vice versa);
- cache semantics (sha256 keys, corrupt-entry recovery, the
  partial-results discipline) are exactly those of the scalar runner —
  nothing batch-specific is persisted.

The kernel covers the full ``ScenarioConfig`` space (saturated and
unsaturated stations, finite retry limits), so every uncached point
goes to it.
"""

from __future__ import annotations

import contextlib
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.config import ScenarioConfig
from ..core.metrics import RunnerCounters
from ..telemetry.context import TelemetryContext, activate
from ..telemetry.openmetrics import write_openmetrics
from ..telemetry.spans import SpanRecorder
from .cache import ResultCache, cache_key
from .runner import SimPointResult, rehydrate_simulation
from .seeding import SeedSpec
from .serialize import scenario_to_jsonable
from .tasks import Task, TaskKind, execute_task
from .telemetry import TraceRecorder

__all__ = ["BatchRunner", "DEFAULT_CHUNK_SIZE"]

#: Points per kernel dispatch.  Large enough to amortize the
#: per-round Python overhead (the measured kernel/FSM ratio keeps
#: climbing up to ~1k points), small enough to bound peak array memory.
DEFAULT_CHUNK_SIZE = 1024


class BatchRunner:
    """Run simulation sweeps through the vectorized batch kernel.

    Parameters
    ----------
    cache_dir:
        Optional on-disk result cache, shared bit-for-bit with
        :class:`~repro.runner.runner.ExperimentRunner` (see module
        docstring).
    chunk_size:
        Maximum points per kernel dispatch.
    trace_path / span_path / metrics_path:
        Telemetry outputs, same semantics as
        :class:`~repro.runner.runner.RunnerConfig`: the task-lifecycle
        trace JSONL, the span JSONL, and the OpenMetrics textfile.
        All ``None`` (the default) keeps the batch path telemetry-free.
    telemetry_dir:
        Convenience: derives all three paths (``trace.jsonl``,
        ``spans.jsonl``, ``metrics.prom``) inside one directory.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        trace_path: Optional[Union[str, Path]] = None,
        span_path: Optional[Union[str, Path]] = None,
        metrics_path: Optional[Union[str, Path]] = None,
        telemetry_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.chunk_size = chunk_size
        self.counters = RunnerCounters()
        if telemetry_dir is not None:
            base = Path(telemetry_dir)
            if trace_path is None:
                trace_path = base / "trace.jsonl"
            if span_path is None:
                span_path = base / "spans.jsonl"
            if metrics_path is None:
                metrics_path = base / "metrics.prom"
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.span_path = Path(span_path) if span_path is not None else None
        self.metrics_path = (
            Path(metrics_path) if metrics_path is not None else None
        )
        telemetry_on = (
            self.trace_path is not None
            or self.span_path is not None
            or self.metrics_path is not None
        )
        #: Shared run id of trace + spans (``None`` without telemetry).
        self.run_id: Optional[str] = None
        self.trace: Optional[TraceRecorder] = None
        self.spans: Optional[SpanRecorder] = None
        if telemetry_on:
            self.trace = TraceRecorder()
            self.run_id = self.trace.run_id
            self.spans = SpanRecorder(run_id=self.run_id)

    # -- core --------------------------------------------------------------
    def run_scenarios(
        self,
        scenarios: Sequence[ScenarioConfig],
        root_seed: int = 1,
        repetitions: int = 1,
    ) -> List[List[SimPointResult]]:
        """Simulate every ``(scenario, repetition)`` pair.

        Seeding follows the runner's determinism contract exactly:
        point ``i`` at repetition ``r`` draws from ``(root_seed, i,
        r)``.  Returns one repetition-major list per scenario, equal
        bit-for-bit to ``ExperimentRunner.run_scenarios`` on the same
        inputs.
        """
        points: List[Dict[str, Any]] = []
        for i, scenario in enumerate(scenarios):
            payload = scenario_to_jsonable(scenario)
            for rep in range(repetitions):
                seed = SeedSpec(
                    root_seed=root_seed, point_index=i, repetition=rep
                )
                points.append({"scenario": payload, "seed": seed})

        raw = self._run_points(points)
        grouped: List[List[SimPointResult]] = []
        for i, scenario in enumerate(scenarios):
            chunk = raw[i * repetitions : (i + 1) * repetitions]
            grouped.append(
                [rehydrate_simulation(scenario, entry) for entry in chunk]
            )
        return grouped

    def run_points(
        self,
        pairs: Sequence[tuple],
    ) -> List[SimPointResult]:
        """Simulate explicit ``(scenario, SeedSpec)`` points.

        The general-purpose entry behind :meth:`run_scenarios`:
        callers that need a seeding mode other than the grid contract
        — e.g. the validity harness's legacy-``simulate`` seeds, which
        reproduce :func:`repro.core.simulator.simulate` bit-for-bit —
        pass their own :class:`~repro.runner.seeding.SeedSpec` per
        point.  Caching and chunked kernel dispatch behave exactly as
        in :meth:`run_scenarios`.
        """
        points: List[Dict[str, Any]] = [
            {"scenario": scenario_to_jsonable(scenario), "seed": spec}
            for scenario, spec in pairs
        ]
        raw = self._run_points(points)
        return [
            rehydrate_simulation(scenario, entry)
            for (scenario, _), entry in zip(pairs, raw)
        ]

    def _run_points(
        self, points: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Resolve every point: from the cache or on the batch kernel."""
        self.counters.points_total += len(points)
        self.counters.workers = 1
        results: List[Optional[Dict[str, Any]]] = [None] * len(points)
        keys: List[str] = []
        batched: List[int] = []
        with contextlib.ExitStack() as scope:
            sweep_id = None
            if self.spans is not None:
                sweep_id = self.spans.start(
                    "batch_sweep", points=len(points)
                )
                scope.enter_context(
                    activate(
                        TelemetryContext(
                            self.run_id, sweep_id, recorder=self.spans
                        )
                    )
                )
            if self.trace is not None:
                self.trace.record_run_start(
                    detail=f"batch points={len(points)}", span_id=sweep_id
                )
            try:
                for idx, point in enumerate(points):
                    # The *scalar* task this point is equivalent to —
                    # its key is the cache identity on both paths.
                    task = self._scalar_task(point)
                    key = cache_key(task.describe())
                    keys.append(key)
                    if self.cache is not None:
                        cached = self.cache.get(key)
                        if cached is not None:
                            results[idx] = cached
                            if self.trace is not None:
                                self.trace.record(
                                    "cache_hit",
                                    task_index=idx,
                                    kind=task.kind,
                                    span_id=sweep_id,
                                )
                            continue
                    if self.trace is not None:
                        self.trace.record(
                            "queued",
                            task_index=idx,
                            kind=task.kind,
                            span_id=sweep_id,
                        )
                    batched.append(idx)

                for start in range(0, len(batched), self.chunk_size):
                    chunk = batched[start : start + self.chunk_size]
                    results_chunk = self._run_chunk(points, chunk, sweep_id)
                    for idx, result in zip(chunk, results_chunk):
                        self.counters.executed += 1
                        if self.cache is not None:
                            self.cache.put(
                                keys[idx],
                                result,
                                self._scalar_task(points[idx]).describe(),
                            )
                        results[idx] = result
            finally:
                if self.cache is not None:
                    self.counters.cache_hits += self.cache.hits
                    self.counters.cache_misses += self.cache.misses
                    self.counters.cache_corrupt += self.cache.corrupt
                    self.cache.hits = 0
                    self.cache.misses = 0
                    self.cache.corrupt = 0
                self._flush_telemetry(sweep_id)
        return results  # type: ignore[return-value]

    def _run_chunk(
        self,
        points: List[Dict[str, Any]],
        chunk: List[int],
        sweep_id: Optional[str],
    ) -> List[Dict[str, Any]]:
        """One kernel dispatch, wrapped in a ``batch_chunk`` span."""
        chunk_id = None
        if self.spans is not None:
            chunk_id = self.spans.start(
                "batch_chunk", parent_id=sweep_id, points=len(chunk)
            )
        if self.trace is not None:
            for idx in chunk:
                self.trace.record(
                    "started",
                    task_index=idx,
                    kind=TaskKind.SIMULATE,
                    span_id=chunk_id or sweep_id,
                )
        t0 = time.perf_counter()
        try:
            out = execute_task(
                Task(
                    kind=TaskKind.SIMULATE_BATCH,
                    payload={
                        "points": [
                            {
                                "scenario": points[idx]["scenario"],
                                "seed": points[idx]["seed"].as_jsonable(),
                            }
                            for idx in chunk
                        ]
                    },
                )
            )
        except BaseException:
            if self.spans is not None and chunk_id is not None:
                self.spans.end(chunk_id, status="error")
            raise
        elapsed = time.perf_counter() - t0
        if self.trace is not None:
            # The kernel resolves the chunk as one dispatch; attribute
            # the wall-clock evenly so per-kind throughput stays usable.
            per_point = elapsed / len(chunk) if chunk else 0.0
            for idx in chunk:
                self.trace.record(
                    "finished",
                    task_index=idx,
                    kind=TaskKind.SIMULATE,
                    duration_s=per_point,
                    span_id=chunk_id or sweep_id,
                )
        if self.spans is not None and chunk_id is not None:
            self.spans.end(chunk_id)
        return out["points"]

    def _flush_telemetry(self, sweep_id: Optional[str]) -> None:
        """Close the sweep span and persist every telemetry output."""
        if self.trace is not None:
            self.trace.record("run_end", span_id=sweep_id)
        if self.spans is not None and sweep_id is not None:
            status = "error" if sys.exc_info()[0] is not None else "ok"
            self.spans.end(sweep_id, status=status)
        try:
            if self.trace is not None and self.trace_path is not None:
                self.trace.flush_jsonl(self.trace_path)
            if self.spans is not None and self.span_path is not None:
                self.spans.flush_jsonl(self.span_path)
            if self.metrics_path is not None:
                write_openmetrics(
                    self.metrics_path,
                    runner_counters=self.counters,
                    run_id=self.run_id,
                )
        except OSError:
            pass

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _scalar_task(point: Dict[str, Any]) -> Task:
        return Task(
            kind=TaskKind.SIMULATE,
            payload={"scenario": point["scenario"]},
            seed=point["seed"],
        )
