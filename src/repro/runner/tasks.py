"""Task descriptions and worker entry points.

A :class:`Task` is the unit the runner schedules: a *kind* (which
module-level worker function executes it), a JSON-serializable
*payload*, and an optional :class:`~repro.runner.seeding.SeedSpec`.
Keeping payloads JSON-able buys three things at once: tasks pickle
cheaply into worker processes, the cache key is a content hash of
exactly what determines the result, and cached results are readable on
disk.

Worker functions return plain dicts of counters (never live objects
with traces or RNG state), which the experiment retrofits re-hydrate
into their domain types (:class:`~repro.core.results.SimulationResult`,
:class:`~repro.experiments.procedures.CollisionTest`, ...).

Task kinds
----------
``simulate``
    One scenario, one repetition, seeded per the task's
    :class:`SeedSpec`.  Optionally records the winner sequence (for
    fairness studies).
``model_curve``
    Analytical predictions (:class:`~repro.analysis.model.Model1901`,
    or :class:`~repro.analysis.bianchi.Bianchi80211Model` for the
    ``"80211"`` family) for one configuration over a list of station
    counts.  Deterministic — carries no seed, so identical curves are
    shared between sweeps with different root seeds.
``simulate_batch``
    An *array* of scenario points advanced in lockstep by the
    vectorized :class:`~repro.batch.kernel.BatchSlotKernel` (one
    worker dispatch for the whole array).  Each point carries its own
    scenario and :class:`SeedSpec` in the payload and produces exactly
    the dict a ``simulate`` task for the same point would — the batch
    kernel is bit-exact against :class:`~repro.core.simulator
    .SlotSimulator` — so :class:`~repro.runner.batch.BatchRunner` can
    cache each point under its *scalar* task key and batch/scalar
    executions interoperate through the same cache entries.
``collision_test``
    One §3.2 emulated-testbed test
    (:func:`repro.experiments.procedures.run_collision_test`), seeded
    explicitly to preserve the historical testbed seeding bit-for-bit.
    An optional ``payload["obs"]`` dict (an
    :class:`~repro.obs.capture.ObsConfig` as JSON) captures MAC/SoF
    traces, metrics and a profile for the point; the artifact paths
    come back under ``result["obs"]``.  An optional ``payload["chaos"]``
    dict (a :class:`~repro.chaos.plan.ChaosPlan` as JSON) runs the test
    under fault injection with the runtime invariant checker; the
    injection ledger and checker summary come back under
    ``result["chaos"]``.  Both dicts ride in the payload and therefore
    in the cache key.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import time
from typing import Any, Dict, Optional

from .. import faults
from .seeding import SeedSpec, streams_for
from .serialize import (
    csma_from_jsonable,
    scenario_from_jsonable,
    timing_from_jsonable,
)

__all__ = [
    "Task",
    "TaskKind",
    "checkpoint_status",
    "execute_task",
    "run_task",
    "simulation_result_dict",
]


class TaskKind:
    """Names of the registered task kinds."""

    SIMULATE = "simulate"
    SIMULATE_BATCH = "simulate_batch"
    MODEL_CURVE = "model_curve"
    COLLISION_TEST = "collision_test"


@dataclasses.dataclass(frozen=True)
class Task:
    """One schedulable experiment point."""

    kind: str
    payload: Dict[str, Any]
    seed: Optional[SeedSpec] = None
    #: Execution-time settings that must NOT change the result — today
    #: the checkpoint/resume knobs (``checkpoint_dir``,
    #: ``checkpoint_every_us``, ``resume``).  Deliberately excluded from
    #: :meth:`describe` and from equality: a checkpointed run is
    #: bit-identical to an uninterrupted one (the tentpole invariant of
    #: :mod:`repro.checkpoint`), so it shares the same cache key.
    runtime: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, compare=False
    )

    def describe(self) -> Dict[str, Any]:
        """The JSON-able description hashed into the cache key.

        ``runtime`` is intentionally absent: it only controls *how*
        the point executes (snapshot cadence, crash resumption), never
        what numbers come out.
        """
        return {
            "kind": self.kind,
            "payload": self.payload,
            "seed": self.seed.as_jsonable() if self.seed else None,
        }


def simulation_result_dict(result) -> Dict[str, Any]:
    """The JSON-able counters dict of a ``simulate``-family result.

    Shared by the scalar and batch executors so their outputs are
    field-for-field identical — the property that lets batch-computed
    points live in the cache under scalar ``simulate`` task keys.
    """
    return {
        "duration_us": result.duration_us,
        "successes": result.successes,
        "collisions": result.collisions,
        "collision_events": result.collision_events,
        "idle_slots": result.idle_slots,
        "stations": [
            {
                "index": s.index,
                "successes": s.successes,
                "collisions": s.collisions,
                "drops": s.drops,
                "jumps": s.jumps,
                "arrivals": s.arrivals,
                "queue_losses": s.queue_losses,
            }
            for s in result.stations
        ],
    }


def _run_simulate(
    payload: Dict[str, Any],
    seed: SeedSpec,
    runtime: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from ..core.simulator import SlotSimulator

    scenario = scenario_from_jsonable(payload["scenario"])
    record_winners = bool(payload.get("record_winners", False))
    checkpoint_dir = (runtime or {}).get("checkpoint_dir")
    if checkpoint_dir:
        from ..checkpoint import (
            CheckpointStore,
            restore_slot_simulator,
            run_simulate_with_checkpoints,
        )
        from ..checkpoint.format import journal_event

        store = CheckpointStore(checkpoint_dir)
        newest = (
            store.latest_valid()
            if (runtime or {}).get("resume", True)
            else None
        )
        if newest is not None and newest.kind == "slotsim":
            journal_event(
                checkpoint_dir,
                "checkpoint_resume",
                kind=newest.kind,
                seq=newest.seq,
                sim_time_us=newest.sim_time_us,
            )
            sim = restore_slot_simulator(scenario, newest.state)
        else:
            sim = SlotSimulator(
                scenario,
                record_trace=record_winners,
                streams=streams_for(seed),
            )
        result = run_simulate_with_checkpoints(
            sim,
            store,
            every_us=(runtime or {}).get("checkpoint_every_us"),
            meta={
                "kind": TaskKind.SIMULATE,
                "payload": payload,
                "seed": seed.as_jsonable() if seed else None,
            },
        )
    else:
        sim = SlotSimulator(
            scenario,
            record_trace=record_winners,
            streams=streams_for(seed),
        )
        result = sim.run()
    out = simulation_result_dict(result)
    if record_winners:
        out["winners"] = [int(w) for w in result.trace.winners()]
    return out


def _run_simulate_batch(
    payload: Dict[str, Any],
    seed: Optional[SeedSpec],
    runtime: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Advance an array of points in lockstep through the batch kernel.

    ``payload["points"]`` is a list of ``{"scenario": ..., "seed":
    ...}`` dicts (scenario as JSON-able, seed a :class:`SeedSpec`
    as-jsonable).  Every point gets the same per-(point, station)
    streams a scalar ``simulate`` task would, so the returned
    ``points`` list holds dicts bit-identical to what ``simulate``
    would produce for each.  Raises :class:`~repro.batch.kernel
    .UnsupportedScenario` if any point falls outside the kernel's
    support matrix — routing/fallback is the caller's job
    (:class:`~repro.runner.batch.BatchRunner`).
    """
    from ..batch.kernel import BatchSlotKernel

    scenarios = []
    streams = []
    for point in payload["points"]:
        if point.get("record_winners"):
            raise ValueError(
                "record_winners is not supported on the batch path; "
                "use a scalar simulate task"
            )
        scenarios.append(scenario_from_jsonable(point["scenario"]))
        streams.append(
            streams_for(SeedSpec.from_jsonable(point["seed"]))
        )
    kernel = BatchSlotKernel(scenarios, streams=streams)
    return {
        "points": [
            simulation_result_dict(result) for result in kernel.run()
        ]
    }


def _run_model_curve(
    payload: Dict[str, Any],
    seed: Optional[SeedSpec],
    runtime: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from ..analysis.bianchi import Bianchi80211Model
    from ..analysis.model import Model1901

    config = csma_from_jsonable(payload["csma"])
    timing = timing_from_jsonable(payload["timing"])
    if payload.get("family", "1901") == "80211":
        model = Bianchi80211Model.from_config(config, timing)
    else:
        model = Model1901(
            config, timing, method=payload.get("method", "recursive")
        )
    points = []
    for n in payload["station_counts"]:
        prediction = model.solve(n)
        points.append(
            {
                "num_stations": int(n),
                "normalized_throughput": prediction.normalized_throughput,
                "collision_probability": prediction.collision_probability,
                "tau": prediction.tau,
            }
        )
    return {"points": points}


def _run_collision_test(
    payload: Dict[str, Any],
    seed: Optional[SeedSpec],
    runtime: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    obs = payload.get("obs")
    chaos = payload.get("chaos")
    capture = None
    checkpoint_dir = (runtime or {}).get("checkpoint_dir")
    if checkpoint_dir and obs is None:
        # Checkpointed execution: bit-identical to the plain/chaos
        # branches below (enforced by tests/checkpoint/), so the result
        # is safe to share a cache key with uncheckpointed runs.  An
        # ``obs`` capture session streams artifacts to disk as the sim
        # runs and cannot be re-entered mid-run, so obs points fall
        # through to straight-through execution.
        from ..checkpoint import (
            CheckpointStore,
            checkpointed_collision_test,
            resume_collision_test,
        )
        from ..checkpoint.format import journal_event

        store = CheckpointStore(checkpoint_dir)
        newest = (
            store.latest_valid()
            if (runtime or {}).get("resume", True)
            else None
        )
        if newest is not None:
            journal_event(
                checkpoint_dir,
                "checkpoint_resume",
                kind=newest.kind,
                seq=newest.seq,
                sim_time_us=newest.sim_time_us,
            )
            outcome = resume_collision_test(store, checkpoint=newest)
        else:
            outcome = checkpointed_collision_test(
                payload["num_stations"],
                store,
                duration_us=payload["duration_us"],
                warmup_us=payload["warmup_us"],
                seed=payload["seed"],
                checkpoint_every_us=(runtime or {}).get(
                    "checkpoint_every_us"
                ),
                plan=chaos,
                **payload.get("testbed_kwargs", {}),
            )
        if chaos is not None:
            test, chaos_report = outcome
        else:
            test, chaos_report = outcome, None
        result = {
            "num_stations": test.num_stations,
            "duration_us": test.duration_us,
            "per_station": [
                [mac, int(acked), int(collided)]
                for mac, acked, collided in test.per_station
            ],
            "goodput_mbps": test.goodput_mbps,
        }
        if chaos_report is not None:
            result["chaos"] = chaos_report
        return result
    if chaos is not None:
        # Chaos plan in the payload → fault-injected test.  The plan
        # dict is part of Task.describe(), hence of the cache key, so
        # (scenario, plan, seed) triples are memoized bit-exactly and
        # identical across the serial and parallel runner paths.
        from ..chaos.experiment import chaos_collision_test

        test, chaos_report = chaos_collision_test(
            payload["num_stations"],
            chaos,
            duration_us=payload["duration_us"],
            warmup_us=payload["warmup_us"],
            seed=payload["seed"],
            obs=obs,
            **payload.get("testbed_kwargs", {}),
        )
        capture = chaos_report.pop("capture", None)
        result = {
            "num_stations": test.num_stations,
            "duration_us": test.duration_us,
            "per_station": [
                [mac, int(acked), int(collided)]
                for mac, acked, collided in test.per_station
            ],
            "goodput_mbps": test.goodput_mbps,
            "chaos": chaos_report,
        }
        if capture is not None:
            result["obs"] = capture
        return result
    if obs is not None:
        from ..obs.capture import observed_collision_test

        test, capture = observed_collision_test(
            payload["num_stations"],
            obs,
            duration_us=payload["duration_us"],
            warmup_us=payload["warmup_us"],
            seed=payload["seed"],
            **payload.get("testbed_kwargs", {}),
        )
    else:
        from ..experiments.procedures import run_collision_test

        test = run_collision_test(
            payload["num_stations"],
            duration_us=payload["duration_us"],
            warmup_us=payload["warmup_us"],
            seed=payload["seed"],
            **payload.get("testbed_kwargs", {}),
        )
    result = {
        "num_stations": test.num_stations,
        "duration_us": test.duration_us,
        "per_station": [
            [mac, int(acked), int(collided)]
            for mac, acked, collided in test.per_station
        ],
        "goodput_mbps": test.goodput_mbps,
    }
    if obs is not None:
        # The obs config is part of the cache key, so a cache hit
        # returns these paths without regenerating the files on disk.
        result["obs"] = capture
    return result


_EXECUTORS = {
    TaskKind.SIMULATE: _run_simulate,
    TaskKind.SIMULATE_BATCH: _run_simulate_batch,
    TaskKind.MODEL_CURVE: _run_model_curve,
    TaskKind.COLLISION_TEST: _run_collision_test,
}


def execute_task(task: Task) -> Dict[str, Any]:
    """Run one task to completion."""
    try:
        executor = _EXECUTORS[task.kind]
    except KeyError:
        raise ValueError(f"unknown task kind {task.kind!r}") from None
    return executor(task.payload, task.seed, task.runtime)


def checkpoint_status(task: Task) -> Optional[Dict[str, Any]]:
    """What the checkpoint store holds for ``task`` right now.

    ``None`` when the task carries no checkpoint runtime.  Otherwise a
    small JSON-able summary: the store directory, how many valid
    snapshots it holds, and — when resumption is enabled and a valid
    snapshot exists — the seq/sim-time the next execution will resume
    from.  Used by the runner for trace events and
    :class:`~repro.runner.telemetry.TaskFailure` records.
    """
    runtime = task.runtime or {}
    directory = runtime.get("checkpoint_dir")
    if not directory:
        return None
    from ..checkpoint import CheckpointStore

    rows = CheckpointStore(directory).entries()
    valid = [row for row in rows if row["valid"]]
    info: Dict[str, Any] = {
        "dir": str(directory),
        "checkpoints": len(rows),
        "valid_checkpoints": len(valid),
        "resume": bool(runtime.get("resume", True)),
    }
    if valid and info["resume"]:
        newest = valid[-1]
        info["resume_seq"] = newest["seq"]
        info["resume_sim_time_us"] = newest["header"]["sim_time_us"]
    return info


def exit_when_orphaned(parent_pid: int, interval_s: float) -> None:
    """Start a daemon thread that ends this worker process within
    ``interval_s`` of ``parent_pid`` ceasing to be its parent.

    Neither a pool worker nor a service worker may outlive the process
    that started it: it would keep computing for nobody and hold that
    process's stdout open.
    """

    def watch() -> None:
        while True:
            time.sleep(interval_s)
            if os.getppid() != parent_pid:
                os._exit(1)

    threading.Thread(target=watch, name="orphan-check", daemon=True).start()


def _inject_faults(task: Task) -> None:
    """Fire the ``task_*`` fault points, one-shot per task cache key:
    the retry of a faulted task runs clean."""
    if not os.environ.get(faults.ENV_FAULT):
        return
    from .cache import cache_key

    token = cache_key(task.describe())
    point, options = faults.fire(*faults.TASK_POINTS, token=token)
    if point == "task_raise":
        raise faults.InjectedFault(f"injected fault for task {token[:12]}")
    if point == "task_hang":
        time.sleep(options["seconds"])


def run_task(task: Task) -> Dict[str, Any]:
    """Worker-process entry point: fault points, timing, pid annotation.

    Wraps :func:`execute_task` in an envelope carrying the executing
    worker's pid and wall-clock duration for the telemetry layer, and
    first fires the ``task_*`` points of :mod:`repro.faults` (a no-op
    unless ``REPRO_FAULT`` arms one).  For checkpointed
    tasks the envelope also carries the pre-execution
    :func:`checkpoint_status`, so the runner can trace whether this
    attempt started fresh or resumed mid-simulation.  The runner caches
    and returns only ``envelope["result"]``.

    When the task runtime carries a ``telemetry`` dict (attached by a
    span-enabled :class:`~repro.runner.runner.ExperimentRunner`), the
    execution happens inside an activated
    :class:`~repro.telemetry.context.TelemetryContext` under an
    ``attempt`` span — so every JSONL line written *in this process*
    carries the sweep's ``run_id``, and the attempt's span records
    return to the runner via ``envelope["spans"]``.  Without it, this
    function touches no telemetry code at all.
    """
    telemetry = (task.runtime or {}).get("telemetry")
    if telemetry is None:
        _inject_faults(task)
        checkpoints = checkpoint_status(task)
        started = time.perf_counter()
        result = execute_task(task)
        envelope = {
            "result": result,
            "worker_pid": os.getpid(),
            "elapsed_s": time.perf_counter() - started,
        }
        if checkpoints is not None:
            envelope["checkpoint"] = checkpoints
        return envelope

    from ..obs.recording import as_jsonable
    from ..telemetry.context import TelemetryContext, activate
    from ..telemetry.spans import SpanRecorder

    recorder = SpanRecorder(run_id=telemetry.get("run_id"))
    parent_id = telemetry.get("parent_span_id")
    context = TelemetryContext(
        recorder.run_id, parent_id, recorder=recorder
    )
    with activate(context):
        attempt_id = recorder.start(
            "attempt",
            parent_id=parent_id,
            kind=task.kind,
            worker_pid=os.getpid(),
        )
        context.span_id = attempt_id
        try:
            _inject_faults(task)
            checkpoints = checkpoint_status(task)
            started = time.perf_counter()
            result = execute_task(task)
        except BaseException:
            recorder.end(attempt_id, status="error")
            raise
        recorder.end(attempt_id)
    envelope = {
        "result": result,
        "worker_pid": os.getpid(),
        "elapsed_s": time.perf_counter() - started,
        "spans": [as_jsonable(event) for event in recorder.events],
    }
    if checkpoints is not None:
        envelope["checkpoint"] = checkpoints
    return envelope
