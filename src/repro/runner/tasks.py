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

One computation has one identity: :data:`PAYLOAD_DEFAULTS` declares
each kind's payload defaults once, and a :class:`Task` fills the ones
its payload leaves out, so every builder of a point hashes the same
description and every executor reads a complete payload.

Packing is an execution choice, not a kind: :func:`run_packed` runs
many :func:`packable` ``simulate`` tasks in one lockstep pass of the
vectorized :class:`~repro.batch.kernel.BatchSlotKernel`, returning
exactly the result each task's own execution would (the kernel is
bit-exact against :class:`~repro.core.simulator.SlotSimulator`).
:class:`~repro.runner.batch.BatchRunner` packs this way; the tasks,
their descriptions and their cache keys are unchanged.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import faults
from .seeding import SeedSpec, streams_for
from .serialize import (
    csma_from_jsonable,
    scenario_from_jsonable,
    timing_from_jsonable,
)

__all__ = [
    "PAYLOAD_DEFAULTS",
    "Task",
    "TaskKind",
    "attempt_runtime",
    "checkpoint_status",
    "execute_task",
    "inject_faults",
    "packable",
    "resume_point",
    "run_packed",
    "run_task",
    "simulation_result_dict",
    "task_from_description",
]


class TaskKind:
    """Names of the registered task kinds."""

    SIMULATE = "simulate"
    MODEL_CURVE = "model_curve"
    COLLISION_TEST = "collision_test"


#: Each kind's payload defaults, the only place they are spelled.  A
#: :class:`Task` fills every key its payload leaves out (the fill rule:
#: a description that spells a default and one that omits it are the
#: same computation, with the same cache key).  ``collision_test``'s
#: optional ``obs`` and ``chaos`` dicts have no default: absent when
#: unset.
PAYLOAD_DEFAULTS: Dict[str, Dict[str, Any]] = {
    TaskKind.SIMULATE: {"record_winners": False},
    TaskKind.MODEL_CURVE: {"family": "1901", "method": "recursive"},
    TaskKind.COLLISION_TEST: {"testbed_kwargs": {}},
}


@dataclasses.dataclass(frozen=True)
class Task:
    """One schedulable experiment point."""

    kind: str
    payload: Dict[str, Any]
    seed: Optional[SeedSpec] = None
    #: Execution-time settings that must NOT change the result — the
    #: checkpoint/resume knobs and the telemetry ids
    #: (:func:`attempt_runtime`).  Deliberately excluded from
    #: :meth:`describe` and from equality: a checkpointed run is
    #: bit-identical to an uninterrupted one (the tentpole invariant of
    #: :mod:`repro.checkpoint`), so it shares the same cache key.
    runtime: Optional[Dict[str, Any]] = dataclasses.field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        # The kind's defaults go after the given keys.  A payload that
        # is not a mapping raises here, so admission rejects it.
        payload = dict(self.payload)
        for key, value in PAYLOAD_DEFAULTS.get(self.kind, {}).items():
            payload.setdefault(key, copy.deepcopy(value))
        object.__setattr__(self, "payload", payload)

    def describe(self) -> Dict[str, Any]:
        """The canonical JSON-able description hashed into the cache key.

        The payload holds every default of :data:`PAYLOAD_DEFAULTS`.
        ``runtime`` is intentionally absent: it only controls *how* the
        point executes (snapshot cadence, crash resumption), never what
        numbers come out.
        """
        return {
            "kind": self.kind,
            "payload": self.payload,
            "seed": self.seed.as_jsonable() if self.seed else None,
        }


def task_from_description(
    description: Dict[str, Any],
    runtime: Optional[Dict[str, Any]] = None,
) -> Task:
    """Rebuild a :class:`Task` from its ``describe()`` dict.

    The inverse of :meth:`Task.describe` — what a claim carries to a
    worker, what admission canonicalizes a submitted description
    through, and what lets a restarted orchestrator reconstruct its
    whole queue from the journal alone, with cache keys (and therefore
    result identity) unchanged.
    """
    seed = description.get("seed")
    return Task(
        kind=description["kind"],
        payload=description["payload"],
        seed=SeedSpec.from_jsonable(seed) if seed else None,
        runtime=runtime,
    )


#: Task kinds whose executors understand the checkpoint runtime.
_CHECKPOINTABLE = (TaskKind.SIMULATE, TaskKind.COLLISION_TEST)


def attempt_runtime(
    kind: str,
    key: str,
    *,
    checkpoint_root: Optional[Union[str, Path]] = None,
    resume: bool = True,
    checkpoint_every_us: Optional[float] = None,
    run_id: Optional[str] = None,
    parent_span_id: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """The runtime an attempt of a ``kind`` task with cache key ``key``
    runs with (``None``: nothing applies), for the runner and the
    service alike.  A checkpointing kind snapshots into its own store,
    ``checkpoint_root/<key>`` (``checkpoint_every_us=None``: the kind's
    default cadence); ``parent_span_id`` is the span the attempt's span
    hangs under, with ``run_id`` stamped on the worker's JSONL."""
    runtime: Dict[str, Any] = {}
    if checkpoint_root is not None and kind in _CHECKPOINTABLE:
        runtime["checkpoint_dir"] = str(Path(checkpoint_root) / key)
        runtime["resume"] = resume
        if checkpoint_every_us is not None:
            runtime["checkpoint_every_us"] = checkpoint_every_us
    if parent_span_id is not None:
        runtime["telemetry"] = {
            "run_id": run_id,
            "parent_span_id": parent_span_id,
        }
    return runtime or None


def simulation_result_dict(result) -> Dict[str, Any]:
    """The JSON-able counters dict of a ``simulate``-family result.

    Shared by the ``simulate`` executor and :func:`run_packed`, so a
    point's result is field-for-field the same however it ran.
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


def _resume_from(runtime: Dict[str, Any], kind: str):
    """The checkpoint store of an attempt's runtime, and the snapshot
    of ``kind`` the attempt resumes from — the newest valid one, with
    ``checkpoint_resume`` journaled — or ``None`` to start from t=0."""
    from ..checkpoint import CheckpointStore
    from ..checkpoint.format import journal_event

    directory = runtime["checkpoint_dir"]
    store = CheckpointStore(directory)
    newest = store.latest_valid() if runtime.get("resume", True) else None
    if newest is None or newest.kind != kind:
        return store, None
    journal_event(
        directory,
        "checkpoint_resume",
        kind=newest.kind,
        seq=newest.seq,
        sim_time_us=newest.sim_time_us,
    )
    return store, newest


def _run_simulate(
    payload: Dict[str, Any],
    seed: SeedSpec,
    runtime: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from ..core.simulator import SlotSimulator

    scenario = scenario_from_jsonable(payload["scenario"])
    record_winners = bool(payload["record_winners"])
    if (runtime or {}).get("checkpoint_dir"):
        from ..checkpoint import (
            restore_slot_simulator,
            run_simulate_with_checkpoints,
        )

        store, newest = _resume_from(runtime, "slotsim")
        if newest is not None:
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
            every_us=runtime.get("checkpoint_every_us"),
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


def packable(task: Task) -> bool:
    """Whether :func:`run_packed` can execute ``task``: a ``simulate``
    point with no winner sequence to record and no checkpoint runtime,
    neither of which the kernel keeps."""
    return (
        task.kind == TaskKind.SIMULATE
        and not task.payload["record_winners"]
        and not (task.runtime or {}).get("checkpoint_dir")
    )


def run_packed(tasks: Sequence[Task]) -> List[Dict[str, Any]]:
    """Execute :func:`packable` tasks in one lockstep kernel pass.

    Each point draws from the streams of its own :class:`SeedSpec`, so
    the list holds, in order, exactly the result each task's own
    execution (``run_task(task)["result"]``) would return.
    """
    from ..batch.kernel import batch_simulate

    results = batch_simulate(
        [scenario_from_jsonable(task.payload["scenario"]) for task in tasks],
        streams=[streams_for(task.seed) for task in tasks],
    )
    return [simulation_result_dict(result) for result in results]


def _run_model_curve(
    payload: Dict[str, Any],
    seed: Optional[SeedSpec],
    runtime: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    from ..analysis.bianchi import Bianchi80211Model
    from ..analysis.model import Model1901

    config = csma_from_jsonable(payload["csma"])
    timing = timing_from_jsonable(payload["timing"])
    if payload["family"] == "80211":
        model = Bianchi80211Model.from_config(config, timing)
    else:
        model = Model1901(config, timing, method=payload["method"])
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
    test_args = dict(
        duration_us=payload["duration_us"],
        warmup_us=payload["warmup_us"],
        seed=payload["seed"],
        **payload["testbed_kwargs"],
    )
    chaos_report = capture = None
    if (runtime or {}).get("checkpoint_dir") and obs is None:
        # Checkpointed execution: bit-identical to the plain/chaos
        # branches below (enforced by tests/checkpoint/), so the result
        # is safe to share a cache key with uncheckpointed runs.  An
        # ``obs`` capture session streams artifacts to disk as the sim
        # runs and cannot be re-entered mid-run, so obs points fall
        # through to straight-through execution.
        from ..checkpoint import (
            checkpointed_collision_test,
            resume_collision_test,
        )

        store, newest = _resume_from(runtime, "testbed")
        if newest is not None:
            outcome = resume_collision_test(store, checkpoint=newest)
        else:
            outcome = checkpointed_collision_test(
                payload["num_stations"],
                store,
                checkpoint_every_us=runtime.get("checkpoint_every_us"),
                plan=chaos,
                **test_args,
            )
        if chaos is not None:
            test, chaos_report = outcome
        else:
            test = outcome
    elif chaos is not None:
        # Chaos plan in the payload → fault-injected test.  The plan
        # dict is part of Task.describe(), hence of the cache key, so
        # (scenario, plan, seed) triples are memoized bit-exactly and
        # identical across the serial and parallel runner paths.
        from ..chaos.experiment import chaos_collision_test

        test, chaos_report = chaos_collision_test(
            payload["num_stations"], chaos, obs=obs, **test_args
        )
        capture = chaos_report.pop("capture", None)
    elif obs is not None:
        from ..obs.capture import observed_collision_test

        test, capture = observed_collision_test(
            payload["num_stations"], obs, **test_args
        )
    else:
        from ..experiments.procedures import run_collision_test

        test = run_collision_test(payload["num_stations"], **test_args)
    result = test.as_jsonable()
    if chaos_report is not None:
        result["chaos"] = chaos_report
    if capture is not None:
        # The obs config is part of the cache key, so a cache hit
        # returns these paths without regenerating the files on disk.
        result["obs"] = capture
    return result


_EXECUTORS = {
    TaskKind.SIMULATE: _run_simulate,
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
    from.  It reads every snapshot; the runner records it on
    :class:`~repro.runner.telemetry.TaskFailure` records.
    """
    runtime = task.runtime or {}
    directory = runtime.get("checkpoint_dir")
    if not directory:
        return None
    from ..checkpoint import CheckpointStore

    rows = CheckpointStore(directory).entries()
    info: Dict[str, Any] = {
        "dir": str(directory),
        "checkpoints": len(rows),
        "valid_checkpoints": sum(row["valid"] for row in rows),
        "resume": bool(runtime.get("resume", True)),
    }
    resume = resume_point(task)
    if resume is not None:
        info["resume_seq"], info["resume_sim_time_us"] = resume
    return info


def resume_point(task: Task) -> Optional[Tuple[int, float]]:
    """``(seq, sim_time_us)`` of the snapshot the next execution of
    ``task`` resumes from (the newest valid one, the only one read), or
    ``None`` when it starts from t=0."""
    runtime = task.runtime or {}
    directory = runtime.get("checkpoint_dir")
    if not directory or not runtime.get("resume", True):
        return None
    from ..checkpoint import CheckpointStore

    newest = CheckpointStore(directory).latest_valid()
    return None if newest is None else (newest.seq, newest.sim_time_us)


def inject_faults(task: Task) -> None:
    """Fire the ``task_*`` fault points, one-shot per task cache key:
    the retry of a faulted task runs clean.  :func:`run_task` fires
    them first; a packed task fires them before its dispatch."""
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
    unless ``REPRO_FAULT`` arms one).  The runner caches and returns
    only ``envelope["result"]``.

    When the task runtime carries a ``telemetry`` dict
    (:func:`attempt_runtime`, built by a span-enabled
    :class:`~repro.runner.runner.ExperimentRunner` or the service), the
    execution happens inside an activated
    :class:`~repro.telemetry.context.TelemetryContext` under an
    ``attempt`` span, recorded on a
    :class:`~repro.runner.telemetry.TraceRecorder` of the sweep's
    ``run_id`` — so every JSONL line written *in this process* carries
    that id, and the attempt's span records return to the owner via
    ``envelope["spans"]`` for its :meth:`~repro.runner.telemetry
    .TraceRecorder.adopt`.  Without it, this function touches no
    telemetry code at all.
    """
    telemetry = (task.runtime or {}).get("telemetry")
    if telemetry is None:
        inject_faults(task)
        started = time.perf_counter()
        result = execute_task(task)
        return {
            "result": result,
            "worker_pid": os.getpid(),
            "elapsed_s": time.perf_counter() - started,
        }

    from ..telemetry.context import TelemetryContext, activate, span
    from .telemetry import TraceRecorder

    recorder = TraceRecorder(run_id=telemetry.get("run_id"))
    context = TelemetryContext(
        recorder.run_id, telemetry.get("parent_span_id"), recorder=recorder
    )
    with activate(context), span(
        "attempt", kind=task.kind, worker_pid=os.getpid()
    ):
        inject_faults(task)
        started = time.perf_counter()
        result = execute_task(task)
    return {
        "result": result,
        "worker_pid": os.getpid(),
        "elapsed_s": time.perf_counter() - started,
        "spans": [event.as_jsonable() for event in recorder.events],
    }
