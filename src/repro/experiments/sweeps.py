"""Parameter sweeps: throughput vs. N, priority classes, protocols.

These produce the extended-evaluation series of the CoNEXT paper's
scope (experiments X1/X6 of DESIGN.md): saturation throughput and
collision probability as functions of the number of stations for

- the 1901 default (CA1) configuration,
- the CA2/CA3 parameter column (Table 1's second group),
- the 802.11 DCF baseline,
- any custom configuration (e.g. a boosted one).

Each series carries both simulation measurements and the analytical
curve.

Execution goes through :class:`repro.runner.ExperimentRunner`: pass
``runner=ExperimentRunner(max_workers=4, cache_dir=...)`` to simulate
points concurrently and/or memoize them on disk.  Seeding is the
runner's determinism contract — the point at ``station_counts[i]``,
repetition ``r``, draws from ``SeedSequence(seed, spawn_key=(i, r))``
— so a sweep's numbers are bit-identical for any worker count and
reproducible across process restarts, and ``repetitions=3`` means
three documented, independently seeded runs per point.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import CsmaConfig, ScenarioConfig, TimingConfig
from ..core.parameters import PriorityClass
from ..core.results import aggregate
from ..runner import ExperimentRunner, Task, TaskKind, require_complete
from ..runner.runner import rehydrate_simulation
from ..runner.seeding import SeedSpec
from ..runner.serialize import (
    csma_to_jsonable,
    scenario_to_jsonable,
    timing_to_jsonable,
)

__all__ = [
    "SweepPoint",
    "configuration_tasks",
    "protocol_configs",
    "standard_protocol_sweep",
    "sweep_configuration",
]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """Simulation + model values at one network size."""

    label: str
    num_stations: int
    sim_throughput: float
    sim_collision_probability: float
    model_throughput: float
    model_collision_probability: float


def protocol_configs(
    extra: Optional[Dict[str, CsmaConfig]] = None,
) -> List[Tuple[str, CsmaConfig]]:
    """The X1/X6 configurations, labelled: 1901 CA1, 1901 CA3, 802.11
    DCF, then ``extra`` in its order."""
    configs = [
        ("1901 CA1", CsmaConfig.for_priority(PriorityClass.CA1)),
        ("1901 CA3", CsmaConfig.for_priority(PriorityClass.CA3)),
        ("802.11 DCF", CsmaConfig.ieee80211()),
    ]
    return configs + list((extra or {}).items())


def configuration_tasks(
    config: CsmaConfig,
    station_counts: Sequence[int],
    timing: Optional[TimingConfig] = None,
    sim_time_us: float = 2e7,
    repetitions: int = 3,
    seed: int = 1,
) -> Tuple[List[ScenarioConfig], List[Task]]:
    """One configuration's sweep as tasks: the analytical curve first,
    then every ``(point, repetition)`` simulation, point-major.

    The one builder behind :func:`sweep_configuration` and
    :func:`repro.service.submit.standard_sweep_tasks`.  Returns the
    scenarios (one per station count) alongside the tasks.
    """
    timing = timing if timing is not None else TimingConfig()
    counts = [int(n) for n in station_counts]
    model_task = Task(
        kind=TaskKind.MODEL_CURVE,
        payload={
            "family": "80211" if config.protocol == "80211" else "1901",
            "csma": csma_to_jsonable(config),
            "timing": timing_to_jsonable(timing),
            "station_counts": counts,
        },
    )
    scenarios = [
        ScenarioConfig.homogeneous(
            num_stations=n,
            csma=config,
            timing=timing,
            sim_time_us=sim_time_us,
            seed=seed,
        )
        for n in counts
    ]
    sim_tasks = [
        Task(
            kind=TaskKind.SIMULATE,
            payload={"scenario": scenario_to_jsonable(scenario)},
            seed=SeedSpec(root_seed=seed, point_index=i, repetition=rep),
        )
        for i, scenario in enumerate(scenarios)
        for rep in range(repetitions)
    ]
    return scenarios, [model_task] + sim_tasks


def sweep_configuration(
    label: str,
    config: CsmaConfig,
    station_counts: Sequence[int],
    timing: Optional[TimingConfig] = None,
    sim_time_us: float = 2e7,
    repetitions: int = 3,
    seed: int = 1,
    runner: Optional[ExperimentRunner] = None,
) -> List[SweepPoint]:
    """One configuration across network sizes.

    All ``len(station_counts) * repetitions`` simulation points plus
    the analytical curve are submitted to ``runner`` as one batch, so
    with ``max_workers > 1`` they execute concurrently.
    """
    runner = runner if runner is not None else ExperimentRunner()
    scenarios, tasks = configuration_tasks(
        config, station_counts, timing, sim_time_us, repetitions, seed
    )
    raw = runner.run(tasks)
    require_complete(raw, runner.failures)
    model_points = raw[0]["points"]
    sim_entries = raw[1:]

    points = []
    for i, scenario in enumerate(scenarios):
        prediction = model_points[i]
        runs = [
            rehydrate_simulation(scenario, entry).result
            for entry in sim_entries[i * repetitions : (i + 1) * repetitions]
        ]
        agg = aggregate(runs)
        points.append(
            SweepPoint(
                label=label,
                num_stations=scenario.num_stations,
                sim_throughput=agg.normalized_throughput,
                sim_collision_probability=agg.collision_probability,
                model_throughput=prediction["normalized_throughput"],
                model_collision_probability=prediction[
                    "collision_probability"
                ],
            )
        )
    return points


def standard_protocol_sweep(
    station_counts: Sequence[int] = (1, 2, 3, 5, 7, 10, 15, 20, 30),
    timing: Optional[TimingConfig] = None,
    sim_time_us: float = 2e7,
    repetitions: int = 3,
    seed: int = 1,
    extra: Optional[Dict[str, CsmaConfig]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, List[SweepPoint]]:
    """The X1/X6 comparison: 1901 CA1, 1901 CA3, 802.11 DCF (+extras).

    Every configuration reuses the same per-point seeds (common random
    numbers), which pairs the protocol comparison at each N.
    """
    runner = runner if runner is not None else ExperimentRunner()
    return {
        label: sweep_configuration(
            label,
            config,
            station_counts,
            timing=timing,
            sim_time_us=sim_time_us,
            repetitions=repetitions,
            seed=seed,
            runner=runner,
        )
        for label, config in protocol_configs(extra)
    }
