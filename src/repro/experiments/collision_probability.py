"""Figure 2 and Table 2: collision probability vs. number of stations.

Three estimates per network size N, as in the paper:

- **measurement** — the emulated HomePlug AV testbed driven through
  the §3.2 ampstat procedure (ΣC_i / ΣA_i, averaged over tests);
- **simulation** — the slot-synchronous MAC simulator of §4.2;
- **analysis** — the decoupling model of [5].

Both generators batch every testbed test and simulation repetition
through a :class:`repro.runner.ExperimentRunner`, so a Figure 2 at the
paper's scale (70 four-minute testbed runs) parallelizes across worker
processes and survives interruption via the on-disk cache.  Testbed
tests keep their historical explicit seeds (``seed + repetition *
1000``), which the golden Table 2 regression pins bit-for-bit.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..analysis.model import Model1901
from ..core.config import CsmaConfig, TimingConfig
from ..core.results import aggregate
from ..runner import ExperimentRunner, Task, TaskKind, require_complete
from ..runner.runner import rehydrate_simulation
from .procedures import (
    DEFAULT_WARMUP_US,
    CollisionTest,
    CollisionTestSeries,
)
from .sweeps import configuration_tasks

__all__ = ["Figure2Point", "figure2_data", "Table2Row", "table2_data"]


@dataclasses.dataclass(frozen=True)
class Figure2Point:
    """One x-position of Figure 2."""

    num_stations: int
    measured: float
    measured_std: float
    simulated: float
    analytical: float


def _collision_test_task(
    num_stations: int, duration_us: float, seed: int
) -> Task:
    return Task(
        kind=TaskKind.COLLISION_TEST,
        payload={
            "num_stations": num_stations,
            "duration_us": duration_us,
            "warmup_us": DEFAULT_WARMUP_US,
            "seed": seed,
        },
    )


def figure2_data(
    station_counts: Sequence[int] = tuple(range(1, 8)),
    test_duration_us: float = 24e6,
    test_repetitions: int = 3,
    sim_time_us: float = 5e7,
    sim_repetitions: int = 3,
    seed: int = 1,
    config: Optional[CsmaConfig] = None,
    timing: Optional[TimingConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[Figure2Point]:
    """Compute the three Figure 2 curves.

    Defaults are scaled down from the paper's 240 s × 10 tests to keep
    the benchmark quick; pass ``test_duration_us=240e6,
    test_repetitions=10`` for the full procedure.  All testbed tests
    and simulation repetitions across every N are submitted to
    ``runner`` as a single batch.
    """
    config = config if config is not None else CsmaConfig.default_1901()
    timing = timing if timing is not None else TimingConfig()
    runner = runner if runner is not None else ExperimentRunner()
    model = Model1901(config, timing)
    counts = [int(n) for n in station_counts]

    test_tasks = [
        _collision_test_task(n, test_duration_us, seed + rep * 1000)
        for n in counts
        for rep in range(test_repetitions)
    ]
    # The sweep builder's tasks minus its model curve: ``model`` above
    # solves the curve in-process.
    scenarios, sweep_tasks = configuration_tasks(
        config, counts, timing, sim_time_us, sim_repetitions, seed
    )
    sim_tasks = sweep_tasks[1:]

    raw = runner.run(test_tasks + sim_tasks)
    require_complete(raw, runner.failures)
    test_entries = raw[: len(test_tasks)]
    sim_entries = raw[len(test_tasks):]

    points = []
    for i, n in enumerate(counts):
        series = CollisionTestSeries(
            tests=[
                CollisionTest.from_jsonable(entry)
                for entry in test_entries[
                    i * test_repetitions : (i + 1) * test_repetitions
                ]
            ]
        )
        runs = [
            rehydrate_simulation(scenarios[i], entry).result
            for entry in sim_entries[
                i * sim_repetitions : (i + 1) * sim_repetitions
            ]
        ]
        agg = aggregate(runs)
        points.append(
            Figure2Point(
                num_stations=n,
                measured=series.collision_probability,
                measured_std=series.collision_probability_std,
                simulated=agg.collision_probability,
                analytical=model.collision_probability(n),
            )
        )
    return points


@dataclasses.dataclass(frozen=True)
class Table2Row:
    """One row of Table 2: ΣC_i and ΣA_i for a network size."""

    num_stations: int
    sum_collided: int
    sum_acked: int

    @property
    def collision_probability(self) -> float:
        return self.sum_collided / self.sum_acked if self.sum_acked else 0.0


def table2_data(
    station_counts: Sequence[int] = tuple(range(1, 8)),
    duration_us: float = 240e6,
    seed: int = 1,
    runner: Optional[ExperimentRunner] = None,
) -> List[Table2Row]:
    """Regenerate Table 2: one test per N at the paper's duration.

    Each N's test keeps the seed the serial code always used, so the
    rows are independent of worker count and cache state (the golden
    regression test pins them to the seed implementation exactly).
    """
    runner = runner if runner is not None else ExperimentRunner()
    counts = [int(n) for n in station_counts]
    tasks = [
        _collision_test_task(n, duration_us, seed) for n in counts
    ]
    entries = runner.run(tasks)
    require_complete(entries, runner.failures)
    rows = []
    for n, entry in zip(counts, entries):
        test = CollisionTest.from_jsonable(entry)
        rows.append(
            Table2Row(
                num_stations=n,
                sum_collided=test.sum_collided,
                sum_acked=test.sum_acked,
            )
        )
    return rows
