"""The benchmark's workloads: task lists built from a seed and a scale.

Every workload is a list of :class:`repro.runner.Task` built by the
program's own front doors (``standard_sweep_tasks``, ``figure2_data``),
so the cache keys an entry point sees are the ones a user's run would
see.  The seed only picks the inputs; the program receives the tasks.

Sizes live in :data:`SCALES`.  ``default`` is what ``BENCHMARK.json``
runs; ``smoke`` keeps every simulation at or below 2e5 us so the smoke
test finishes in well under a minute.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

#: Entry points, in the order of the first round (later rounds rotate).
ENTRIES = ("serial", "pool", "batch", "service", "http")

#: Repetitions per point of the ledger sweep (``submit --reps 2``).
SHORT_REPS = 2


@dataclasses.dataclass(frozen=True)
class Sizes:
    """The sizes that differ between scales."""

    short_counts: tuple
    short_sim_us: float
    fig2_counts: tuple
    fig2_test_us: float
    fig2_sim_us: float


SCALES: Dict[str, Sizes] = {
    "default": Sizes(
        short_counts=tuple(range(2, 8)),
        short_sim_us=1e6,
        fig2_counts=tuple(range(1, 8)),
        fig2_test_us=5e5,
        fig2_sim_us=5e5,
    ),
    "smoke": Sizes(
        short_counts=(2, 3),
        short_sim_us=2e5,
        fig2_counts=(1, 2, 3),
        fig2_test_us=2e5,
        fig2_sim_us=2e5,
    ),
}


def sweep_short(seed: int, sizes: Sizes) -> List:
    """The ROADMAP ledger sweep: CA1, CA3 and 802.11 over N, plus curves."""
    from repro.service.submit import standard_sweep_tasks

    return standard_sweep_tasks(
        sizes.short_counts,
        sim_time_us=sizes.short_sim_us,
        repetitions=SHORT_REPS,
        seed=seed,
    )


class _TaskList(Exception):
    """Carries the task list out of :class:`_CapturingRunner`."""


class _CapturingRunner:
    """Takes the place of ``figure2_data``'s runner and keeps its tasks."""

    def run(self, tasks):
        raise _TaskList(list(tasks))


def fig2_paper(seed: int, sizes: Sizes) -> List:
    """``figure2_data``'s tasks (one test and one simulation per N), plus
    the CA1 model curve over the same N.

    ``figure2_data`` solves its curve in-process; here it is the CA1
    curve task ``standard_sweep_tasks`` submits, so every entry point
    pays for it.
    """
    from repro.experiments.collision_probability import figure2_data
    from repro.service.submit import standard_sweep_tasks

    try:
        figure2_data(
            station_counts=sizes.fig2_counts,
            test_duration_us=sizes.fig2_test_us,
            test_repetitions=1,
            sim_time_us=sizes.fig2_sim_us,
            sim_repetitions=1,
            seed=seed,
            runner=_CapturingRunner(),
        )
    except _TaskList as captured:
        tasks = captured.args[0]
    else:
        raise RuntimeError("figure2_data ran no tasks")
    # With no repetitions the sweep holds only the three curves, CA1 first.
    curve = standard_sweep_tasks(sizes.fig2_counts, repetitions=0, seed=seed)[0]
    return tasks + [curve]


#: Task-list function of each workload, by name.
TASK_LISTS = {
    "sweep_short": sweep_short,
    "fig2_paper": fig2_paper,
}


def build_tasks(workload: str, seed: int, scale: str = "default") -> List:
    """The task list of ``workload`` at ``seed`` and ``scale``."""
    return TASK_LISTS[workload](seed, SCALES[scale])
