"""Configuration search: find (cw, dc) schedules that boost throughput.

The search evaluates candidate schedules with the fast stage-recursion
model (:class:`repro.analysis.recursive.RecursiveModel`) — hundreds of
configurations per second — and scores them with an
:class:`repro.boost.objectives.Objective`.  Promising candidates can
then be re-validated by simulation (:func:`validate_by_simulation`).

Candidate families implemented:

- the standard-shaped family: four stages, windows scaling by a factor,
  deferral counters scaling likewise (generalizes Table 1);
- single-stage ("DC-less") family: one window, no stage escalation —
  shows why the deferral counter matters;
- deferral-only family: constant window, escalating deferral counters —
  CW adaptation driven purely by sensing, the mechanism the paper's
  introduction motivates.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.model import Model1901
from ..core.config import CsmaConfig, ScenarioConfig, TimingConfig
from ..core.results import aggregate
from ..runner import ExperimentRunner, Task, TaskKind, require_complete
from ..runner.serialize import csma_to_jsonable, timing_to_jsonable
from .objectives import Objective

__all__ = [
    "CandidateScore",
    "evaluate_candidate",
    "search",
    "standard_family",
    "single_stage_family",
    "deferral_family",
    "default_candidates",
    "validate_by_simulation",
]


@dataclasses.dataclass(frozen=True)
class CandidateScore:
    """A scored configuration."""

    config: CsmaConfig
    score: float
    #: Normalized throughput per station count of the objective.
    throughput_curve: Tuple[float, ...]
    #: Collision probability per station count of the objective.
    collision_curve: Tuple[float, ...]


def evaluate_candidate(
    config: CsmaConfig,
    objective: Objective,
    timing: Optional[TimingConfig] = None,
) -> CandidateScore:
    """Score one configuration with the analytical model."""
    timing = timing if timing is not None else TimingConfig()
    model = Model1901(config, timing, method="recursive")
    throughputs = []
    collisions = []
    for n in objective.station_counts:
        prediction = model.solve(n)
        throughputs.append(prediction.normalized_throughput)
        collisions.append(prediction.collision_probability)
    curve = np.array(throughputs)
    return CandidateScore(
        config=config,
        score=objective.evaluate(curve),
        throughput_curve=tuple(throughputs),
        collision_curve=tuple(collisions),
    )


def search(
    candidates: Iterable[CsmaConfig],
    objective: Objective,
    timing: Optional[TimingConfig] = None,
    top: int = 10,
    runner: Optional[ExperimentRunner] = None,
) -> List[CandidateScore]:
    """Evaluate all ``candidates`` and return the ``top`` best scores.

    With a ``runner``, candidate curves are computed as one batch of
    ``model_curve`` tasks — in parallel across worker processes and
    memoized on disk, so resuming an interrupted search (or re-scoring
    the same families under a different objective over the same station
    counts) only solves new configurations.  The objective itself is
    applied in the submitting process (it can be any callable; only the
    curves are cached).
    """
    timing = timing if timing is not None else TimingConfig()
    configs = list(candidates)
    runner = runner if runner is not None else ExperimentRunner()
    counts = [int(n) for n in objective.station_counts]
    tasks = [
        Task(
            kind=TaskKind.MODEL_CURVE,
            payload={
                "csma": csma_to_jsonable(config),
                "timing": timing_to_jsonable(timing),
                "station_counts": counts,
            },
        )
        for config in configs
    ]
    curves = runner.run(tasks)
    require_complete(curves, runner.failures)
    scores = []
    for config, curve in zip(configs, curves):
        throughputs = [p["normalized_throughput"] for p in curve["points"]]
        collisions = [p["collision_probability"] for p in curve["points"]]
        scores.append(
            CandidateScore(
                config=config,
                score=objective.evaluate(np.array(throughputs)),
                throughput_curve=tuple(throughputs),
                collision_curve=tuple(collisions),
            )
        )
    scores.sort(key=lambda cs: cs.score, reverse=True)
    return scores[:top]


# -- candidate families ------------------------------------------------------

def standard_family(
    cw0_values: Sequence[int] = (4, 8, 16, 32, 64),
    growth_factors: Sequence[int] = (1, 2, 4),
    dc0_values: Sequence[int] = (0, 1, 3, 7),
    num_stages: int = 4,
) -> List[CsmaConfig]:
    """Four-stage schedules generalizing Table 1's shape.

    Windows grow geometrically from ``cw0``; deferral counters follow
    the standard's doubling-ish pattern ``d_i = (d0+1)·2^i − 1``.
    """
    configs = []
    for cw0, growth, dc0 in itertools.product(
        cw0_values, growth_factors, dc0_values
    ):
        cw = tuple(min(cw0 * growth**i, 4096) for i in range(num_stages))
        dc = tuple((dc0 + 1) * 2**i - 1 for i in range(num_stages))
        configs.append(CsmaConfig(cw=cw, dc=dc))
    return configs


def single_stage_family(
    cw_values: Sequence[int] = (8, 16, 32, 64, 128, 256),
) -> List[CsmaConfig]:
    """One-stage schedules: fixed window, deferral counter irrelevant.

    With a single stage there is nowhere to jump, so these isolate the
    pure backoff-efficiency/collision tradeoff in CW.
    """
    return [CsmaConfig(cw=(w,), dc=(0,)) for w in cw_values]


def deferral_family(
    cw_values: Sequence[int] = (8, 16, 32, 64),
    dc_ladders: Sequence[Tuple[int, ...]] = (
        (0, 1, 3, 15),
        (0, 1, 3, 7),
        (0, 3, 7, 15),
        (1, 3, 7, 15),
        (0, 0, 1, 3),
    ),
) -> List[CsmaConfig]:
    """Constant-window schedules: adaptation only via deferral jumps.

    These test the paper's central mechanism — growing caution *before*
    a collision happens — decoupled from window growth.
    """
    configs = []
    for w, ladder in itertools.product(cw_values, dc_ladders):
        configs.append(CsmaConfig(cw=(w,) * len(ladder), dc=ladder))
    return configs


def default_candidates() -> List[CsmaConfig]:
    """The union of all families plus the standard configurations."""
    configs = [CsmaConfig.default_1901()]
    configs += standard_family()
    configs += single_stage_family()
    configs += deferral_family()
    # De-duplicate on the (cw, dc) schedule.
    seen = set()
    unique = []
    for config in configs:
        key = (config.cw, config.dc)
        if key not in seen:
            seen.add(key)
            unique.append(config)
    return unique


def validate_by_simulation(
    score: CandidateScore,
    station_counts: Sequence[int],
    timing: Optional[TimingConfig] = None,
    sim_time_us: float = 2e7,
    repetitions: int = 3,
    seed: int = 1,
    runner: Optional[ExperimentRunner] = None,
) -> List[Tuple[int, float, float]]:
    """Re-measure a candidate by simulation.

    Returns ``(N, sim_throughput, sim_collision_probability)`` rows —
    the guard against the model mis-ranking configurations where the
    decoupling approximation is weak.  All ``N × repetitions`` points
    go through ``runner`` as one batch, seeded per the runner's
    ``(seed, point_index, repetition)`` contract.
    """
    timing = timing if timing is not None else TimingConfig()
    runner = runner if runner is not None else ExperimentRunner()
    scenarios = [
        ScenarioConfig.homogeneous(
            num_stations=n,
            csma=score.config,
            timing=timing,
            sim_time_us=sim_time_us,
            seed=seed,
        )
        for n in station_counts
    ]
    grouped = runner.run_scenarios(
        scenarios, root_seed=seed, repetitions=repetitions
    )
    rows = []
    for n, group in zip(station_counts, grouped):
        agg = aggregate([point.result for point in group])
        rows.append(
            (n, agg.normalized_throughput, agg.collision_probability)
        )
    return rows
