"""BatchRunner: bit-equality with ExperimentRunner and per-point caching.

Batch results answering scalar runs from the cache, and the reverse,
are pairs of the warm-cache axis in
``tests/integration/test_conformance.py``.
"""

import pytest

from repro.core import ScenarioConfig
from repro.core.config import CsmaConfig, StationConfig
from repro.runner import (
    BatchRunner,
    ExperimentRunner,
    SeedSpec,
    Task,
    TaskKind,
)
from repro.runner.tasks import execute_task
from repro.runner.serialize import scenario_to_jsonable

SIM_TIME_US = 1e5


def _scenarios():
    return [
        ScenarioConfig.homogeneous(2, sim_time_us=SIM_TIME_US),
        ScenarioConfig.homogeneous(5, sim_time_us=SIM_TIME_US),
        ScenarioConfig.homogeneous(
            3,
            csma=CsmaConfig(cw=(8, 16, 16, 32), dc=(0, 1, 3, 15)),
            sim_time_us=SIM_TIME_US,
        ),
    ]


def _unsupported():
    """A point the kernel refuses (unsaturated station)."""
    return ScenarioConfig(
        stations=(
            StationConfig(),
            StationConfig(arrival_rate_pps=50.0),
        ),
        sim_time_us=SIM_TIME_US,
    )


def test_batch_runner_matches_experiment_runner():
    scenarios = _scenarios()
    batch = BatchRunner().run_scenarios(
        scenarios, root_seed=5, repetitions=2
    )
    scalar = ExperimentRunner(max_workers=1).run_scenarios(
        scenarios, root_seed=5, repetitions=2
    )
    assert [
        [p.result for p in group] for group in batch
    ] == [
        [p.result for p in group] for group in scalar
    ]


def test_unsupported_points_fall_back_per_point():
    scenarios = _scenarios()[:1] + [_unsupported()]
    runner = BatchRunner()
    batch = runner.run_scenarios(scenarios, root_seed=2, repetitions=1)
    scalar = ExperimentRunner(max_workers=1).run_scenarios(
        scenarios, root_seed=2, repetitions=1
    )
    assert [
        [p.result for p in group] for group in batch
    ] == [
        [p.result for p in group] for group in scalar
    ]
    assert runner.counters.executed == 2


def test_partial_cache_mixes_hits_and_kernel_points(tmp_path):
    scenarios = _scenarios()
    first = BatchRunner(cache_dir=tmp_path)
    first.run_scenarios(scenarios[:1], root_seed=4, repetitions=1)

    second = BatchRunner(cache_dir=tmp_path)
    second.run_scenarios(scenarios, root_seed=4, repetitions=1)
    assert second.counters.cache_hits == 1
    assert second.counters.executed == 2


def test_chunking_does_not_change_results():
    scenarios = _scenarios()
    one = BatchRunner(chunk_size=1).run_scenarios(scenarios, root_seed=3)
    big = BatchRunner(chunk_size=1024).run_scenarios(scenarios, root_seed=3)
    assert [
        [p.result for p in group] for group in one
    ] == [
        [p.result for p in group] for group in big
    ]


def test_chunk_size_validated():
    with pytest.raises(ValueError, match="chunk_size"):
        BatchRunner(chunk_size=0)


def test_counters_track_totals():
    runner = BatchRunner()
    runner.run_scenarios(_scenarios(), root_seed=1, repetitions=2)
    assert runner.counters.points_total == 6
    assert runner.counters.executed == 6


# -- the SIMULATE_BATCH task kind ------------------------------------------
def test_simulate_batch_task_matches_scalar_tasks():
    scenarios = _scenarios()[:2]
    points = [
        {
            "scenario": scenario_to_jsonable(scenario),
            "seed": SeedSpec(
                root_seed=7, point_index=i, repetition=0
            ).as_jsonable(),
        }
        for i, scenario in enumerate(scenarios)
    ]
    batch_out = execute_task(
        Task(kind=TaskKind.SIMULATE_BATCH, payload={"points": points})
    )
    for point, got in zip(points, batch_out["points"]):
        want = execute_task(
            Task(
                kind=TaskKind.SIMULATE,
                payload={"scenario": point["scenario"]},
                seed=SeedSpec.from_jsonable(point["seed"]),
            )
        )
        assert got == want


def test_simulate_batch_rejects_record_winners():
    scenario = _scenarios()[0]
    with pytest.raises(ValueError, match="record_winners"):
        execute_task(
            Task(
                kind=TaskKind.SIMULATE_BATCH,
                payload={
                    "points": [
                        {
                            "scenario": scenario_to_jsonable(scenario),
                            "seed": SeedSpec().as_jsonable(),
                            "record_winners": True,
                        }
                    ]
                },
            )
        )
