"""BatchRunner: bit-equality with ExperimentRunner and per-point caching.

Batch results answering scalar runs from the cache, and the reverse,
are pairs of the warm-cache axis in
``tests/integration/test_conformance.py``.
"""

import pytest

from repro.core import ScenarioConfig
from repro.core.config import CsmaConfig, StationConfig, TimingConfig
from repro.runner import (
    BatchRunner,
    ExperimentRunner,
    SeedSpec,
    Task,
    TaskKind,
)
from repro.runner import batch as batch_module
from repro.runner.serialize import (
    csma_to_jsonable,
    scenario_to_jsonable,
    timing_to_jsonable,
)
from repro.runner.tasks import run_packed, run_task

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


def _unsaturated():
    """A point with a Poisson-arrival (unsaturated) station."""
    return ScenarioConfig(
        stations=(
            StationConfig(),
            StationConfig(arrival_rate_pps=50.0),
        ),
        sim_time_us=SIM_TIME_US,
    )


def _simulate(scenario, index, record_winners=False):
    return Task(
        kind=TaskKind.SIMULATE,
        payload={
            "scenario": scenario_to_jsonable(scenario),
            "record_winners": record_winners,
        },
        seed=SeedSpec(root_seed=7, point_index=index, repetition=0),
    )


@pytest.fixture
def packed(monkeypatch):
    """Every task the runner hands the kernel, in dispatch order."""
    seen = []

    def spy(tasks):
        seen.extend(tasks)
        return run_packed(tasks)

    monkeypatch.setattr(batch_module, "run_packed", spy)
    return seen


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


def test_unsaturated_points_run_on_the_kernel(packed):
    scenarios = _scenarios()[:1] + [_unsaturated()]
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
    assert len(packed) == 2


def test_partial_cache_mixes_hits_and_kernel_points(tmp_path):
    scenarios = _scenarios()
    first = BatchRunner(cache_dir=tmp_path)
    first.run_scenarios(scenarios[:1], root_seed=4, repetitions=1)

    second = BatchRunner(cache_dir=tmp_path)
    second.run_scenarios(scenarios, root_seed=4, repetitions=1)
    assert second.counters.cache_hits == 1
    assert second.counters.executed == 2


def test_chunking_does_not_change_results(monkeypatch, packed):
    scenarios = _scenarios()
    big = BatchRunner().run_scenarios(scenarios, root_seed=3)
    monkeypatch.setattr(batch_module, "CHUNK_SIZE", 1)
    one = BatchRunner().run_scenarios(scenarios, root_seed=3)
    assert [
        [p.result for p in group] for group in one
    ] == [
        [p.result for p in group] for group in big
    ]
    assert len(packed) == 2 * len(scenarios)


def test_counters_track_totals():
    runner = BatchRunner()
    runner.run_scenarios(_scenarios(), root_seed=1, repetitions=2)
    assert runner.counters.points_total == 6
    assert runner.counters.executed == 6


# -- the packing step -------------------------------------------------------
def test_run_packed_matches_run_task():
    tasks = [
        _simulate(scenario, i)
        for i, scenario in enumerate(_scenarios()[:2] + [_unsaturated()])
    ]
    assert run_packed(tasks) == [run_task(task)["result"] for task in tasks]


def test_mixed_task_list_matches_serial_runner(packed):
    """Only plain ``simulate`` points reach the kernel; every other
    task runs as on the serial runner, and each slot holds what the
    serial runner returns for it."""
    scenarios = _scenarios()
    plain = [_simulate(scenario, i) for i, scenario in enumerate(scenarios)]
    tasks = [
        plain[0],
        _simulate(scenarios[1], 9, record_winners=True),
        Task(
            kind=TaskKind.COLLISION_TEST,
            payload={
                "num_stations": 2,
                "duration_us": 2e5,
                "warmup_us": 1e4,
                "seed": 1,
            },
        ),
        plain[1],
        Task(
            kind=TaskKind.MODEL_CURVE,
            payload={
                "csma": csma_to_jsonable(CsmaConfig.default_1901()),
                "timing": timing_to_jsonable(TimingConfig()),
                "station_counts": [2, 3],
            },
        ),
        plain[2],
        plain[0],  # the repeated key
    ]
    runner = BatchRunner()
    got = runner.run(tasks)
    assert got == ExperimentRunner(max_workers=1).run(tasks)
    assert "winners" in got[1]
    assert [task.describe() for task in packed] == [
        task.describe() for task in plain + plain[:1]
    ]
    assert runner.counters.executed == len(tasks)
