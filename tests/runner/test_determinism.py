"""The runner's determinism contract, locked in across families.

For each experiment family (parameter sweep, boost search, fairness)
the same root seed must yield bit-identical results whether points run
serially, across 4 worker processes, or from a warm on-disk cache —
and a different root seed must yield different numbers wherever the
family is stochastic.  The sweep family's serial, pool and warm-cache
runs are cells of ``tests/integration/test_conformance.py``.
"""

from repro.boost.objectives import worst_case_throughput
from repro.boost.search import (
    single_stage_family,
    search,
    validate_by_simulation,
)
from repro.experiments.fairness import fairness_by_simulation
from repro.experiments.sweeps import sweep_configuration
from repro.core.config import CsmaConfig
from repro.runner import ExperimentRunner

COUNTS = (2, 3, 5)
SIM_TIME_US = 3e5


def _sweep(runner, seed=1):
    return sweep_configuration(
        "1901 CA1",
        CsmaConfig.default_1901(),
        station_counts=COUNTS,
        sim_time_us=SIM_TIME_US,
        repetitions=2,
        seed=seed,
        runner=runner,
    )


class TestSweepFamily:
    def test_root_seed_changes_results(self):
        a = _sweep(ExperimentRunner(), seed=1)
        b = _sweep(ExperimentRunner(), seed=2)
        assert [p.sim_throughput for p in a] != [
            p.sim_throughput for p in b
        ]
        # The analytical curve is seed-independent.
        assert [p.model_throughput for p in a] == [
            p.model_throughput for p in b
        ]


class TestBoostFamily:
    CANDIDATES = single_stage_family(cw_values=(8, 16, 32))
    OBJECTIVE = worst_case_throughput(COUNTS)

    def test_search_serial_equals_parallel_equals_cached(self, tmp_path):
        serial = search(self.CANDIDATES, self.OBJECTIVE, top=3)
        parallel = search(
            self.CANDIDATES, self.OBJECTIVE, top=3,
            runner=ExperimentRunner(max_workers=4),
        )
        warmer = ExperimentRunner(max_workers=2, cache_dir=tmp_path)
        search(self.CANDIDATES, self.OBJECTIVE, top=3, runner=warmer)
        warm = ExperimentRunner(max_workers=1, cache_dir=tmp_path)
        cached = search(
            self.CANDIDATES, self.OBJECTIVE, top=3, runner=warm
        )
        assert serial == parallel == cached
        assert warm.counters.executed == 0

    def test_validation_seeding(self):
        best = search(self.CANDIDATES, self.OBJECTIVE, top=1)[0]

        def rows(workers, seed):
            return validate_by_simulation(
                best, COUNTS, sim_time_us=SIM_TIME_US, repetitions=2,
                seed=seed, runner=ExperimentRunner(max_workers=workers),
            )

        assert rows(1, seed=1) == rows(4, seed=1)
        assert rows(1, seed=1) != rows(1, seed=3)


class TestFairnessFamily:
    def _run(self, workers, seed=1, cache_dir=None):
        runner = ExperimentRunner(max_workers=workers, cache_dir=cache_dir)
        results = fairness_by_simulation(
            station_counts=COUNTS, sim_time_us=SIM_TIME_US, seed=seed,
            runner=runner,
        )
        return results, runner

    def test_serial_equals_parallel_equals_cached(self, tmp_path):
        serial, _ = self._run(1)
        parallel, _ = self._run(4)
        self._run(2, cache_dir=tmp_path)
        cached, warm = self._run(1, cache_dir=tmp_path)
        assert serial == parallel == cached
        assert warm.counters.executed == 0

    def test_root_seed_changes_results(self):
        a, _ = self._run(1, seed=1)
        b, _ = self._run(1, seed=5)
        assert a != b


def test_counters_track_points(tmp_path):
    runner = ExperimentRunner(max_workers=2, cache_dir=tmp_path)
    _sweep(runner)
    c = runner.counters
    # One model-curve task + len(COUNTS) * 2 repetitions.
    assert c.points_total == 1 + len(COUNTS) * 2
    assert c.executed == c.points_total
    assert c.cache_misses == c.points_total
    assert c.cache_hits == 0
    assert c.wall_time_s > 0
    assert c.as_dict()["workers"] == 2
