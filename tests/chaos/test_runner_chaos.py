"""Chaos plans through the runner: cache keying + bit-identity."""

from repro.chaos.plan import preset_plan
from repro.obs.recording import read_jsonl
from repro.runner import ExperimentRunner, Task, TaskKind
from repro.runner.cache import cache_key
from repro.runner.tasks import execute_task

STATIONS = 2
DURATION_US = 1.2e6
WARMUP_US = 0.2e6


def _payload(chaos=None, seed=1):
    payload = {
        "num_stations": STATIONS,
        "duration_us": DURATION_US,
        "warmup_us": WARMUP_US,
        "seed": seed,
        "testbed_kwargs": {},
    }
    if chaos is not None:
        payload["chaos"] = chaos.as_jsonable()
    return payload


def _tasks(plan_seeds=(0, 1)):
    return [
        Task(
            kind=TaskKind.COLLISION_TEST,
            payload=_payload(
                preset_plan("full", DURATION_US, seed=plan_seed)
            ),
        )
        for plan_seed in plan_seeds
    ]


class TestTaskExecution:
    def test_chaos_report_rides_in_the_result(self):
        plan = preset_plan("full", DURATION_US, seed=3)
        result = execute_task(
            Task(kind=TaskKind.COLLISION_TEST, payload=_payload(plan))
        )
        assert result["chaos"]["invariants"]["green"]
        assert result["chaos"]["plan"] == plan.as_jsonable()
        assert result["chaos"]["injection"]["joins"] == 1
        assert "obs" not in result

    def test_without_chaos_no_key(self):
        result = execute_task(
            Task(kind=TaskKind.COLLISION_TEST, payload=_payload())
        )
        assert "chaos" not in result

    def test_plan_is_part_of_cache_key(self):
        bare = Task(kind=TaskKind.COLLISION_TEST, payload=_payload())
        chaotic = Task(
            kind=TaskKind.COLLISION_TEST,
            payload=_payload(preset_plan("ge", DURATION_US)),
        )
        other = Task(
            kind=TaskKind.COLLISION_TEST,
            payload=_payload(preset_plan("ge", DURATION_US, seed=9)),
        )
        keys = {
            cache_key(task.describe()) for task in (bare, chaotic, other)
        }
        assert len(keys) == 3


class TestBitIdentity:
    def test_serial_equals_parallel_equals_cached(self, tmp_path):
        """The acceptance criterion: identical (scenario, plan, seed)
        yields bit-identical results on the serial and parallel runner
        paths, and again from a warm cache."""
        serial = ExperimentRunner(max_workers=1).run(_tasks())
        parallel = ExperimentRunner(max_workers=2).run(_tasks())
        assert serial == parallel

        warmer = ExperimentRunner(max_workers=2, cache_dir=tmp_path)
        warmer.run(_tasks())
        warm = ExperimentRunner(max_workers=1, cache_dir=tmp_path)
        cached = warm.run(_tasks())
        assert cached == serial
        assert warm.counters.executed == 0
        assert warm.counters.cache_hits == warm.counters.points_total

    def test_plan_seed_changes_the_injection(self):
        a, b = ExperimentRunner(max_workers=1).run(_tasks((0, 7)))
        assert a["chaos"]["injection"] != b["chaos"]["injection"]


class TestChaosSpan:
    def test_every_path_records_the_same_spans(self, tmp_path):
        """A chaos point records ``chaos_test`` under its ``attempt``
        whether it runs straight through, checkpointed, or resumed
        from a snapshot — the same span tree and the same result."""

        def run(name, **config):
            trace = tmp_path / f"{name}.jsonl"
            runner = ExperimentRunner(
                max_workers=1, trace_path=trace, **config
            )
            [result] = runner.run(_tasks((0,)))
            starts = [
                record
                for record in read_jsonl(trace)
                if record["event"] == "span_start"
            ]
            names = {record["span_id"]: record["name"] for record in starts}
            spans = sorted(
                (record["name"], names.get(record.get("parent_id")))
                for record in starts
            )
            return result, spans, runner

        checkpoints = dict(
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every_us=0.3e6
        )
        straight, straight_spans, _ = run("straight")
        assert ("chaos_test", "attempt") in straight_spans
        checkpointed, checkpointed_spans, _ = run("checkpointed", **checkpoints)
        # The store keeps its snapshots: this run resumes from the newest.
        resumed, resumed_spans, runner = run("resumed", **checkpoints)
        assert runner.trace.of_kind("checkpoint_resume")
        assert checkpointed == resumed == straight
        assert checkpointed_spans == resumed_spans == straight_spans
