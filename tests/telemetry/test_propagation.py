"""End-to-end run_id correlation across every JSONL family.

The acceptance test: one chaos + checkpoint sweep with telemetry
enabled must leave its trace (lifecycle events and spans), obs
(MAC/SoF/chaos ledger) and checkpoint-journal JSONL streams that all
carry the same ``run_id`` — the property that makes any line from any
stream joinable back to its run.
"""

import json
from pathlib import Path

from repro.chaos.plan import preset_plan
from repro.core import ScenarioConfig
from repro.runner import ExperimentRunner, Task, TaskKind
from repro.runner.seeding import SeedSpec
from repro.runner.serialize import scenario_to_jsonable
from repro.telemetry.context import current
from repro.telemetry.openmetrics import validate_openmetrics

STATIONS = 2
DURATION_US = 1.2e6
WARMUP_US = 0.2e6


def _tasks(obs_dir: Path):
    # The "full" preset at this duration/seed deterministically fires
    # churn + SACK faults (see tests/chaos/test_runner_chaos.py), so
    # the chaos ledger is guaranteed to be non-empty.
    plan = preset_plan("full", DURATION_US, seed=3)
    chaos_obs = Task(
        kind=TaskKind.COLLISION_TEST,
        payload={
            "num_stations": STATIONS,
            "duration_us": DURATION_US,
            "warmup_us": WARMUP_US,
            "seed": 1,
            "testbed_kwargs": {},
            "chaos": plan.as_jsonable(),
            "obs": {"dir": str(obs_dir), "label": "chaos"},
        },
    )
    checkpointed = Task(
        kind=TaskKind.COLLISION_TEST,
        payload={
            "num_stations": STATIONS,
            "duration_us": DURATION_US,
            "warmup_us": WARMUP_US,
            "seed": 2,
            "testbed_kwargs": {},
        },
    )
    simulate = Task(
        kind=TaskKind.SIMULATE,
        payload={
            "scenario": scenario_to_jsonable(
                ScenarioConfig.homogeneous(
                    num_stations=STATIONS, sim_time_us=0.5e6, seed=3
                )
            ),
        },
        seed=SeedSpec(root_seed=3, point_index=0, repetition=0),
    )
    return [chaos_obs, checkpointed, simulate]


def _jsonl_lines(root: Path):
    for path in sorted(Path(root).rglob("*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    yield path, json.loads(line)


class TestRunIdPropagation:
    def test_one_run_id_across_all_streams(self, tmp_path):
        telemetry_dir = tmp_path / "tel"
        obs_dir = tmp_path / "obs"
        checkpoint_dir = tmp_path / "ckpt"
        runner = ExperimentRunner(
            max_workers=1,
            telemetry_dir=telemetry_dir,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_us=2e5,
        )
        results = runner.run(_tasks(obs_dir))
        assert all(result is not None for result in results)
        run_id = runner.run_id

        # Every JSONL family under every directory carries the run_id.
        for path, record in _jsonl_lines(tmp_path):
            assert record.get("run_id") == run_id, (
                f"{path.name}: line without the run's id: {record}"
            )

        # All four stream families actually exist (else the assertion
        # above is vacuous): the runner trace with its spans, obs
        # traces, the chaos ledger, and the checkpoint journal.
        names = {path.name for path, _ in _jsonl_lines(tmp_path)}
        assert "trace.jsonl" in names
        assert sorted(p.name for p in telemetry_dir.iterdir()) == [
            "metrics.prom",
            "trace.jsonl",
        ]
        assert "journal.jsonl" in names
        assert any(name.startswith("mac_trace") for name in names)
        assert any(name.startswith("chaos_ledger") for name in names)

        # The journal recorded the checkpoint saves of this run.
        journal = [
            record
            for path, record in _jsonl_lines(checkpoint_dir)
            if path.name == "journal.jsonl"
        ]
        assert any(r["event"] == "checkpoint_save" for r in journal)

        # Spans: sweep -> point -> attempt hierarchy, all closed.
        spans = [
            record
            for path, record in _jsonl_lines(telemetry_dir)
            if path.name == "trace.jsonl"
            and record["event"] in ("span_start", "span_end")
        ]
        assert spans
        starts = [r for r in spans if r["event"] == "span_start"]
        names = {r["name"] for r in starts}
        assert {"sweep", "point", "attempt"} <= names
        assert "chaos_test" in names  # the injected episode's span
        started = {r["span_id"] for r in starts}
        ended = {r["span_id"] for r in spans if r["event"] == "span_end"}
        assert started == ended

        # The OpenMetrics textfile was written and passes the format
        # self-check, and carries the run_id.
        prom = (telemetry_dir / "metrics.prom").read_text(encoding="utf-8")
        assert validate_openmetrics(prom) == []
        assert run_id in prom

    def test_resume_journals_under_new_run_id(self, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        task = Task(
            kind=TaskKind.COLLISION_TEST,
            payload={
                "num_stations": STATIONS,
                "duration_us": DURATION_US,
                "warmup_us": WARMUP_US,
                "seed": 5,
                "testbed_kwargs": {},
            },
        )
        first = ExperimentRunner(
            max_workers=1,
            telemetry_dir=tmp_path / "tel1",
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_us=2e5,
        )
        (baseline,) = first.run([task])
        # No cache: the second run recomputes but resumes from the
        # first run's newest snapshot, journaling under its own run_id.
        second = ExperimentRunner(
            max_workers=1,
            telemetry_dir=tmp_path / "tel2",
            checkpoint_dir=checkpoint_dir,
            checkpoint_every_us=2e5,
        )
        (resumed,) = second.run([task])
        assert resumed == baseline  # resume is bit-identical
        assert second.run_id != first.run_id
        journal = [
            record
            for _, record in _jsonl_lines(checkpoint_dir)
        ]
        resumes = [
            r for r in journal if r["event"] == "checkpoint_resume"
        ]
        assert resumes
        assert all(r["run_id"] == second.run_id for r in resumes)
        # The saves were journaled under the first run's id (the
        # second run resumed from the final snapshot, so it had
        # nothing new to save).
        saves = [r for r in journal if r["event"] == "checkpoint_save"]
        assert saves
        assert first.run_id in {r["run_id"] for r in saves}


class TestZeroCostWhenDisabled:
    def test_no_telemetry_no_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        contexts = []
        runner = ExperimentRunner(
            max_workers=1, progress=lambda *_: contexts.append(current())
        )
        task = Task(
            kind=TaskKind.SIMULATE,
            payload={
                "scenario": scenario_to_jsonable(
                    ScenarioConfig.homogeneous(
                        num_stations=2, sim_time_us=0.2e6, seed=1
                    )
                ),
            },
            seed=SeedSpec(root_seed=1, point_index=0, repetition=0),
        )
        (result,) = runner.run([task])
        assert result is not None
        # No span recorded, no context activated, no file written.
        assert not runner.trace.of_kind("span_start")
        assert contexts and set(contexts) == {None}
        assert not list(tmp_path.rglob("*"))

    def test_results_identical_with_and_without_telemetry(self, tmp_path):
        task = Task(
            kind=TaskKind.SIMULATE,
            payload={
                "scenario": scenario_to_jsonable(
                    ScenarioConfig.homogeneous(
                        num_stations=3, sim_time_us=0.5e6, seed=7
                    )
                ),
            },
            seed=SeedSpec(root_seed=7, point_index=0, repetition=0),
        )
        bare = ExperimentRunner(max_workers=1).run([task])
        traced = ExperimentRunner(
            max_workers=1, telemetry_dir=tmp_path / "tel"
        ).run([task])
        assert bare == traced
