"""Crash-safe sweep resumption through the parallel runner.

The end-to-end robustness story: a worker is killed abruptly
(``os._exit`` — indistinguishable from SIGKILL to the runner) *between*
checkpoints of a long point, the runner replaces the worker and retries
the point, and the retried attempt resumes from the newest valid checkpoint
instead of recomputing from t=0 — with results bit-identical to a
sweep that was never interrupted, for plain and chaos points alike.

The kill is the ``checkpoint_write:seq=<seq>`` fault point: the worker
durably writes checkpoint ``<seq>`` and then dies, so the crash always
leaves a valid newest snapshot behind and fires exactly once per store
(the store directory is the point's one-shot token).
"""

import glob
import os

import pytest

from repro.core.config import ScenarioConfig
from repro.runner.runner import ExperimentRunner
from repro.runner.seeding import SeedSpec
from repro.runner.serialize import scenario_to_jsonable
from repro.runner.tasks import Task, TaskKind

DURATION_US = 2e6
WARMUP_US = 2e6

CHAOS_PLAN = {
    "seed": 42,
    "invariants": "log",
    "sack_loss": {"probability": 0.02},
    "gilbert_elliott": {
        "p_good_to_bad": 0.002,
        "p_bad_to_good": 0.2,
        "error_good": 0.0,
        "error_bad": 0.4,
    },
    "churn": [
        {"time_us": WARMUP_US + 0.4e6, "action": "join"},
        {"time_us": WARMUP_US + 1.3e6, "action": "leave"},
    ],
}


def _collision_tasks(chaos=None):
    tasks = []
    for seed in (3, 4):
        payload = {
            "num_stations": 3,
            "duration_us": DURATION_US,
            "warmup_us": WARMUP_US,
            "seed": seed,
            "testbed_kwargs": {},
        }
        if chaos is not None:
            payload["chaos"] = chaos
        tasks.append(Task(kind=TaskKind.COLLISION_TEST, payload=payload))
    return tasks


def _simulate_tasks():
    scenario = scenario_to_jsonable(
        ScenarioConfig.homogeneous(num_stations=4, sim_time_us=2e6, seed=1)
    )
    return [
        Task(
            kind=TaskKind.SIMULATE,
            payload={"scenario": scenario},
            seed=SeedSpec(root_seed=1, point_index=i, repetition=0),
        )
        for i in range(2)
    ]


def _reference(tasks):
    """The uninterrupted sweep: serial, no checkpointing, no cache."""
    return ExperimentRunner(max_workers=1).run(tasks)


def _run_killed_sweep(tasks, tmp_path, monkeypatch, kill_seq, every_us):
    """Run ``tasks`` on workers that die after checkpoint N."""
    monkeypatch.setenv(
        "REPRO_FAULT", f"checkpoint_write:seq={kill_seq},times={len(tasks)}"
    )
    monkeypatch.setenv("REPRO_FAULT_DIR", str(tmp_path / "faults"))
    runner = ExperimentRunner(
        max_workers=2,
        retries=3,
        checkpoint_dir=tmp_path / "ckpt",
        checkpoint_every_us=every_us,
    )
    results = runner.run(tasks)
    monkeypatch.delenv("REPRO_FAULT")
    return runner, results


def _assert_crash_recovery_worked(runner, tmp_path):
    # The kill fired, the dead worker was replaced, and at least one
    # retried attempt resumed mid-simulation.
    assert runner.counters.pool_rebuilds >= 1
    assert runner.counters.retried >= 1
    assert runner.trace.of_kind("checkpoint_resume")
    assert not runner.failures
    # Every point got its own per-cache-key store with real snapshots.
    stores = glob.glob(str(tmp_path / "ckpt" / "*" / "ckpt-*.ckpt"))
    assert stores


class TestKilledWorkerResumes:
    def test_collision_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        tasks = _collision_tasks()
        expected = _reference(tasks)
        runner, results = _run_killed_sweep(
            tasks, tmp_path, monkeypatch, kill_seq=1, every_us=0.5e6
        )
        assert results == expected
        _assert_crash_recovery_worked(runner, tmp_path)

    def test_chaos_sweep_resumes_bit_identical(self, tmp_path, monkeypatch):
        tasks = _collision_tasks(chaos=CHAOS_PLAN)
        expected = _reference(tasks)
        assert all("chaos" in r for r in expected)
        runner, results = _run_killed_sweep(
            tasks, tmp_path, monkeypatch, kill_seq=1, every_us=0.5e6
        )
        assert results == expected
        _assert_crash_recovery_worked(runner, tmp_path)

    def test_simulate_sweep_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        tasks = _simulate_tasks()
        expected = _reference(tasks)
        runner, results = _run_killed_sweep(
            tasks, tmp_path, monkeypatch, kill_seq=2, every_us=0.25e6
        )
        assert results == expected
        _assert_crash_recovery_worked(runner, tmp_path)


class TestCheckpointedSweepWithoutCrash:
    """Checkpointing on, nothing killed: pure overhead, same numbers."""

    def test_serial_checkpointed_equals_plain(self, tmp_path):
        tasks = _collision_tasks()
        expected = _reference(tasks)
        runner = ExperimentRunner(
            max_workers=1,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every_us=1e6,
        )
        assert runner.run(tasks) == expected
        # Snapshots were taken even though nothing went wrong.
        assert glob.glob(str(tmp_path / "ckpt" / "*" / "ckpt-*.ckpt"))
        # A second run resumes from the final checkpoint (cheap) and
        # still reproduces the sweep exactly.
        rerun = ExperimentRunner(
            max_workers=1,
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert rerun.run(tasks) == expected
        assert rerun.trace.of_kind("checkpoint_resume")

    def test_resume_false_ignores_existing_snapshots(self, tmp_path):
        tasks = _simulate_tasks()[:1]
        expected = _reference(tasks)
        first = ExperimentRunner(
            max_workers=1,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every_us=0.5e6,
        )
        assert first.run(tasks) == expected
        recompute = ExperimentRunner(
            max_workers=1,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every_us=0.5e6,
            resume=False,
        )
        assert recompute.run(tasks) == expected
        assert not recompute.trace.of_kind("checkpoint_resume")

    def test_failure_record_carries_checkpoint_info(self, tmp_path):
        # A point that dies permanently still reports where a re-run
        # would pick it up.
        task = _collision_tasks()[0]
        runner = ExperimentRunner(
            max_workers=1,
            on_failure="partial",
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every_us=1e6,
        )
        bad = Task(
            kind=TaskKind.COLLISION_TEST,
            payload=dict(task.payload, num_stations=0),
        )
        results = runner.run([bad])
        assert results == [None]
        (failure,) = runner.failures
        assert failure.checkpoint is not None
        assert failure.checkpoint["dir"].startswith(str(tmp_path / "ckpt"))
        assert failure.checkpoint["valid_checkpoints"] == 0
        assert "checkpoint" in failure.as_jsonable()
