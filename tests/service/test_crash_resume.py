"""kill -9 the orchestrator at every kill point; resume bit-identically.

These tests run the orchestrator in a subprocess with one of its
fault points armed through ``REPRO_FAULT``, so ``os._exit`` fires at a
deterministic point (after the journal fsync, after a lease grant,
between the cache commit and the completion record).  The parent restarts the
service until it exits clean and asserts the final cache is
bit-identical to an uninterrupted in-process ``ExperimentRunner``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import ScenarioConfig
from repro.faults import POINTS
from repro.runner import ExperimentRunner, SeedSpec, Task, TaskKind
from repro.runner.cache import ResultCache, cache_key
from repro.runner.serialize import scenario_to_jsonable
from repro.service import TaskState, build_submission, fold_journal, write_submission
from repro.service.orchestrator import ServicePaths

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
KILL_EXIT_CODE = 113
KILL_POINTS = [
    name for name, point in POINTS.items() if point.exit_code == KILL_EXIT_CODE
]
SIM_TIME_US = 1e5

SERVE_SNIPPET = (
    "import sys\n"
    "from repro.service import Orchestrator, ServiceConfig\n"
    "config = ServiceConfig(service_dir=sys.argv[1], max_workers=2,\n"
    "                       poll_interval_s=0.01)\n"
    "Orchestrator(config).serve(exit_when_idle=True)\n"
)


def _tasks():
    out = []
    for i, n in enumerate((2, 3)):
        scenario = ScenarioConfig.homogeneous(
            num_stations=n, sim_time_us=SIM_TIME_US, seed=1
        )
        out.append(
            Task(
                kind=TaskKind.SIMULATE,
                payload={"scenario": scenario_to_jsonable(scenario)},
                seed=SeedSpec(root_seed=1, point_index=i, repetition=0),
            )
        )
    return out


def _serve_subprocess(service_dir, extra_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    return subprocess.run(
        [sys.executable, "-c", SERVE_SNIPPET, str(service_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _serve_until_clean(service_dir, extra_env, max_restarts=10):
    """Restart the service after every injected crash; count the kills."""
    kills = 0
    for _ in range(max_restarts):
        proc = _serve_subprocess(service_dir, extra_env)
        if proc.returncode == 0:
            return kills
        assert proc.returncode == KILL_EXIT_CODE, (
            proc.returncode,
            proc.stderr[-2000:],
        )
        kills += 1
    raise AssertionError(f"never exited clean after {max_restarts} serves")


def _assert_bit_identical(service_dir, tasks, baseline):
    state = fold_journal(service_dir)
    assert state.counts()[TaskState.COMPLETED] == len(tasks)
    cache = ResultCache(ServicePaths(service_dir).cache)
    for task, want in zip(tasks, baseline):
        assert cache.get(cache_key(task.describe())) == want


@pytest.fixture(scope="module")
def baseline():
    tasks = _tasks()
    return tasks, ExperimentRunner().run(tasks)


class TestOrchestratorKillPoints:
    @pytest.mark.parametrize("point", KILL_POINTS)
    def test_kill_then_restart_is_bit_identical(
        self, tmp_path, baseline, point
    ):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        write_submission(ServicePaths(sdir).inbox, build_submission(tasks))
        # journal_append fires on every incarnation's very first record
        # (service_start / service_resume), so each armed shot kills one
        # whole incarnation; the other points fire once mid-flight.
        times = 3 if point == "journal_append" else 1
        kills = _serve_until_clean(
            sdir,
            {
                "REPRO_FAULT": f"{point}:times={times}",
                "REPRO_FAULT_DIR": str(tmp_path / "kills"),
            },
        )
        assert kills == times
        _assert_bit_identical(sdir, tasks, want)

    def test_killed_incarnations_leave_verifiable_journal(
        self, tmp_path, baseline
    ):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        write_submission(ServicePaths(sdir).inbox, build_submission(tasks))
        _serve_until_clean(
            sdir,
            {
                "REPRO_FAULT": "result_commit:times=1",
                "REPRO_FAULT_DIR": str(tmp_path / "kills"),
            },
        )
        state = fold_journal(sdir)
        # fsync-before-kill means no torn tail from os._exit.
        assert state.corrupt_records == 0
        # The interrupted result was committed to the cache before the
        # kill, so the resumed incarnation completes it from the cache
        # (or re-runs its twin bit-identically) without a new lease
        # necessarily being granted for it.
        events = [r["event"] for r in _read_events(sdir)]
        assert events.count("service_stop") == 1  # only the clean exit
        assert "service_resume" in events
        _assert_bit_identical(sdir, tasks, want)


def _read_events(service_dir):
    from repro.service.journal import read_journal

    records, _ = read_journal(ServicePaths(service_dir).journal)
    return records


class TestWorkerKill:
    def test_worker_killed_midflight_retries_bit_identical(
        self, tmp_path, baseline
    ):
        """A worker dies hard (``os._exit``); the lease is reclaimed and
        the deterministic retry converges on the baseline result."""
        tasks, want = baseline
        sdir = tmp_path / "svc"
        write_submission(ServicePaths(sdir).inbox, build_submission(tasks))
        proc = _serve_subprocess(
            sdir,
            {
                "REPRO_FAULT": "task_exit:times=1",
                "REPRO_FAULT_DIR": str(tmp_path / "faults"),
            },
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        events = [r["event"] for r in _read_events(sdir)]
        assert "task_failed" in events
        state = fold_journal(sdir)
        failed = [
            t for t in state.tasks.values() if t.attempts > 0
        ]
        assert len(failed) == 1
        assert failed[0].state == TaskState.COMPLETED
        _assert_bit_identical(sdir, tasks, want)

    def test_worker_hang_reaped_by_watchdog(self, tmp_path, baseline):
        """A hung worker overruns the task timeout, is SIGKILLed, and
        the retry completes the sweep."""
        tasks, want = baseline
        sdir = tmp_path / "svc"
        write_submission(ServicePaths(sdir).inbox, build_submission(tasks))
        env = {
            "REPRO_FAULT": "task_hang:times=1,seconds=60",
            "REPRO_FAULT_DIR": str(tmp_path / "faults"),
        }
        snippet = (
            "import sys\n"
            "from repro.service import Orchestrator, ServiceConfig\n"
            "config = ServiceConfig(service_dir=sys.argv[1],\n"
            "                       max_workers=2, poll_interval_s=0.01,\n"
            "                       task_timeout_s=2.0)\n"
            "Orchestrator(config).serve(exit_when_idle=True)\n"
        )
        full_env = dict(os.environ)
        full_env["PYTHONPATH"] = (
            SRC_DIR + os.pathsep + full_env.get("PYTHONPATH", "")
        )
        full_env.update(env)
        proc = subprocess.run(
            [sys.executable, "-c", snippet, str(sdir)],
            env=full_env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        events = [r["event"] for r in _read_events(sdir)]
        assert "task_failed" in events
        _assert_bit_identical(sdir, tasks, want)
