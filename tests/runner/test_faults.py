"""The runner's fault-tolerance contract, locked in.

Four recovery paths, each exercised through the deterministic
``task_*`` fault points (:mod:`repro.faults`) and each required to
produce results *bit-identical* to a clean serial run — a retried task
reuses its exact ``SeedSpec``, so recovery must never change the
numbers (a serial ``task_raise`` and a pool ``task_exit`` are also
cells of ``tests/integration/test_conformance.py``):

- an ordinary task failure is retried at once (``task_raise``);
- a worker killed without cleanup (``task_exit``) is replaced, and
  only the task it held is charged an attempt;
- a hung task (``task_hang``) is killed by the per-task timeout and
  retried, and the tasks running beside it are not touched;
- a task that keeps failing leaves a structured failure record in
  partial mode instead of aborting the sweep.

And no worker outlives a runner killed mid-sweep.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import pytest

from repro import faults
from repro.core.config import CsmaConfig, ScenarioConfig
from repro.experiments.sweeps import sweep_configuration
from repro.runner import runner as runner_module
from repro.runner import (
    ExperimentRunner,
    RunnerConfig,
    RunnerTaskError,
    SeedSpec,
    Task,
    TaskKind,
    require_complete,
    scenario_to_jsonable,
)
from tests.support import env

COUNTS = (2, 3, 5)
SIM_TIME_US = 2e5


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


def _arm(monkeypatch, tmp_path, spec):
    marker_dir = tmp_path / "fault-markers"
    monkeypatch.setenv("REPRO_FAULT", spec)
    monkeypatch.setenv("REPRO_FAULT_DIR", str(marker_dir))
    return marker_dir


def _simulate_task(num_stations=2, sim_time_us=1e5, repetition=0):
    scenario = ScenarioConfig.homogeneous(
        num_stations=num_stations, sim_time_us=sim_time_us
    )
    return Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": scenario_to_jsonable(scenario)},
        seed=SeedSpec(root_seed=1, repetition=repetition),
    )


@pytest.fixture(scope="module")
def clean_serial():
    """The uninjected serial reference every recovery must reproduce."""
    return _sweep(ExperimentRunner(max_workers=1))


class TestCrashRecovery:
    def test_crash_retry_is_bit_identical(
        self, monkeypatch, tmp_path, clean_serial
    ):
        marker_dir = _arm(monkeypatch, tmp_path, "task_raise:times=2")
        runner = ExperimentRunner(max_workers=4, retries=2)
        assert _sweep(runner) == clean_serial
        assert runner.counters.retried >= 2
        assert runner.counters.failed == 0
        assert len(list(marker_dir.glob("slot-*"))) == 2
        retried = runner.trace.of_kind("retried")
        assert len(retried) == runner.counters.retried
        assert all(e.error for e in retried)

    def test_without_retries_the_crash_aborts(self, monkeypatch, tmp_path):
        _arm(monkeypatch, tmp_path, "task_raise:times=1")
        runner = ExperimentRunner(max_workers=1, retries=0)
        with pytest.raises(RunnerTaskError) as excinfo:
            _sweep(runner)
        assert excinfo.value.failures[0].error_type == "InjectedFault"
        # Counter finalization survives the mid-sweep abort.
        assert runner.counters.failed == 1
        assert runner.counters.wall_time_s > 0


class TestBrokenPoolRecovery:
    def test_dead_worker_charges_only_its_own_task(
        self, monkeypatch, tmp_path
    ):
        tasks = [_simulate_task(n) for n in (2, 3, 4, 5, 6, 7, 8, 9)]
        expected = ExperimentRunner(max_workers=1).run(tasks)
        _arm(monkeypatch, tmp_path, "task_exit:times=1")
        runner = ExperimentRunner(
            max_workers=2, retries=0, on_failure="partial"
        )
        results = runner.run(tasks)
        (failure,) = runner.failures
        assert failure.error_type == "WorkerDied"
        assert "exitcode=117" in failure.error
        assert runner.counters.pool_rebuilds == 1
        assert results.count(None) == 1
        assert [
            got for i, got in enumerate(results) if i != failure.task_index
        ] == [
            want for i, want in enumerate(expected)
            if i != failure.task_index
        ]


class TestTimeout:
    def test_hung_task_is_killed_and_retried(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_hang:times=1,seconds=60")
        runner = ExperimentRunner(
            max_workers=2, retries=1, task_timeout_s=2.0,
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.timeouts == 1
        assert runner.counters.failed == 0
        assert runner.trace.of_kind("timeout")

    def test_permanent_hang_records_timed_out_failure(
        self, monkeypatch, tmp_path
    ):
        _arm(monkeypatch, tmp_path, "task_hang:times=1,seconds=60")
        runner = ExperimentRunner(
            max_workers=2, retries=0, task_timeout_s=1.5,
            on_failure="partial",
        )
        results = runner.run([_simulate_task(2), _simulate_task(3)])
        assert results.count(None) == 1
        assert len(runner.failures) == 1
        assert runner.failures[0].timed_out
        assert runner.failures[0].error_type == "TimeoutError"

    def test_overrun_charges_only_its_own_task(self, monkeypatch, tmp_path):
        # One task hangs; the others keep the second worker busy, so a
        # task is running beside the hung one when its worker is killed.
        _arm(monkeypatch, tmp_path, "task_hang:times=1,seconds=60")
        tasks = [
            _simulate_task(5, sim_time_us=3e7, repetition=rep)
            for rep in range(10)
        ]
        runner = ExperimentRunner(
            max_workers=2, retries=0, task_timeout_s=2.0,
            on_failure="partial",
        )
        results = runner.run(tasks)
        (failure,) = runner.failures
        assert failure.timed_out
        assert runner.counters.timeouts == 1
        assert results.count(None) == 1

    def test_lone_task_timeout_is_enforced(self, monkeypatch, tmp_path):
        # A single uncached task with a timeout still runs on a worker:
        # in-process, nothing could stop the hang.
        _arm(monkeypatch, tmp_path, "task_hang:times=1,seconds=6")
        runner = ExperimentRunner(
            max_workers=2, retries=0, task_timeout_s=1.0,
            on_failure="partial",
        )
        started = time.monotonic()
        assert runner.run([_simulate_task(2)]) == [None]
        assert time.monotonic() - started < 5.0
        assert runner.counters.timeouts == 1
        assert runner.failures[0].timed_out


class TestStoppedWorkers:
    def test_stopped_busy_workers_are_not_judged_silent(
        self, monkeypatch, tmp_path
    ):
        # ^Z on a sweep stops its workers too; once resumed, a worker
        # that sent no heartbeat while stopped is still working.  Any
        # silence TTL the runner judges is cut to 1.5 s (above the 1 s
        # heartbeat), and the busy workers are stopped for 3 s.
        plane_class, planes = runner_module.WorkerPlane, []

        def short_ttl_plane(*args, **kwargs):
            if kwargs["ttl_s"] is not None:
                kwargs["ttl_s"] = 1.5
            planes.append(plane_class(*args, **kwargs))
            return planes[-1]

        tasks = [_simulate_task(2), _simulate_task(3)]
        expected = ExperimentRunner(max_workers=1).run(tasks)
        marker_dir = _arm(
            monkeypatch, tmp_path, "task_hang:times=2,seconds=5"
        )
        monkeypatch.setattr(runner_module, "WorkerPlane", short_ttl_plane)

        frozen = []

        def freeze():
            deadline = time.monotonic() + 30
            # Both slots claimed: both workers are inside their hang.
            while len(list(marker_dir.glob("slot-*"))) < 2:
                if time.monotonic() > deadline:
                    return
                time.sleep(0.02)
            frozen.extend(w.proc.pid for w in planes[0].workers.values())
            for pid in frozen:
                os.kill(pid, signal.SIGSTOP)
            time.sleep(3.0)
            for pid in frozen:
                os.kill(pid, signal.SIGCONT)

        freezer = threading.Thread(target=freeze)
        freezer.start()
        runner = ExperimentRunner(max_workers=2, retries=0)
        try:
            results = runner.run(tasks)
        finally:
            freezer.join(timeout=30)
        assert not freezer.is_alive()
        assert len(frozen) == 2
        assert results == expected
        assert runner.counters.pool_rebuilds == 0
        assert runner.counters.retried == runner.counters.failed == 0


def _exited(pid):
    """True once ``pid`` is gone or a zombie nobody reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<pid>/children",
)
def test_pool_workers_exit_with_a_killed_runner(tmp_path):
    with open(tmp_path / "cli.log", "wb") as log:
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "sweep",
             "--counts", "30", "40", "--sim-time", "2e7", "--reps", "2",
             "--workers", "2"],
            env=env(),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    children_file = Path(f"/proc/{cli.pid}/task/{cli.pid}/children")
    children = []
    try:
        deadline = time.monotonic() + 60
        while len(children) < 2:
            assert cli.poll() is None, (tmp_path / "cli.log").read_text()
            assert time.monotonic() < deadline, "no pool workers started"
            children = [int(c) for c in children_file.read_text().split()]
            time.sleep(0.02)
        cli.kill()
        cli.wait()
        deadline = time.monotonic() + 2.0
        while not all(_exited(pid) for pid in children):
            assert time.monotonic() < deadline, "pool workers outlived the runner"
            time.sleep(0.02)
    finally:
        if cli.poll() is None:
            cli.kill()
            cli.wait()
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


class TestPartialResults:
    BAD = Task(kind="no-such-kind", payload={})

    def test_partial_mode_returns_survivors_and_failure_records(self):
        runner = ExperimentRunner(
            max_workers=1, retries=1, on_failure="partial",
        )
        results = runner.run([_simulate_task(), self.BAD])
        assert results[0] is not None and results[1] is None
        failure = runner.failures[0]
        assert failure.task_index == 1
        assert failure.attempts == 2  # first try + one retry
        assert failure.error_type == "ValueError"
        assert runner.counters.failed == 1
        assert runner.counters.executed == 1
        with pytest.raises(RunnerTaskError):
            require_complete(results, runner.failures)

    def test_partial_mode_in_pool(self):
        runner = ExperimentRunner(
            max_workers=2, retries=1, on_failure="partial",
        )
        results = runner.run(
            [_simulate_task(2), self.BAD, _simulate_task(3)]
        )
        assert [entry is not None for entry in results] == [
            True, False, True,
        ]
        assert runner.counters.failed == 1

    def test_raise_mode_keeps_counters_truthful(self):
        runner = ExperimentRunner(max_workers=1, retries=0)
        with pytest.raises(RunnerTaskError):
            runner.run([self.BAD, _simulate_task()])
        assert runner.counters.failed == 1
        assert runner.counters.executed == 0
        assert runner.counters.wall_time_s > 0


class TestFailureCause:
    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_error_chains_where_the_task_failed(self, max_workers):
        runner = ExperimentRunner(max_workers=max_workers, retries=0)
        bad = TestPartialResults.BAD
        with pytest.raises(RunnerTaskError) as excinfo:
            runner.run([bad, _simulate_task()])
        cause = excinfo.value.__cause__
        assert cause is not None
        if max_workers == 1:
            # The task's own exception, with its frames.
            assert isinstance(cause, ValueError)
            text = "".join(traceback.format_exception(cause))
        else:
            # The worker's traceback text.
            text = str(cause)
        assert "Traceback (most recent call last)" in text
        assert "in execute_task" in text
        assert "ValueError: unknown task kind 'no-such-kind'" in text


class TestTelemetry:
    def test_jsonl_trace_records_lifecycle(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_raise:times=1")
        trace_path = tmp_path / "trace.jsonl"
        runner = ExperimentRunner(
            max_workers=2, retries=1, trace_path=trace_path,
        )
        assert _sweep(runner) == clean_serial
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        kinds = [
            event["event"]
            for event in events
            if event["event"] not in ("span_start", "span_end")
        ]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "retried" in kinds
        # A trace file alone carries the run's spans: the sweep span
        # encloses the run's lifecycle events.
        assert (events[0]["event"], events[0]["name"]) == (
            "span_start", "sweep"
        )
        assert (events[-1]["event"], events[-1]["name"]) == (
            "span_end", "sweep"
        )
        finished = [e for e in events if e["event"] == "finished"]
        assert len(finished) == runner.counters.executed
        assert all("worker_pid" in e and "t_s" in e for e in finished)
        # Queued + finished + failure accounting covers every point.
        queued = [e for e in events if e["event"] == "queued"]
        assert len(queued) == runner.counters.points_total

    def test_trace_appends_across_runs(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        runner = ExperimentRunner(max_workers=1, trace_path=trace_path)
        runner.run([_simulate_task(2)])
        first = len(trace_path.read_text().splitlines())
        runner.run([_simulate_task(3)])
        assert len(trace_path.read_text().splitlines()) > first


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": -1},
            {"retries": -1},
            {"task_timeout_s": 0.0},
            {"task_timeout_s": -5.0},
            {"checkpoint_every_us": 0.0, "checkpoint_dir": "ckpt"},
            {"on_failure": "explode"},
            {"checkpoint_every_us": 1e6},  # no checkpoint_dir
        ],
    )
    def test_bad_config_fails_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            RunnerConfig(**kwargs)
        with pytest.raises(ValueError):
            ExperimentRunner(**kwargs)

    def test_good_config_constructs(self):
        config = RunnerConfig(
            max_workers=0, retries=3, task_timeout_s=10.0,
            on_failure="partial",
        )
        assert config.resolved_workers() >= 1


class TestFaultPlanParsing:
    def test_parse_modes_and_options(self):
        assert faults.parse("task_raise") == {"task_raise": {"times": 1}}
        assert faults.parse("task_exit:times=3") == {
            "task_exit": {"times": 3}
        }
        assert faults.parse("task_hang:seconds=1.5,times=2") == {
            "task_hang": {"seconds": 1.5, "times": 2}
        }

    @pytest.mark.parametrize(
        "spec",
        [
            "boom",
            pytest.param("task_raise:times=0", id="raise:times=0"),
            pytest.param("task_hang:seconds=0", id="hang:seconds=0"),
            pytest.param("task_raise:nope=1", id="raise:nope=1"),
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            faults.parse(spec)

    def test_no_marker_dir_disables_injection(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "task_raise")
        monkeypatch.delenv("REPRO_FAULT_DIR", raising=False)
        with pytest.raises(ValueError, match="REPRO_FAULT_DIR"):
            faults.fire(*faults.TASK_POINTS)

    def test_injection_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULT", raising=False)
        assert faults.fire(*faults.TASK_POINTS) == (None, {})
