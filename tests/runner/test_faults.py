"""The runner's fault-tolerance contract, locked in.

Four recovery paths, each exercised through the deterministic
``task_*`` fault points (:mod:`repro.faults`) and each required to
produce results *bit-identical* to a clean serial run — a retried task
reuses its exact ``SeedSpec``, so recovery must never change the
numbers:

- an ordinary task failure is retried with backoff (``task_raise``);
- a worker killed without cleanup (``task_exit`` → BrokenProcessPool)
  triggers a pool rebuild, or degradation to serial when the rebuild
  budget is exhausted;
- a hung task (``task_hang``) is killed by the per-task timeout and
  retried;
- a task that keeps failing leaves a structured failure record in
  partial mode instead of aborting the sweep.

And no pool worker outlives a runner killed mid-sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.core.config import CsmaConfig, ScenarioConfig
from repro.experiments.sweeps import sweep_configuration
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


def _simulate_task(num_stations=2):
    scenario = ScenarioConfig.homogeneous(
        num_stations=num_stations, sim_time_us=1e5
    )
    return Task(
        kind=TaskKind.SIMULATE,
        payload={"scenario": scenario_to_jsonable(scenario)},
        seed=SeedSpec(root_seed=1),
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
        runner = ExperimentRunner(
            max_workers=4, retries=2, backoff_base_s=0.01
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.retried >= 2
        assert runner.counters.failed == 0
        assert len(list(marker_dir.glob("slot-*"))) == 2
        retried = runner.trace.of_kind("retried")
        assert len(retried) == runner.counters.retried
        assert all(e.error for e in retried)

    def test_serial_path_retries_too(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_raise:times=2")
        runner = ExperimentRunner(
            max_workers=1, retries=1, backoff_base_s=0.01
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.retried == 2

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
    def test_dead_worker_rebuilds_pool(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_exit:times=1")
        runner = ExperimentRunner(
            max_workers=2, retries=2, backoff_base_s=0.01
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.pool_rebuilds >= 1
        assert runner.counters.retried >= 1
        assert runner.counters.failed == 0
        assert runner.trace.of_kind("pool_rebuild")

    def test_exhausted_rebuild_budget_degrades_to_serial(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_exit:times=1")
        runner = ExperimentRunner(
            max_workers=2, retries=2, max_pool_rebuilds=0,
            backoff_base_s=0.01,
        )
        assert _sweep(runner) == clean_serial
        assert runner.counters.degraded_serial == 1
        assert runner.counters.pool_rebuilds == 0
        assert runner.trace.of_kind("degrade_serial")


class TestTimeout:
    def test_hung_task_is_killed_and_retried(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_hang:times=1,seconds=60")
        runner = ExperimentRunner(
            max_workers=2, retries=1, task_timeout_s=2.0,
            backoff_base_s=0.01,
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
    env = dict(os.environ)
    env.pop("REPRO_FAULT", None)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    with open(tmp_path / "cli.log", "wb") as log:
        cli = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli", "sweep",
             "--counts", "30", "40", "--sim-time", "2e7", "--reps", "2",
             "--workers", "2"],
            env=env,
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
            backoff_base_s=0.01,
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
            backoff_base_s=0.01,
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


class TestTelemetry:
    def test_jsonl_trace_records_lifecycle(
        self, monkeypatch, tmp_path, clean_serial
    ):
        _arm(monkeypatch, tmp_path, "task_raise:times=1")
        trace_path = tmp_path / "trace.jsonl"
        runner = ExperimentRunner(
            max_workers=2, retries=1, backoff_base_s=0.01,
            trace_path=trace_path,
        )
        assert _sweep(runner) == clean_serial
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        kinds = [event["event"] for event in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert "retried" in kinds
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
            {"backoff_base_s": -0.1},
            {"on_failure": "explode"},
            {"max_pool_rebuilds": -1},
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
        assert config.backoff_s(1) == config.backoff_base_s
        assert config.backoff_s(100) == config.backoff_max_s


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
