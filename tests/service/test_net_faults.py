"""End-to-end network fault suite: real server + worker processes.

Each test runs a real sweep through ``repro-plc serve --http`` and
``repro-plc work --connect`` subprocesses while killing or partitioning
one role, then asserts the final result cache is **bit-identical** to
an uninterrupted in-process :class:`ExperimentRunner` — the same
convergence bar the PR 9 crash suite sets for local kill points.

Covered roles (ISSUE acceptance: each of {server, worker, client}
killed/partitioned once):

- **server** — SIGKILLed mid-sweep and restarted; the surviving worker
  polls through the outage and the restarted incarnation re-leases
  from the journal;
- **worker** — dies hard (``REPRO_FAULT=task_exit``) mid-task; the
  watchdog classifies the silent host dead and reclaims the shard
  *without consuming a retry attempt*;
- **client** — its submission response is dropped
  (``REPRO_FAULT=net_drop``); the retried POST dedupes idempotently;
- **drain under load** — SIGTERM mid-sweep: in-flight tasks finish,
  new submissions get 503 + Retry-After, the process exits 143, and no
  lease leaks.
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
from repro.core.config import ScenarioConfig
from repro.runner import ExperimentRunner, SeedSpec, Task, TaskKind
from repro.runner.cache import ResultCache, cache_key
from repro.runner.serialize import scenario_to_jsonable
from repro.service import TaskState, build_submission, fold_journal
from repro.service.journal import read_journal
from repro.service.net import NetRequestError, SweepClient, http_json
from repro.service.orchestrator import ServicePaths

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
SIM_TIME_US = 1e5


def _tasks(count=4, sim_time_us=SIM_TIME_US):
    out = []
    for i in range(count):
        scenario = ScenarioConfig.homogeneous(
            num_stations=(i % 3) + 2, sim_time_us=sim_time_us, seed=1
        )
        out.append(
            Task(
                kind=TaskKind.SIMULATE,
                payload={"scenario": scenario_to_jsonable(scenario)},
                seed=SeedSpec(root_seed=1, point_index=i, repetition=0),
            )
        )
    return out


def _env(extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT", None)
    env.pop("REPRO_FAULT_DIR", None)
    env.update(extra or {})
    return env


def _free_port():
    import socket

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _spawn(args, extra_env=None):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.tools.cli"] + args,
        env=_env(extra_env),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _serve_args(sdir, port, **kw):
    args = [
        "serve",
        "--service-dir", str(sdir),
        "--http", f"127.0.0.1:{port}",
        "--workers", str(kw.get("workers", 0)),
        "--lease-ttl", str(kw.get("lease_ttl", 2.0)),
    ]
    if kw.get("exit_when_idle", True):
        args += ["--exit-when-idle", "--idle-grace",
                 str(kw.get("idle_grace", 2.0))]
    return args


def _work_args(port, worker_id, **kw):
    args = [
        "work",
        "--connect", f"http://127.0.0.1:{port}",
        "--worker-id", worker_id,
        "--poll", "0.05",
    ]
    if kw.get("exit_when_idle", True):
        args += ["--exit-when-idle", "--idle-grace",
                 str(kw.get("idle_grace", 1.0))]
    if kw.get("give_up_after"):
        args += ["--give-up-after", str(kw["give_up_after"])]
    return args


def _wait_serving(port, timeout_s=30.0):
    # A liveness probe hammers a not-yet-bound port, so give the
    # breaker a tiny cooldown — its production default (5s) would
    # outlast the idle-grace of short-lived test servers.
    client = SweepClient(
        f"http://127.0.0.1:{port}",
        retries=0,
        timeout_s=2.0,
        breaker_cooldown_s=0.05,
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if client.service_status().get("serving"):
                return client
        except Exception:
            time.sleep(0.1)
    raise AssertionError(f"server on :{port} never came up")


def _finish(proc, timeout=180, name="process"):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        raise AssertionError(f"{name} hung; output:\n{out[-3000:]}")
    return proc.returncode, out


def _assert_bit_identical(service_dir, tasks, baseline):
    state = fold_journal(service_dir)
    assert state.counts()[TaskState.COMPLETED] == len(tasks)
    cache = ResultCache(ServicePaths(service_dir).cache)
    for task, want in zip(tasks, baseline):
        assert cache.get(cache_key(task.describe())) == want


def _events(service_dir):
    records, _ = read_journal(ServicePaths(service_dir).journal)
    return records


@pytest.fixture(scope="module")
def baseline():
    tasks = _tasks()
    return tasks, ExperimentRunner().run(tasks)


class TestShardedSweep:
    def test_two_workers_shard_bit_identical(self, tmp_path, baseline):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = _free_port()
        server = _spawn(_serve_args(sdir, port, idle_grace=3.0))
        try:
            client = _wait_serving(port)
            verdict = client.submit(build_submission(tasks))
            assert verdict["accepted"]
            workers = [
                _spawn(_work_args(port, f"shard-{i}")) for i in (1, 2)
            ]
            for proc in workers:
                code, out = _finish(proc)
                assert code == 0, out[-3000:]
            code, out = _finish(server)
            assert code == 0, out[-3000:]
        finally:
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)
        granted = [
            r for r in _events(sdir) if r["event"] == "lease_granted"
        ]
        assert granted and all(
            r["worker"].startswith("shard-") for r in granted
        )

    def test_server_killed_and_restarted_converges(
        self, tmp_path, baseline
    ):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = _free_port()
        server = _spawn(_serve_args(sdir, port, exit_when_idle=False))
        worker = None
        try:
            client = _wait_serving(port)
            client.submit(build_submission(tasks))
            worker = _spawn(
                _work_args(
                    port, "survivor", idle_grace=2.0, give_up_after=60
                )
            )
            # Let the sweep start, then kill the server hard.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(
                    r["event"] == "lease_granted" for r in _events(sdir)
                ):
                    break
                time.sleep(0.05)
            server.kill()
            server.wait(timeout=30)
            # Restart on the same port + service dir; the journal
            # re-derives the queue, the worker reconnects and finishes.
            # The idle grace must outlast the worker's open breaker
            # (5s cooldown after the kill window) or the restarted
            # server can idle-exit before the worker's half-open probe
            # ever reaches it — stranding the worker on a dead port.
            # --give-up-after is the backstop for that stranding.
            server = _spawn(_serve_args(sdir, port, idle_grace=8.0))
            code, out = _finish(worker)
            worker = None
            assert code == 0, out[-3000:]
            code, out = _finish(server)
            assert code == 0, out[-3000:]
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)
        events = [r["event"] for r in _events(sdir)]
        assert "service_resume" in events

    def test_worker_killed_reclaim_consumes_no_attempt(
        self, tmp_path, baseline
    ):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = _free_port()
        server = _spawn(
            _serve_args(sdir, port, lease_ttl=1.5, idle_grace=4.0)
        )
        doomed = survivor = None
        try:
            client = _wait_serving(port)
            client.submit(build_submission(tasks))
            # This worker dies hard (os._exit) inside its first task:
            # no fail POST, no heartbeat — just silence.
            doomed = _spawn(
                _work_args(port, "doomed", exit_when_idle=False),
                extra_env={
                    "REPRO_FAULT": "task_exit:times=1",
                    "REPRO_FAULT_DIR": str(tmp_path / "faults"),
                },
            )
            doomed.wait(timeout=120)
            assert doomed.returncode != 0
            survivor = _spawn(
                _work_args(port, "survivor", idle_grace=2.0)
            )
            code, out = _finish(survivor)
            survivor = None
            assert code == 0, out[-3000:]
            code, out = _finish(server)
            assert code == 0, out[-3000:]
        finally:
            for proc in (doomed, survivor):
                if proc is not None and proc.poll() is None:
                    proc.kill()
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)
        records = _events(sdir)
        reclaims = [
            r for r in records if r["event"] == "lease_reclaimed"
        ]
        assert any(
            "watchdog: remote" in (r.get("reason") or "")
            for r in reclaims
        )
        # Reclaim is not evidence against the task: the silent death
        # consumed no retry attempt, so no task_failed was journaled.
        assert not any(r["event"] == "task_failed" for r in records)
        state = fold_journal(sdir)
        assert all(t.attempts == 0 for t in state.tasks.values())


class TestNetFaultInjection:
    def test_client_dropped_response_dedupes_on_retry(
        self, tmp_path, baseline, monkeypatch
    ):
        """The lost-ack case: the server accepts the sweep but the
        client never sees the 202; the retried POST converges on the
        same submit hash with zero new tasks."""
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = _free_port()
        server = _spawn(_serve_args(sdir, port, idle_grace=3.0))
        try:
            _wait_serving(port)
            # A retrying client (the probe client above deliberately
            # has retries=0) — the drop must be absorbed by a retry.
            client = SweepClient(
                f"http://127.0.0.1:{port}", retries=2, timeout_s=10.0
            )
            # Arm the drop only now, so the liveness probe above does
            # not consume the single fault slot: the next client-role
            # request — the submission POST — loses its response.
            monkeypatch.setenv(
                "REPRO_FAULT", "net_drop:times=1,role=client"
            )
            monkeypatch.setenv(
                "REPRO_FAULT_DIR", str(tmp_path / "net-faults")
            )
            verdict = client.submit(build_submission(tasks))
            # The client-side retry absorbed the drop invisibly.
            assert verdict["accepted"]
            assert verdict["new"] == 0 and verdict["deduped"] == len(tasks)
            worker = _spawn(_work_args(port, "w1"))
            code, out = _finish(worker)
            assert code == 0, out[-3000:]
            code, out = _finish(server)
            assert code == 0, out[-3000:]
        finally:
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)
        # Idempotency on the journal: the dropped POST and its retry
        # are both admitted (each is journaled), but they converge on
        # one submit hash and the retry enqueues zero new tasks.
        records = _events(sdir)
        accepted = [r for r in records if r["event"] == "sweep_accepted"]
        assert {r["submit_id"] for r in accepted} == {verdict["submit_id"]}
        enqueued = [r for r in records if r["event"] == "task_enqueued"]
        assert len(enqueued) == len(tasks)

    def test_partitioned_worker_converges(self, tmp_path, baseline):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = _free_port()
        server = _spawn(
            _serve_args(sdir, port, lease_ttl=2.0, idle_grace=3.0)
        )
        try:
            client = _wait_serving(port)
            client.submit(build_submission(tasks))
            worker = _spawn(
                _work_args(port, "flaky", idle_grace=2.0),
                extra_env={
                    "REPRO_FAULT": "net_partition:times=2,role=worker",
                    "REPRO_FAULT_DIR": str(tmp_path / "net-faults"),
                },
            )
            code, out = _finish(worker)
            assert code == 0, out[-3000:]
            code, out = _finish(server)
            assert code == 0, out[-3000:]
        finally:
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)


class TestDrainUnderLoad:
    def test_sigterm_drains_clean_503_and_143(self, tmp_path):
        # Tasks long enough (~19s wall each) that SIGTERM lands while
        # they are genuinely in flight: the drain window (default 10s)
        # expires first, so the workers are terminated and their
        # leases *released* — the observable drain the test needs.
        # (2e6us sims finish in ~20ms — a 5ms drain window no probe
        # can hit.)
        tasks = _tasks(count=2, sim_time_us=5e9)
        sdir = tmp_path / "svc"
        port = _free_port()
        server = _spawn(
            _serve_args(sdir, port, workers=2, exit_when_idle=False)
        )
        try:
            client = _wait_serving(port)
            client.submit(build_submission(tasks))
            # Wait for in-flight work, then ask for a clean stop.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(
                    r["event"] == "lease_granted" for r in _events(sdir)
                ):
                    break
                time.sleep(0.05)
            server.send_signal(signal.SIGTERM)
            # During the drain: new submissions are refused with 503 +
            # Retry-After, not dropped on the floor.
            saw_503 = False
            for _ in range(100):
                try:
                    http_json(
                        "POST",
                        f"http://127.0.0.1:{port}/v1/sweeps",
                        body=build_submission(_tasks(1), label="late"),
                        timeout_s=5.0,
                    )
                except NetRequestError as exc:
                    if exc.status == 503:
                        assert exc.retry_after_s is not None
                        saw_503 = True
                        break
                    # status None is either connection-refused (drain
                    # already finished — the server is gone) or a
                    # starved-box timeout (keep probing).
                    if exc.status is None and server.poll() is not None:
                        break
                time.sleep(0.05)
            code, out = _finish(server)
        finally:
            if server.poll() is None:
                server.kill()
        # Supervisor convention: SIGTERM drain exits 128 + 15.
        assert code == 143, out[-3000:]
        records = _events(sdir)
        events = [r["event"] for r in records]
        assert "drain_start" in events
        assert events[-1] == "service_stop"
        # No leaked leases: every grant reached a terminal record, and
        # the fold shows nothing still leased.
        state = fold_journal(sdir)
        assert state.counts()[TaskState.LEASED] == 0
        # In-flight work finished during the drain window.
        granted = {
            r["task_id"] for r in records if r["event"] == "lease_granted"
        }
        completed = {
            r["task_id"] for r in records if r["event"] == "task_completed"
        }
        released = {
            r["task_id"]
            for r in records
            if r["event"] in ("lease_released", "lease_reclaimed")
        }
        assert granted <= (completed | released)
        assert saw_503 or not granted  # the drain window was observable
