"""Local service workers: one lease table with remote hosts, no orphans.

Subprocess tests: ``repro-plc serve`` with local workers, alone or
next to a ``repro-plc work --connect`` host, then the orchestrator
``kill -9``ed while its workers are idle and busy.
"""

import os
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
from repro.service import (
    TaskState,
    build_submission,
    fold_journal,
    write_submission,
)
from repro.service.journal import read_journal
from repro.service.net import SweepClient
from repro.service.orchestrator import ServicePaths

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _tasks(count, sim_time_us):
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
    env.update(extra or {})
    return env


def _cli(args, log_path, extra_env=None):
    with open(log_path, "wb") as log:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.tools.cli"] + args,
            env=_env(extra_env),
            stdout=log,
            stderr=subprocess.STDOUT,
        )


def _wait_for(predicate, what, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


def _events(service_dir, event):
    records, _ = read_journal(ServicePaths(service_dir).journal)
    return [r for r in records if r["event"] == event]


def _exited(pid):
    """True once ``pid`` is gone or a zombie nobody reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


def _finish(proc, log_path, timeout_s=180):
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = "hung"
    assert code == 0, Path(log_path).read_text(errors="replace")[-3000:]


def test_local_and_remote_workers_share_one_lease_table(tmp_path):
    tasks = _tasks(6, sim_time_us=3e7)
    want = ExperimentRunner().run(tasks)
    sdir = tmp_path / "svc"
    serve_log = tmp_path / "serve.log"
    server = _cli(
        [
            "serve", "--service-dir", str(sdir),
            "--http", "127.0.0.1:0", "--workers", "1",
            "--exit-when-idle", "--idle-grace", "2",
        ],
        serve_log,
    )
    worker = None
    try:
        urls = []

        def url_printed():
            for word in serve_log.read_text(errors="replace").split():
                if word.startswith("http://"):
                    urls.append(word)
                    return True
            return server.poll() is not None

        _wait_for(url_printed, "the server URL")
        assert urls, serve_log.read_text(errors="replace")
        work_log = tmp_path / "work.log"
        worker = _cli(
            [
                "work", "--connect", urls[0], "--worker-id", "remote-1",
                "--poll", "0.05", "--exit-when-idle", "--idle-grace", "1",
            ],
            work_log,
        )
        access = ServicePaths(sdir).telemetry / "http_access.jsonl"
        _wait_for(
            lambda: access.is_file() and "/v1/claims" in access.read_text(),
            "the remote worker's first claim",
        )
        assert SweepClient(urls[0]).submit(build_submission(tasks))["new"]
        _finish(worker, work_log)
        worker = None
        _finish(server, serve_log)
    finally:
        for proc in (worker, server):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    state = fold_journal(sdir)
    assert state.counts()[TaskState.COMPLETED] == len(tasks)
    cache = ResultCache(ServicePaths(sdir).cache)
    for task, expected in zip(tasks, want):
        assert cache.get(cache_key(task.describe())) == expected
    workers = {r["worker"] for r in _events(sdir, "lease_granted")}
    assert "remote-1" in workers
    assert any(w.startswith("local-") for w in workers), workers
    # One protocol: no heartbeat files, no outcome envelopes.
    assert not (sdir / "leases").exists()
    assert not (sdir / "outcomes").exists()


SERVE_SNIPPET = (
    "import sys\n"
    "from repro.service import Orchestrator, ServiceConfig\n"
    "config = ServiceConfig(service_dir=sys.argv[1], max_workers=2,\n"
    "                       poll_interval_s=0.01,\n"
    "                       heartbeat_interval_s=float(sys.argv[2]))\n"
    "Orchestrator(config).serve(exit_when_idle=True)\n"
)


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
    reason="needs /proc/<pid>/task/<pid>/children",
)
def test_no_local_worker_outlives_a_killed_orchestrator(tmp_path):
    heartbeat_s = 0.5
    sdir = tmp_path / "svc"
    # One task whose first attempt hangs: one worker busy, one idle.
    write_submission(
        ServicePaths(sdir).inbox,
        build_submission(_tasks(1, sim_time_us=1e5)),
    )
    log_path = tmp_path / "serve.log"
    with open(log_path, "wb") as log:
        orchestrator = subprocess.Popen(
            [sys.executable, "-c", SERVE_SNIPPET, str(sdir), str(heartbeat_s)],
            env=_env(
                {
                    "REPRO_FAULT": "task_hang:times=1,seconds=60",
                    "REPRO_FAULT_DIR": str(tmp_path / "faults"),
                }
            ),
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    pid = orchestrator.pid
    children_file = Path(f"/proc/{pid}/task/{pid}/children")
    children = []
    try:
        _wait_for(
            lambda: _events(sdir, "lease_granted")
            or orchestrator.poll() is not None,
            "a lease",
        )
        assert orchestrator.poll() is None, log_path.read_text()

        def both_workers_up():
            children[:] = [int(c) for c in children_file.read_text().split()]
            return len(children) == 2

        _wait_for(both_workers_up, "two local workers")
    finally:
        orchestrator.kill()
        orchestrator.wait()
    killed = time.monotonic()
    while time.monotonic() - killed < 2 * heartbeat_s:
        if all(_exited(child) for child in children):
            break
        time.sleep(0.02)
    survivors = [child for child in children if not _exited(child)]
    for child in survivors:
        os.kill(child, 9)
    assert not survivors, "local workers outlived their orchestrator"
