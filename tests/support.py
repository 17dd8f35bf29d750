"""Shared by the service tests: small sweeps, and the subprocess
plumbing (the CLI, ports, readiness, exits, journal records)."""

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.core.config import ScenarioConfig
from repro.runner import SeedSpec, Task, TaskKind
from repro.runner.serialize import scenario_to_jsonable
from repro.service.journal import read_journal
from repro.service.net import SweepClient
from repro.service.orchestrator import ServicePaths

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def sim_tasks(counts, sim_time_us=1e5):
    """One ``simulate`` task per station count; point ``i`` is seeded
    ``(1, i, 0)``."""
    return [
        Task(
            kind=TaskKind.SIMULATE,
            payload={
                "scenario": scenario_to_jsonable(
                    ScenarioConfig.homogeneous(
                        num_stations=n, sim_time_us=sim_time_us, seed=1
                    )
                )
            },
            seed=SeedSpec(root_seed=1, point_index=i, repetition=0),
        )
        for i, n in enumerate(counts)
    ]


def env(extra=None):
    """This environment with ``repro`` importable and no fault armed."""
    out = dict(os.environ)
    out["PYTHONPATH"] = SRC_DIR + os.pathsep + out.get("PYTHONPATH", "")
    out.pop("REPRO_FAULT", None)
    out.pop("REPRO_FAULT_DIR", None)
    out.update(extra or {})
    return out


def cli(args, extra_env=None, log_path=None):
    """Start ``repro-plc ARGS``; output goes to ``log_path`` or a pipe."""
    command = [sys.executable, "-m", "repro.tools.cli", *map(str, args)]
    if log_path is None:
        return subprocess.Popen(
            command,
            env=env(extra_env),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
    with open(log_path, "wb") as log:
        return subprocess.Popen(
            command, env=env(extra_env), stdout=log, stderr=subprocess.STDOUT
        )


def serve_args(
    sdir, port, workers=0, lease_ttl=2.0, exit_when_idle=True, idle_grace=2.0
):
    """``serve --http`` on ``port``, by default a front end only."""
    args = ["serve", "--service-dir", sdir, "--http", f"127.0.0.1:{port}",
            "--workers", workers, "--lease-ttl", lease_ttl]
    if exit_when_idle:
        args += ["--exit-when-idle", "--idle-grace", idle_grace]
    return args


def work_args(
    port, worker_id, exit_when_idle=True, idle_grace=1.0, give_up_after=None
):
    """``work --connect`` to ``port``, claims held for 0.05 s."""
    args = ["work", "--connect", f"http://127.0.0.1:{port}",
            "--worker-id", worker_id, "--poll", "0.05"]
    if exit_when_idle:
        args += ["--exit-when-idle", "--idle-grace", idle_grace]
    if give_up_after:
        args += ["--give-up-after", give_up_after]
    return args


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def wait_serving(port, server=None, timeout_s=30.0):
    """A client once the server on ``port`` serves; ``None`` if
    ``server`` (a process) exits first."""
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
        if server is not None and server.poll() is not None:
            return None
        try:
            if client.service_status().get("serving"):
                return client
        except Exception:
            time.sleep(0.1)
    raise AssertionError(f"server on :{port} never came up")


def wait_for(predicate, what, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.02)


def finish(proc, timeout=180, name="process"):
    """``(exit code, output)``; a process still running is killed."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        raise AssertionError(f"{name} hung; output:\n{(out or '')[-3000:]}")
    return proc.returncode, out or ""


def events(service_dir, event=None):
    """The journal's records, or those of one ``event``."""
    records, _ = read_journal(ServicePaths(service_dir).journal)
    return [r for r in records if event is None or r["event"] == event]
