"""End-to-end network fault suite: real server + worker processes.

Each test runs a real sweep through ``repro-plc serve --http`` and
``repro-plc work --connect`` subprocesses while killing one role, then
asserts the final result cache is **bit-identical** to an
uninterrupted in-process :class:`ExperimentRunner`.  A worker's hard
death, a partitioned worker and the server's fault points are cells of
the conformance matrix (``tests/integration/test_conformance.py``).

- **server** — SIGKILLed mid-sweep and restarted; the surviving worker
  polls through the outage and the restarted incarnation re-leases
  from the journal;
- **client** — its submission response is dropped
  (``REPRO_FAULT=net_drop``); the retried POST dedupes idempotently;
- **drain under load** — SIGTERM mid-sweep: in-flight tasks finish,
  new submissions get 503 + Retry-After, the process exits 143, and no
  lease leaks.
"""

import signal
import time

import pytest

from repro.runner import ExperimentRunner
from repro.runner.cache import ResultCache, cache_key
from repro.service import TaskState, build_submission, fold_journal
from repro.service.net import NetRequestError, SweepClient, http_json
from repro.service.orchestrator import ServicePaths
from tests import support


def _assert_bit_identical(service_dir, tasks, baseline):
    state = fold_journal(service_dir)
    assert state.counts()[TaskState.COMPLETED] == len(tasks)
    cache = ResultCache(ServicePaths(service_dir).cache)
    for task, want in zip(tasks, baseline):
        assert cache.get(cache_key(task.describe())) == want


@pytest.fixture(scope="module")
def baseline():
    tasks = support.sim_tasks((2, 3, 4, 2))
    return tasks, ExperimentRunner().run(tasks)


class TestShardedSweep:
    def test_server_killed_and_restarted_converges(
        self, tmp_path, baseline
    ):
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = support.free_port()
        server = support.cli(
            support.serve_args(sdir, port, exit_when_idle=False)
        )
        worker = None
        try:
            client = support.wait_serving(port)
            client.submit(build_submission(tasks))
            worker = support.cli(
                support.work_args(
                    port, "survivor", idle_grace=2.0, give_up_after=60
                )
            )
            # Let the sweep start, then kill the server hard.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(
                    r["event"] == "lease_granted" for r in support.events(sdir)
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
            server = support.cli(
                support.serve_args(sdir, port, idle_grace=8.0)
            )
            code, out = support.finish(worker)
            worker = None
            assert code == 0, out[-3000:]
            code, out = support.finish(server)
            assert code == 0, out[-3000:]
        finally:
            if worker is not None and worker.poll() is None:
                worker.kill()
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)
        events = [r["event"] for r in support.events(sdir)]
        assert "service_resume" in events

class TestNetFaultInjection:
    def test_client_dropped_response_dedupes_on_retry(
        self, tmp_path, baseline, monkeypatch
    ):
        """The lost-ack case: the server accepts the sweep but the
        client never sees the 202; the retried POST converges on the
        same submit hash with zero new tasks."""
        tasks, want = baseline
        sdir = tmp_path / "svc"
        port = support.free_port()
        server = support.cli(support.serve_args(sdir, port, idle_grace=3.0))
        try:
            support.wait_serving(port)
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
            worker = support.cli(support.work_args(port, "w1"))
            code, out = support.finish(worker)
            assert code == 0, out[-3000:]
            code, out = support.finish(server)
            assert code == 0, out[-3000:]
        finally:
            if server.poll() is None:
                server.kill()
        _assert_bit_identical(sdir, tasks, want)
        # Idempotency on the journal: the dropped POST and its retry
        # are both admitted (each is journaled), but they converge on
        # one submit hash and the retry enqueues zero new tasks.
        records = support.events(sdir)
        accepted = [r for r in records if r["event"] == "sweep_accepted"]
        assert {r["submit_id"] for r in accepted} == {verdict["submit_id"]}
        enqueued = [r for r in records if r["event"] == "task_enqueued"]
        assert len(enqueued) == len(tasks)

class TestDrainUnderLoad:
    def test_sigterm_drains_clean_503_and_143(self, tmp_path):
        # Tasks long enough (~19s wall each) that SIGTERM lands while
        # they are genuinely in flight: the drain window (default 10s)
        # expires first, so the workers are terminated and their
        # leases *released* — the observable drain the test needs.
        # (2e6us sims finish in ~20ms — a 5ms drain window no probe
        # can hit.)
        tasks = support.sim_tasks((2, 3), 5e9)
        sdir = tmp_path / "svc"
        port = support.free_port()
        server = support.cli(
            support.serve_args(sdir, port, workers=2, exit_when_idle=False)
        )
        try:
            client = support.wait_serving(port)
            client.submit(build_submission(tasks))
            # Wait for in-flight work, then ask for a clean stop.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(
                    r["event"] == "lease_granted" for r in support.events(sdir)
                ):
                    break
                time.sleep(0.05)
            server.send_signal(signal.SIGTERM)
            # During the drain: new submissions are refused with 503 +
            # Retry-After, not dropped on the floor.
            saw_503, late = False, support.sim_tasks((2,))
            for _ in range(100):
                try:
                    http_json(
                        "POST",
                        f"http://127.0.0.1:{port}/v1/sweeps",
                        body=build_submission(late, label="late"),
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
            code, out = support.finish(server)
        finally:
            if server.poll() is None:
                server.kill()
        # Supervisor convention: SIGTERM drain exits 128 + 15.
        assert code == 143, out[-3000:]
        records = support.events(sdir)
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
