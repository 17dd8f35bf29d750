"""Sweep-client fault tolerance: breakers, retries, graceful degradation.

The headline robustness property (ISSUE acceptance): with every host
unreachable, :meth:`SweepClient.run_sweep` must not raise — it degrades
to a local runner with a structured ``degraded_local`` trace event and
bit-identical results.
"""

import threading
import time
import types

import pytest

from repro.core.config import ScenarioConfig
from repro.runner import ExperimentRunner, FullJitterBackoff, SeedSpec, Task, TaskKind
from repro.runner.serialize import scenario_to_jsonable
from repro.service import Orchestrator, ServiceConfig
from repro.service.net import (
    AllHostsUnreachable,
    CircuitBreaker,
    SweepClient,
    serve_http,
)
from repro.runner import workers as worker_module
from repro.runner.workers import PipeClient
from repro.service.net import client as client_module
from repro.service.net.worker import work_loop
from repro.service.submit import build_submission

SIM_TIME_US = 1e5


def _tasks(count=2):
    out = []
    for i in range(count):
        scenario = ScenarioConfig.homogeneous(
            num_stations=i + 2, sim_time_us=SIM_TIME_US, seed=1
        )
        out.append(
            Task(
                kind=TaskKind.SIMULATE,
                payload={"scenario": scenario_to_jsonable(scenario)},
                seed=SeedSpec(root_seed=1, point_index=i, repetition=0),
            )
        )
    return out


def _fast_client(hosts, **kwargs):
    kwargs.setdefault("timeout_s", 2.0)
    kwargs.setdefault("retries", 1)
    kwargs.setdefault(
        "backoff", FullJitterBackoff(base_s=0.01, max_s=0.02, seed=1)
    )
    return SweepClient(hosts, **kwargs)


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=3, cooldown_s=5.0, clock=lambda: clock[0])
        for _ in range(2):
            b.record_failure()
        assert b.state == "closed" and b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()

    def test_half_open_probe_after_cooldown(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=lambda: clock[0])
        b.record_failure()
        assert not b.allow()
        clock[0] = 5.1
        assert b.allow()  # the single half-open probe
        assert b.state == "half-open"
        assert not b.allow()  # only one probe at a time
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_failed_probe_reopens(self):
        clock = [0.0]
        b = CircuitBreaker(threshold=1, cooldown_s=5.0, clock=lambda: clock[0])
        b.record_failure()
        clock[0] = 6.0
        assert b.allow()
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        clock[0] = 10.0
        assert not b.allow()  # cooldown restarts from the reopen
        clock[0] = 11.1
        assert b.allow()

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(threshold=3)
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"


class TestRequestLoop:
    def test_unreachable_hosts_raise_all_hosts_unreachable(self):
        client = _fast_client(
            ["http://127.0.0.1:9", "http://127.0.0.1:10"]
        )
        with pytest.raises(AllHostsUnreachable):
            client._request("GET", "/v1/status")
        assert client.breakers["http://127.0.0.1:9"]._failures >= 1

    def test_failover_to_healthy_host(self, tmp_path):
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / "svc", max_workers=0)
        )
        with serve_http(orch, ":0") as server:
            client = _fast_client(["http://127.0.0.1:9", server.url])
            doc = client.service_status()
            assert doc["serving"] is True
            # The answering host becomes sticky-preferred.
            assert client._preferred == server.url
        orch.journal.close()

    def test_open_breaker_skips_dead_host(self, tmp_path):
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / "svc", max_workers=0)
        )
        with serve_http(orch, ":0") as server:
            client = _fast_client(
                ["http://127.0.0.1:9", server.url], breaker_threshold=1
            )
            client.service_status()
            assert not client.breakers["http://127.0.0.1:9"].allow()
            # Subsequent requests never touch the dead host again
            # (inside the cooldown) and still succeed.
            assert client.service_status()["serving"] is True
        orch.journal.close()


class TestGracefulDegradation:
    def test_run_sweep_degrades_local_without_raising(self, tmp_path):
        tasks = _tasks()
        want = ExperimentRunner().run(tasks)
        runner = ExperimentRunner(cache_dir=tmp_path / "cache")
        client = _fast_client(["http://127.0.0.1:9"], retries=0)
        out = client.run_sweep(tasks, local_runner=runner)
        assert out["source"] == "degraded_local"
        assert "unreachable" in out["reason"]
        assert out["results"] == want
        # Truthful accounting: the counter and a structured trace event.
        assert runner.counters.degraded_local == 1
        events = runner.trace.of_kind("degraded_local")
        assert len(events) == 1
        assert "unreachable" in events[0].detail

    def test_run_sweep_remote_when_service_up(self, tmp_path):
        tasks = _tasks()
        want = ExperimentRunner().run(tasks)
        orch = Orchestrator(
            ServiceConfig(
                service_dir=tmp_path / "svc",
                max_workers=0,
                poll_interval_s=0.01,
                idle_grace_s=1.0,
            )
        )
        with serve_http(orch, ":0") as server:
            serve_thread = threading.Thread(
                target=orch.serve,
                kwargs={"exit_when_idle": True},
                daemon=True,
            )
            serve_thread.start()
            worker = threading.Thread(
                target=work_loop,
                args=(server.url,),
                kwargs={"poll_s": 0.02, "max_tasks": len(tasks)},
                daemon=True,
            )
            worker.start()
            client = _fast_client([server.url])
            out = client.run_sweep(tasks, timeout_s=120)
            worker.join(timeout=60)
            serve_thread.join(timeout=60)
        assert out["source"] == "remote"
        assert out["results"] == want


class _FakeClock:
    """Virtual time for :func:`work_loop`: sleeps advance it and are
    recorded."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    perf_counter = monotonic

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class _ScriptedClient:
    """Answers claims from a script of ``(answer, held)``: a held answer
    comes when its hold ends, like a server that holds; the rest come
    back at once, like one that does not."""

    def __init__(self, clock, script):
        self.clock = clock
        self.script = list(script)
        self.holds = []

    def claim(self, worker_id, wait_s=0.0):
        self.holds.append(wait_s)
        answer, held = self.script.pop(0)
        if held:
            self.clock.now += wait_s
        return answer

    def heartbeat(self, task_id, worker_id):
        return True

    def commit(self, task_id, worker_id, **fields):
        return "committed"

    def fail(self, task_id, worker_id, **fields):
        return "failed"


class TestHeldClaims:
    def test_work_loop_holds_only_claims_after_an_idle_answer(
        self, monkeypatch
    ):
        clock = _FakeClock()
        monkeypatch.setattr(
            worker_module,
            "time",
            types.SimpleNamespace(
                monotonic=clock.monotonic,
                perf_counter=clock.perf_counter,
                sleep=clock.sleep,
            ),
        )
        monkeypatch.setattr(
            worker_module, "task_from_description", lambda d, runtime=None: d
        )
        monkeypatch.setattr(
            worker_module, "run_task", lambda task: {"result": {"x": 1}}
        )
        shard = {"task_id": "t1", "task": {}, "heartbeat_interval_s": 60}
        busy, idle = (None, False), (None, True)
        client = _ScriptedClient(
            clock,
            [
                (busy, False),  # first claim: unheld
                (busy, False),  # a server that does not hold: sleep the rest
                (busy, True),  # a held answer: no sleep on top
                ((shard, False), False),
                (idle, False),  # first claim after a shard: unheld
                (idle, True),
                (idle, True),  # idle for the whole grace: exit
            ],
        )
        stats = work_loop(
            (),
            worker_id="w",
            poll_s=0.5,
            exit_when_idle=True,
            idle_grace_s=1.0,
            client=client,
        )
        assert stats["completed"] == 1
        assert client.holds == [0.0, 0.5, 0.5, 0.5, 0.0, 0.5, 0.5]
        assert clock.sleeps == [0.5]

    def test_pipe_client_waits_then_asks(self):
        asked = []

        class _Conn:
            def send(self, message):
                asked.append((time.monotonic(), message))

            def recv(self):
                return None

        start = time.monotonic()
        assert PipeClient(_Conn()).claim("w", 0.2) == (None, False)
        (when, message), = asked
        assert message == ("claim", None, {})
        assert when - start >= 0.2

    def test_wait_holds_within_half_the_timeout_and_its_deadline(
        self, tmp_path, monkeypatch
    ):
        sent = []
        real_http_json = client_module.http_json

        def recording_http_json(method, url, **kwargs):
            sent.append(url)
            return real_http_json(method, url, **kwargs)

        monkeypatch.setattr(client_module, "http_json", recording_http_json)
        orch = Orchestrator(
            ServiceConfig(service_dir=tmp_path / "svc", max_workers=0)
        )
        with serve_http(orch, ":0") as server:
            client = _fast_client([server.url], timeout_s=1.0)
            submit_id = client.submit(build_submission(_tasks(1)))[
                "submit_id"
            ]
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                client.wait(submit_id, poll_s=5.0, timeout_s=1.3)
            overrun = time.monotonic() - start - 1.3
        orch.journal.close()
        holds = [
            float(url.split("?wait=")[1]) for url in sent if "?wait=" in url
        ]
        assert holds and max(holds) <= 0.5  # half the 1 s socket timeout
        assert holds[-1] < 0.5  # the last one ends at the deadline
        assert overrun < 0.2
