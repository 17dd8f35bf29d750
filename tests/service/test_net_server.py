"""In-process HTTP front-end tests: idempotency, backpressure, ETags.

One orchestrator + one :class:`ServiceHTTPServer` per test, exercised
through real sockets with :func:`repro.service.net.wire.http_json` —
the same code path the sweep client and remote workers use.
"""

import threading

import pytest

from repro.core.config import ScenarioConfig
from repro.runner import ExperimentRunner, SeedSpec, Task, TaskKind
from repro.runner.cache import cache_key
from repro.runner.serialize import scenario_to_jsonable
from repro.service import Orchestrator, ServiceConfig, TaskState
from repro.service.net import NetRequestError, http_json, serve_http
from repro.service.net.worker import work_loop
from repro.service.submit import build_submission
from repro.telemetry.openmetrics import validate_openmetrics

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


@pytest.fixture()
def front(tmp_path):
    """(orchestrator, server) with no serve loop running."""
    orch = Orchestrator(
        ServiceConfig(
            service_dir=tmp_path / "svc",
            max_workers=0,
            poll_interval_s=0.01,
            idle_grace_s=0.5,
        )
    )
    with serve_http(orch, ":0") as server:
        yield orch, server
    orch.journal.close()


class TestSubmission:
    def test_post_is_idempotent_same_submit_id_as_cli_hash(self, front):
        orch, server = front
        tasks = _tasks()
        submission = build_submission(tasks, label="t")
        status, verdict, headers = http_json(
            "POST", server.url + "/v1/sweeps", body=submission
        )
        assert status == 202
        assert verdict["accepted"] is True
        # Server-side hash equals the client-side content hash.
        assert verdict["submit_id"] == submission["submit_id"]
        assert verdict["new"] == len(tasks)
        assert "ETag" in headers

        status2, verdict2, _ = http_json(
            "POST", server.url + "/v1/sweeps", body=submission
        )
        assert status2 == 202
        assert verdict2["submit_id"] == verdict["submit_id"]
        assert verdict2["new"] == 0
        assert verdict2["deduped"] == len(tasks)
        # Journal holds exactly one task_enqueued per task.
        with orch.lock:
            assert len(orch.state.tasks) == len(tasks)

    def test_submit_id_is_servers_not_clients(self, front):
        _orch, server = front
        submission = build_submission(_tasks(), label="t")
        submission["submit_id"] = "f" * 64  # lying client
        _status, verdict, _ = http_json(
            "POST", server.url + "/v1/sweeps", body=submission
        )
        assert verdict["submit_id"] != "f" * 64

    def test_malformed_submission_is_400(self, front):
        _orch, server = front
        status, body, _ = http_json(
            "POST", server.url + "/v1/sweeps", body={"tasks": []}
        )
        assert status == 400
        assert "error" in body

    def test_admission_control_429_with_retry_after(self, tmp_path):
        orch = Orchestrator(
            ServiceConfig(
                service_dir=tmp_path / "svc",
                max_workers=0,
                max_queue_depth=1,
            )
        )
        with serve_http(orch, ":0") as server:
            status, verdict, _ = http_json(
                "POST",
                server.url + "/v1/sweeps",
                body=build_submission(_tasks(1)),
            )
            assert status == 202
            with pytest.raises(NetRequestError) as info:
                http_json(
                    "POST",
                    server.url + "/v1/sweeps",
                    body=build_submission(_tasks(3), label="too big"),
                )
            assert info.value.status == 429
            assert info.value.retry_after_s is not None
        orch.journal.close()

    def test_draining_post_is_503_with_retry_after(self, front):
        orch, server = front
        orch.draining = True
        with pytest.raises(NetRequestError) as info:
            http_json(
                "POST",
                server.url + "/v1/sweeps",
                body=build_submission(_tasks(1)),
            )
        assert info.value.status == 503
        assert info.value.retry_after_s is not None


class TestStatusRoutes:
    def test_sweep_status_etag_304(self, front):
        _orch, server = front
        submission = build_submission(_tasks())
        http_json("POST", server.url + "/v1/sweeps", body=submission)
        url = server.url + f"/v1/sweeps/{submission['submit_id']}"
        status, doc, headers = http_json("GET", url)
        assert status == 200
        assert doc["done"] is False
        assert doc["counts"][TaskState.PENDING] == 2
        etag = headers["ETag"]
        status2, doc2, headers2 = http_json("GET", url, etag=etag)
        assert status2 == 304
        assert doc2 == {}
        assert headers2["ETag"] == etag

    def test_task_status_and_unknown_404(self, front):
        _orch, server = front
        tasks = _tasks()
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(tasks)
        )
        task_id = cache_key(tasks[0].describe())
        status, doc, _ = http_json(
            "GET", server.url + f"/v1/tasks/{task_id}"
        )
        assert status == 200
        assert doc["state"] == TaskState.PENDING
        assert doc["cached"] is False
        status404, _doc, _ = http_json(
            "GET", server.url + "/v1/tasks/" + "0" * 64
        )
        assert status404 == 404

    def test_service_status_route(self, front):
        orch, server = front
        status, doc, headers = http_json("GET", server.url + "/v1/status")
        assert status == 200
        assert doc["serving"] is True
        assert doc["draining"] is False
        assert doc["run_id"] == orch.trace.run_id
        # /v1/status is a poll target too: it honours If-None-Match.
        etag = headers["ETag"]
        status, _doc, _ = http_json(
            "GET", server.url + "/v1/status", etag=etag
        )
        assert status == 304

    def test_unknown_route_404(self, front):
        _orch, server = front
        status, _body, _ = http_json("GET", server.url + "/v1/nope")
        assert status == 404


class TestMetrics:
    def test_openmetrics_valid_and_counts_requests(self, front):
        _orch, server = front
        http_json("GET", server.url + "/v1/status")
        http_json("GET", server.url + "/v1/status")
        import urllib.request

        with urllib.request.urlopen(
            server.url + "/v1/metrics", timeout=10
        ) as resp:
            text = resp.read().decode("utf-8")
        assert validate_openmetrics(text) == []
        assert "service_http_requests_total" in text
        value = server._requests.value(
            method="GET", route="/v1/status", status="200"
        )
        assert value >= 2


class TestRemoteExecution:
    def test_worker_loop_completes_sweep_bit_identical(self, front):
        orch, server = front
        tasks = _tasks()
        want = ExperimentRunner().run(tasks)
        submission = build_submission(tasks)
        http_json("POST", server.url + "/v1/sweeps", body=submission)
        serve_thread = threading.Thread(
            target=orch.serve, kwargs={"exit_when_idle": True}, daemon=True
        )
        serve_thread.start()
        stats = work_loop(
            server.url, worker_id="t-worker", poll_s=0.02,
            exit_when_idle=True,
        )
        serve_thread.join(timeout=60)
        assert not serve_thread.is_alive()
        assert stats["completed"] == len(tasks)
        assert stats["failed"] == 0
        for task, expected in zip(tasks, want):
            assert orch.cache.get(cache_key(task.describe())) == expected

    def test_duplicate_commit_converges(self, front):
        orch, server = front
        tasks = _tasks(1)
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(tasks)
        )
        status, shard, _ = http_json(
            "POST", server.url + "/v1/claims", body={"worker_id": "w1"}
        )
        assert status == 200 and shard["task_id"]
        from repro.runner.tasks import run_task
        from repro.service.worker import task_from_description

        envelope = run_task(task_from_description(shard["task"]))
        body = {"worker_id": "w1", "result": envelope["result"]}
        url = server.url + f"/v1/tasks/{shard['task_id']}/result"
        _s, doc, _ = http_json("POST", url, body=body)
        assert doc["status"] == "committed"
        # The retried (lost-ack) commit is answered "duplicate".
        _s, doc2, _ = http_json("POST", url, body=body)
        assert doc2["status"] == "duplicate"

    def test_heartbeat_409_after_reclaim(self, front):
        orch, server = front
        tasks = _tasks(1)
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(tasks)
        )
        _s, shard, _ = http_json(
            "POST", server.url + "/v1/claims", body={"worker_id": "w1"}
        )
        task_id = shard["task_id"]
        hb_url = server.url + f"/v1/leases/{task_id}"
        status, doc, _ = http_json(
            "PUT", hb_url, body={"worker_id": "w1"}
        )
        assert status == 200 and doc["ok"] is True
        # Another worker's heartbeat for the same lease: refused.
        status2, _doc, _ = http_json(
            "PUT", hb_url, body={"worker_id": "imposter"}
        )
        assert status2 == 409
        # Reclaim (as the watchdog would), then the holder gets 409 too.
        with orch.lock:
            orch.journal.append(
                "lease_reclaimed", task_id=task_id, reason="test"
            )
            orch.state.tasks[task_id].state = TaskState.PENDING
            del orch._leases[task_id]
        status3, _doc, _ = http_json("PUT", hb_url, body={"worker_id": "w1"})
        assert status3 == 409

    def test_claims_refused_while_draining(self, front):
        orch, server = front
        orch.draining = True
        with pytest.raises(NetRequestError) as info:
            http_json(
                "POST",
                server.url + "/v1/claims",
                body={"worker_id": "w1"},
            )
        assert info.value.status == 503
