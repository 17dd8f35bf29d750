"""In-process HTTP front-end tests: idempotency, backpressure, ETags.

One orchestrator + one :class:`ServiceHTTPServer` per test, exercised
through real sockets with :func:`repro.service.net.wire.http_json` —
the same code path the sweep client and remote workers use.
"""

import socket
import threading
import time

import pytest

from repro.obs.recording import read_jsonl
from repro.runner import ExperimentRunner
from repro.runner.cache import cache_key
from repro.service import Orchestrator, ServiceConfig, TaskState
from repro.service.net import NetRequestError, http_json, serve_http
from repro.service.net import server as server_module
from repro.service.net.wire import DEFAULT_TIMEOUT_S
from repro.service.net.worker import work_loop
from repro.service.submit import build_submission
from repro.telemetry.openmetrics import validate_openmetrics
from tests.support import sim_tasks


def _tasks(count=2):
    return sim_tasks(range(2, count + 2))


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

    def test_description_that_rebuilds_no_task_is_400(self, front):
        # Admitted, it would kill every remote worker that claimed it.
        orch, server = front
        bad = {"kind": "simulate", "payload": {}, "seed": {"bogus": 1}}
        status, body, _ = http_json(
            "POST", server.url + "/v1/sweeps", body={"tasks": [bad]}
        )
        assert (status, body) == (400, {"error": "malformed submission"})
        assert not orch.state.tasks

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
        # No serve loop has started: bound, but not serving yet.
        assert doc["serving"] is False
        assert doc["draining"] is False
        assert doc["run_id"] == orch.trace.run_id
        # /v1/status is a poll target too: it honours If-None-Match.
        etag = headers["ETag"]
        status, _doc, _ = http_json(
            "GET", server.url + "/v1/status", etag=etag
        )
        assert status == 304

    def test_serving_only_while_the_serve_loop_runs(self, front):
        orch, server = front
        url = server.url + "/v1/status"
        doc = http_json("GET", url)[1]
        assert (doc["serving"], doc["journal_seq"]) == (False, 0)
        loop = threading.Thread(target=orch.serve, daemon=True)
        loop.start()
        deadline = time.monotonic() + 30
        while not http_json("GET", url)[1]["serving"]:
            assert time.monotonic() < deadline, "never served"
            time.sleep(0.01)
        # Serving means this incarnation's start is journaled.
        (first, *_) = read_jsonl(orch.paths.journal)
        assert first["event"] == "service_start"
        orch.paths.drain_marker.touch()
        loop.join(timeout=30)
        assert not loop.is_alive()
        assert http_json("GET", url)[1]["serving"] is False

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
        from repro.runner.workers import task_from_description

        envelope = run_task(task_from_description(shard["task"]))
        body = {"worker_id": "w1", "result": envelope["result"]}
        url = server.url + f"/v1/tasks/{shard['task_id']}/result"
        _s, doc, _ = http_json("POST", url, body=body)
        assert doc["status"] == "committed"
        # The retried (lost-ack) commit is answered "duplicate".
        _s, doc2, _ = http_json("POST", url, body=body)
        assert doc2["status"] == "duplicate"

    def test_commit_with_malformed_spans_is_400_and_journals_nothing(
        self, front
    ):
        orch, server = front
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(_tasks(1))
        )
        _s, shard, _ = http_json(
            "POST", server.url + "/v1/claims", body={"worker_id": "w1"}
        )
        from repro.runner.tasks import run_task
        from repro.runner.workers import task_from_description

        envelope = run_task(task_from_description(shard["task"]))
        body = {"worker_id": "w1", "result": envelope["result"]}
        url = server.url + f"/v1/tasks/{shard['task_id']}/result"
        seq = orch.journal.seq
        for spans in (
            "abc",
            {"event": "span_start", "span_id": "a"},
            [1],
            [{"event": "queued", "span_id": "a"}],
            [{"event": "span_end", "span_id": 7}],
        ):
            status, doc, _ = http_json(
                "POST", url, body=dict(body, spans=spans)
            )
            assert status == 400, (spans, doc)
        assert orch.journal.seq == seq
        assert orch.cache.get(shard["task_id"]) is None
        assert orch.state.tasks[shard["task_id"]].state == TaskState.LEASED
        # Any list of span records is adopted, however sparse or odd.
        spans = [
            {"event": "span_start", "span_id": "b" * 16},
            {"event": "span_end", "span_id": "b" * 16, "t_s": "late",
             "extra": [1]},
        ]
        _s, doc, _ = http_json("POST", url, body=dict(body, spans=spans))
        assert doc["status"] == "committed"
        assert len(orch.trace.of_kind("finished")) == 1
        adopted = [e.as_jsonable() for e in orch.trace.events[-4:-2]]
        assert adopted == [
            {"event": "span_start", "span_id": "b" * 16},
            {"event": "span_end", "span_id": "b" * 16, "t_s": "late"},
        ]

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


#: Seconds a held request is given in these tests; every "prompt"
#: answer must come well inside it.
HOLD_S = 4.0


class _Held(threading.Thread):
    """One held request on its own thread: ``answered`` is when the
    reply arrived, ``outcome`` the reply or the raised error."""

    def __init__(self, method, url, body=None):
        super().__init__(daemon=True)
        self.request = (method, url, body)
        self.outcome = None
        self.answered = None

    def run(self):
        method, url, body = self.request
        try:
            self.outcome = http_json(method, url, body=body)
        except NetRequestError as exc:
            self.outcome = exc
        self.answered = time.monotonic()

    def result(self):
        self.join(timeout=HOLD_S + 5)
        assert not self.is_alive()
        return self.outcome


def _held_claim(server, worker_id="w1"):
    held = _Held(
        "POST",
        server.url + "/v1/claims",
        body={"worker_id": worker_id, "wait_s": HOLD_S},
    )
    held.start()
    time.sleep(0.3)  # parked on the journal by now
    return held


def _access(server):
    return read_jsonl(server.access_log_path)


def _wait_for_access(server, predicate):
    deadline = time.monotonic() + HOLD_S
    while time.monotonic() < deadline:
        if server.access_log_path.exists() and any(
            predicate(row) for row in _access(server)
        ):
            return
        time.sleep(0.02)
    raise AssertionError("no such access-log record")


class TestHeldRequests:
    def test_held_claim_answers_on_submission(self, front):
        _orch, server = front
        held = _held_claim(server)
        submitted = time.monotonic()
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(_tasks(1))
        )
        status, shard, _ = held.result()
        assert status == 200 and shard["task_id"]
        assert held.answered - submitted < HOLD_S / 2
        record = [r for r in _access(server) if r["path"] == "/v1/claims"][-1]
        # Held time is not handling time.
        assert record["held_s"] > 0.2
        assert record["duration_s"] < record["held_s"]

    def test_held_claim_answers_on_watchdog_requeue(self, front):
        orch, server = front
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(_tasks(1))
        )
        _s, first, _ = http_json(
            "POST", server.url + "/v1/claims", body={"worker_id": "w1"}
        )
        held = _held_claim(server, worker_id="w2")
        requeued = time.monotonic()
        with orch.lock:
            orch._leases[first["task_id"]].last_beat_monotonic -= 1e3
            orch._watchdog()
        status, shard, _ = held.result()
        assert status == 200 and shard["task_id"] == first["task_id"]
        assert held.answered - requeued < HOLD_S / 2
        assert orch.remote_leases() == {first["task_id"]: "w2"}

    def test_idle_held_claim_answers_after_its_hold(self, front):
        _orch, server = front
        asked = time.monotonic()
        status, doc, _ = http_json(
            "POST",
            server.url + "/v1/claims",
            body={"worker_id": "w1", "wait_s": 0.6},
        )
        assert time.monotonic() - asked >= 0.6
        assert status == 200 and doc == {"task": None, "idle": True}
        assert _access(server)[-1]["held_s"] >= 0.55

    def test_drain_answers_held_claim_503(self, front):
        orch, server = front
        held = _held_claim(server)
        drained = time.monotonic()
        orch._drain()
        outcome = held.result()
        assert isinstance(outcome, NetRequestError)
        assert outcome.status == 503 and outcome.retry_after_s is not None
        assert held.answered - drained < HOLD_S / 2

    def test_held_claim_of_a_dead_client_leases_nothing(self, front):
        orch, server = front
        body = b'{"worker_id": "dead", "wait_s": 4}'
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        sock.sendall(
            b"POST /v1/claims HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        time.sleep(0.3)  # parked on the journal by now
        sock.close()  # the worker dies while parked
        tasks = _tasks(1)
        http_json(
            "POST", server.url + "/v1/sweeps", body=build_submission(tasks)
        )
        _wait_for_access(
            server, lambda r: r["path"] == "/v1/claims" and r["status"] == 499
        )
        task_id = cache_key(tasks[0].describe())
        with orch.lock:
            assert orch.state.tasks[task_id].state == TaskState.PENDING
        assert orch.remote_leases() == {}
        # The task goes to the next live claim.
        _s, shard, _ = http_json(
            "POST", server.url + "/v1/claims", body={"worker_id": "live"}
        )
        assert shard["task_id"] == task_id

    def test_held_status_answers_when_the_sweep_is_done(self, front):
        orch, server = front
        submission = build_submission(_tasks(1))
        http_json("POST", server.url + "/v1/sweeps", body=submission)
        url = server.url + f"/v1/sweeps/{submission['submit_id']}"
        held = _Held("GET", url + f"?wait={HOLD_S}")
        held.start()
        time.sleep(0.3)
        _s, shard, _ = http_json(
            "POST", server.url + "/v1/claims", body={"worker_id": "w1"}
        )
        committed = time.monotonic()
        assert orch.remote_complete(shard["task_id"], "w1", {"x": 1}) == (
            "committed"
        )
        status, doc, headers = held.result()
        assert status == 200 and doc["done"] is True
        assert held.answered - committed < HOLD_S / 2
        assert headers["ETag"] == f'"journal-seq-{orch.journal.seq}"'

    def test_held_status_is_304_after_its_hold_when_unchanged(self, front):
        _orch, server = front
        submission = build_submission(_tasks(1))
        http_json("POST", server.url + "/v1/sweeps", body=submission)
        url = server.url + f"/v1/sweeps/{submission['submit_id']}"
        _s, doc, headers = http_json("GET", url)
        assert doc["done"] is False
        asked = time.monotonic()
        status, _doc, headers2 = http_json(
            "GET", url + "?wait=0.5", etag=headers["ETag"]
        )
        assert time.monotonic() - asked >= 0.5
        assert status == 304 and headers2["ETag"] == headers["ETag"]

    def test_hold_is_clamped_and_a_malformed_one_is_400(
        self, front, monkeypatch
    ):
        _orch, server = front
        assert server_module.MAX_HOLD_S == DEFAULT_TIMEOUT_S / 2
        submission = build_submission(_tasks(1))
        http_json("POST", server.url + "/v1/sweeps", body=submission)
        url = server.url + f"/v1/sweeps/{submission['submit_id']}"
        _s, _doc, headers = http_json("GET", url)
        monkeypatch.setattr(server_module, "MAX_HOLD_S", 0.3)
        asked = time.monotonic()
        status, _doc, _ = http_json(
            "GET", url + "?wait=600", etag=headers["ETag"]
        )
        assert status == 304
        assert time.monotonic() - asked < HOLD_S / 2
        status, doc, _ = http_json("GET", url + "?wait=soon")
        assert status == 400 and "error" in doc
        status, doc, _ = http_json(
            "POST",
            server.url + "/v1/claims",
            body={"worker_id": "w1", "wait_s": "soon"},
        )
        assert status == 400 and "error" in doc


@pytest.mark.parametrize("length", [b"abc", b"-1"])
def test_bad_content_length_is_a_logged_400(front, length):
    """A request whose ``Content-Length`` is not a length is answered
    and logged, not dropped with the handler thread (``abc``) or left
    reading until the client hangs up (``-1``)."""
    _orch, server = front
    address = ("127.0.0.1", server.port)
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(
            b"POST /v1/claims HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + length + b"\r\n\r\n{}"
        )
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400")
    assert b"bad Content-Length" in reply
    record = _access(server)[-1]
    assert record["path"] == "/v1/claims" and record["status"] == 400


def test_torn_response_is_a_net_request_error():
    """A server killed mid-response (headers sent, body cut short) is a
    failed exchange the caller retries, not a crash in ``http.client``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve_torn():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)
            conn.sendall(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 103\r\n\r\n{"
            )

    thread = threading.Thread(target=serve_torn, daemon=True)
    thread.start()
    port = listener.getsockname()[1]
    try:
        with pytest.raises(NetRequestError):
            http_json(
                "POST",
                f"http://127.0.0.1:{port}/v1/results/x",
                body={"worker_id": "w1"},
                timeout_s=5.0,
            )
    finally:
        thread.join(timeout=5.0)
        listener.close()
    assert not thread.is_alive()
