"""The stdlib HTTP front end of the durable sweep orchestrator.

``repro-plc serve --http :PORT`` runs a ``ThreadingHTTPServer`` on a
daemon thread *inside* the orchestrator process, next to the PR 9
scheduling loop.  Handler threads never touch the journal directly —
every mutation goes through the orchestrator's public methods under its
lock, so the journal's single-writer discipline survives going on the
network (one writing *process*, one writing *thread at a time*).

Wire surface (all JSON; see :mod:`repro.service.net.wire`):

===========================================  ==============================
``POST /v1/sweeps``                          idempotent sweep submission
                                             (202; 429 + Retry-After past
                                             ``--max-queue-depth``; 503 +
                                             Retry-After while draining)
``GET /v1/sweeps/<submit_id>[?wait=S]``      folded submission status
                                             (ETag on the journal seq;
                                             held until done, up to S)
``GET /v1/tasks/<task_id>``                  folded task status + forensics
``GET /v1/tasks/<task_id>/result``           the cached result document
``GET /v1/metrics``                          OpenMetrics text exposition
``GET /v1/status``                           service counts / liveness
``POST /v1/claims``                          remote worker claims a shard
                                             (an idle claim is held up to
                                             its body's ``wait_s``)
``PUT /v1/leases/<task_id>``                 remote heartbeat (409 = lost)
``POST /v1/tasks/<task_id>/result``          commit (idempotent; lost acks
                                             converge as ``duplicate``)
``POST /v1/tasks/<task_id>/fail``            report a failed attempt
===========================================  ==============================

Two requests may be *held* (long-polled): a claim that finds nothing to
lease, and the status of a sweep that is not done.  Either stays open
until a journal append answers it — every state change is journaled
first, and the orchestrator notifies its ``appended`` condition after
each append — or until the hold the caller asked for runs out, clamped to
:data:`MAX_HOLD_S`.  Held time is logged as ``held_s``, apart from the
handling time in ``duration_s``.

Submissions are idempotent end to end: the body hashes to the same
sha256 ``submit_id`` and per-task cache keys as the ``submit`` CLI, so
a client retrying a dropped response — or two clients posting the same
study — dedupes against the cache and journal for free.

The ``net_*`` fault points (:mod:`repro.faults`) fire here too, at the
request boundary: ``net_partition`` closes the connection unread,
``net_drop`` processes the request then withholds the response (the
lost-ack case the idempotent routes must converge through),
``net_duplicate`` processes the body twice, ``net_delay`` stalls the
exchange.
"""

from __future__ import annotations

import contextlib
import json
import math
import select
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union
from urllib.parse import parse_qs

from ... import faults
from ...obs.registry import MetricsRegistry
from ...telemetry.openmetrics import render_openmetrics
from ..orchestrator import Orchestrator
from ..state import TaskState
from ..submit import submission_id, validate_submission
from .wire import DEFAULT_TIMEOUT_S, parse_hostport

__all__ = ["ServiceHTTPServer", "serve_http"]

#: Retry-After advice (seconds) for 429 admission rejections.
RETRY_AFTER_BUSY_S = 5
#: Retry-After advice (seconds) for 503 drain refusals.
RETRY_AFTER_DRAIN_S = 2
#: Longest hold a request may ask for: half a client's default socket
#: timeout, so a held request never reads as a dead server.
MAX_HOLD_S = DEFAULT_TIMEOUT_S / 2


def _hold_seconds(value: Any) -> Optional[float]:
    """A requested hold clamped to ``[0, MAX_HOLD_S]``; ``None`` when
    ``value`` is not a number of seconds."""
    if isinstance(value, bool):
        return None
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    if math.isnan(seconds):
        return None
    return min(max(seconds, 0.0), MAX_HOLD_S)


class _Hold:
    """One exchange's hold: the client's socket and the seconds spent
    parked, which the access log and the latency histogram keep apart
    from handling time."""

    def __init__(self, sock: Optional[socket.socket] = None) -> None:
        self.sock = sock
        self.held_s = 0.0

    def wakeups(
        self, appended: threading.Condition, wait_s: float
    ) -> Iterator[None]:
        """Yield now, then after each journal append, until ``wait_s``
        has passed.  The caller holds the orchestrator's lock and leaves
        the loop once it has its answer."""
        deadline = time.monotonic() + wait_s
        while True:
            yield
            left = deadline - time.monotonic()
            if left <= 0:
                return
            parked = time.perf_counter()
            appended.wait(left)
            self.held_s += time.perf_counter() - parked

    def client_gone(self) -> bool:
        """True once the client closed its end: its socket reads EOF."""
        if self.sock is None:
            return False
        try:
            readable, _, _ = select.select([self.sock], [], [], 0)
        except ValueError:  # a descriptor select cannot watch: can't tell
            return False
        if not readable:
            return False
        try:
            return self.sock.recv(1, socket.MSG_PEEK) == b""
        except OSError:  # reset by the peer
            return True


class _Handler(BaseHTTPRequestHandler):
    """One HTTP exchange.  ``self.server.service`` is the front end."""

    protocol_version = "HTTP/1.1"
    #: Silenced default stderr logging; the access log is JSONL.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> "ServiceHTTPServer":
        return self.server.service  # type: ignore[attr-defined]

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """The JSON object sent, if any; ``ValueError`` when
        ``Content-Length`` is not a length."""
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        return parsed if isinstance(parsed, dict) else None

    def _sever(self) -> None:
        """Close the connection without a response (injected fault)."""
        self.close_connection = True
        with contextlib.suppress(OSError):
            self.connection.close()

    def _respond(
        self,
        status: int,
        payload: Union[Dict[str, Any], str, None],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "application/openmetrics-text; version=1.0.0"
        elif payload is None:
            body = b""
            content_type = "application/json"
        else:
            body = (json.dumps(payload) + "\n").encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _dispatch(self, method: str) -> None:
        service = self.service
        start = time.perf_counter()
        point, options = faults.fire(*faults.NET_POINTS, role="server")
        if point == "net_partition":
            service._log_access(method, self.path, 0, 0.0, fault=point)
            self._sever()
            return
        if point == "net_delay":
            time.sleep(options["delay_s"])
        hold = _Hold(self.connection)
        try:
            body = self._read_body()
        except ValueError:
            # The body's end is unknown, so the connection cannot carry
            # another request.
            self.close_connection = True
            status, payload, headers = 400, {"error": "bad Content-Length"}, {}
        else:
            try:
                status, payload, headers = service.route(
                    method, self.path, body, self.headers, hold
                )
                if point == "net_duplicate":
                    status, payload, headers = service.route(
                        method, self.path, body, self.headers, hold
                    )
            except Exception as exc:  # a handler bug must not kill the server
                status, payload, headers = 500, {"error": repr(exc)}, {}
        duration = time.perf_counter() - start - hold.held_s
        service._observe(method, self.path, status, duration)
        service._log_access(
            method, self.path, status, duration, hold.held_s, fault=point
        )
        if point == "net_drop":
            self._sever()
            return
        try:
            self._respond(status, payload, headers)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to do

    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._dispatch("PUT")


class ServiceHTTPServer:
    """The HTTP front end bound to one :class:`Orchestrator`.

    Runs on a daemon thread; ``port=0`` binds an ephemeral port
    (``.port`` has the real one).  Request metrics live in an
    :class:`~repro.obs.registry.MetricsRegistry` rendered by
    ``GET /v1/metrics`` next to the per-worker task counters, and every
    exchange is appended to ``telemetry/http_access.jsonl``.
    """

    def __init__(
        self,
        orchestrator: Orchestrator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.orchestrator = orchestrator
        self.registry = MetricsRegistry()
        self._requests = self.registry.counter(
            "service_http_requests_total",
            help="HTTP requests handled by the sweep front end.",
            labelnames=("method", "route", "status"),
        )
        self._latency = self.registry.histogram(
            "service_http_request_seconds",
            help="HTTP request handling latency.",
            labelnames=("route",),
            buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
        )
        self._worker_tasks = self.registry.counter(
            "service_worker_tasks_total",
            help="Remote worker protocol outcomes per worker host.",
            labelnames=("worker", "outcome"),
        )
        self.access_log_path: Path = (
            orchestrator.paths.telemetry / "http_access.jsonl"
        )
        self._access_lock = threading.Lock()
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self  # type: ignore[attr-defined]
        self.host = self._httpd.server_address[0]
        self.port = int(self._httpd.server_address[1])
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="service-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    # -- telemetry ---------------------------------------------------------

    def _route_label(self, path: str) -> str:
        """Collapse ids out of paths so label cardinality stays bounded."""
        parts = [p for p in path.split("?", 1)[0].split("/") if p]
        out = []
        for part in parts:
            out.append("<id>" if len(part) >= 16 else part)
        return "/" + "/".join(out)

    def _observe(
        self, method: str, path: str, status: int, duration_s: float
    ) -> None:
        route = self._route_label(path)
        self._requests.inc(method=method, route=route, status=str(status))
        self._latency.observe(duration_s, route=route)

    def _log_access(
        self,
        method: str,
        path: str,
        status: int,
        duration_s: float,
        held_s: float = 0.0,
        fault: Optional[str] = None,
    ) -> None:
        record = {
            "t_s": time.time(),
            "method": method,
            "path": path,
            "status": status,
            "duration_s": round(duration_s, 6),
            "held_s": round(held_s, 6),
            "run_id": self.orchestrator.trace.run_id,
        }
        if fault:
            record["net_fault"] = fault
        try:
            self.access_log_path.parent.mkdir(parents=True, exist_ok=True)
            with self._access_lock:
                with self.access_log_path.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
        except OSError:
            pass

    # -- routing -----------------------------------------------------------

    def route(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        headers: Any,
        hold: Optional[_Hold] = None,
    ) -> Tuple[int, Union[Dict[str, Any], str, None], Dict[str, str]]:
        """``(status, payload, headers)`` for one request; ``hold`` is
        the exchange a held claim or status parks on."""
        hold = hold or _Hold()
        path, _, query = path.partition("?")
        path = path.rstrip("/")
        parts = [p for p in path.split("/") if p]
        if not parts or parts[0] != "v1":
            return 404, {"error": f"no such route: {path}"}, {}
        parts = parts[1:]
        if method == "GET":
            if parts == ["status"]:
                return self._get_status(headers)
            if parts == ["metrics"]:
                return self._get_metrics()
            if len(parts) == 2 and parts[0] == "sweeps":
                wait_s = _hold_seconds(parse_qs(query).get("wait", [0])[-1])
                if wait_s is None:
                    return 400, {"error": "wait must be seconds"}, {}
                return self._get_sweep(parts[1], headers, wait_s, hold)
            if len(parts) == 2 and parts[0] == "tasks":
                return self._get_task(parts[1], headers)
            if len(parts) == 3 and parts[0] == "tasks" and parts[2] == "result":
                return self._get_result(parts[1])
        elif method == "POST":
            if parts == ["sweeps"]:
                return self._post_sweep(body)
            if parts == ["claims"]:
                return self._post_claim(body, hold)
            if len(parts) == 3 and parts[0] == "tasks" and parts[2] == "result":
                return self._post_result(parts[1], body)
            if len(parts) == 3 and parts[0] == "tasks" and parts[2] == "fail":
                return self._post_fail(parts[1], body)
        elif method == "PUT":
            if len(parts) == 2 and parts[0] == "leases":
                return self._put_heartbeat(parts[1], body)
        return 404, {"error": f"no such route: {method} {path}"}, {}

    def _etag(self) -> str:
        """Weak validator over the journal: changes iff state changed."""
        return f'"journal-seq-{self.orchestrator.journal.seq}"'

    def _unavailable(
        self,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        return (
            503,
            {"error": "service draining", "draining": True},
            {"Retry-After": str(RETRY_AFTER_DRAIN_S)},
        )

    # -- client routes -----------------------------------------------------

    def _post_sweep(
        self, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        orch = self.orchestrator
        if orch.draining or orch.closed:
            return self._unavailable()
        submission = validate_submission(body)
        if submission is None:
            return 400, {"error": "malformed submission"}, {}
        # Server-side hash: the idempotency key is what the *body*
        # hashes to, never what the client claims it is.
        submit_id = submission_id(submission["tasks"])
        submission = dict(submission)
        submission["submit_id"] = submit_id
        verdict = orch.admit_submission(submission, submit_id=submit_id)
        if not verdict["accepted"]:
            return (
                429,
                verdict,
                {"Retry-After": str(RETRY_AFTER_BUSY_S)},
            )
        return 202, verdict, {"ETag": self._etag()}

    def _get_sweep(
        self,
        submit_id: str,
        headers: Any,
        wait_s: float,
        hold: _Hold,
    ) -> Tuple[int, Union[Dict[str, Any], None], Dict[str, str]]:
        """The sweep's status, held up to ``wait_s`` while it is not
        done; ``304`` when the journal has not moved past the client's
        ETag."""
        orch = self.orchestrator
        settled = (TaskState.COMPLETED, TaskState.QUARANTINED)
        with orch.lock:
            submit = orch.state.submits.get(submit_id)
            if submit is None:
                return 404, {"error": f"unknown sweep {submit_id}"}, {}
            for _ in hold.wakeups(orch.appended, wait_s):
                tasks = [
                    task
                    for task in orch.state.tasks.values()
                    if task.submit_id == submit_id
                ]
                done = all(task.state in settled for task in tasks)
                if done:
                    break
            etag = self._etag()
            if headers is not None and headers.get("If-None-Match") == etag:
                return 304, None, {"ETag": etag}
            counts = {state: 0 for state in TaskState.ALL}
            for task in tasks:
                counts[task.state] += 1
            payload = {
                "submit_id": submit_id,
                "accepted": submit.accepted,
                "label": submit.label,
                "task_count": submit.task_count,
                "deduped": submit.deduped,
                "reason": submit.reason,
                "counts": counts,
                "done": done,
                "tasks": {task.task_id: task.state for task in tasks},
            }
        return 200, payload, {"ETag": etag}

    def _get_task(
        self, task_id: str, headers: Any
    ) -> Tuple[int, Union[Dict[str, Any], None], Dict[str, str]]:
        orch = self.orchestrator
        etag = self._etag()
        if headers is not None and headers.get("If-None-Match") == etag:
            return 304, None, {"ETag": etag}
        with orch.lock:
            record = orch.state.tasks.get(task_id)
            if record is None:
                return 404, {"error": f"unknown task {task_id}"}, {}
            payload = record.as_dict()
            payload["cached"] = orch.cache.get(task_id) is not None
            worker = orch.remote_leases().get(task_id)
            if worker is not None:
                payload["remote_worker"] = worker
        return 200, payload, {"ETag": etag}

    def _get_result(
        self, task_id: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        result = self.orchestrator.cache.get(task_id)
        if result is None:
            return 404, {"error": f"no result for {task_id}"}, {}
        return 200, {"task_id": task_id, "result": result}, {}

    def _get_status(
        self,
        headers: Any = None,
    ) -> Tuple[int, Optional[Dict[str, Any]], Dict[str, str]]:
        orch = self.orchestrator
        etag = self._etag()
        if headers is not None and headers.get("If-None-Match") == etag:
            return 304, None, {"ETag": etag}
        with orch.lock:
            payload = {
                "serving": not orch.closed,
                "draining": orch.draining,
                "counts": orch.state.counts(),
                "queue_depth": orch.state.queue_depth,
                "remote_leases": len(orch.remote_leases()),
                "run_id": orch.trace.run_id,
                "journal_seq": orch.journal.seq,
            }
        return 200, payload, {"ETag": etag}

    def _get_metrics(
        self,
    ) -> Tuple[int, str, Dict[str, str]]:
        text = render_openmetrics(
            metrics=self.registry,
            run_id=self.orchestrator.trace.run_id,
        )
        return 200, text, {}

    # -- worker routes -----------------------------------------------------

    def _post_claim(
        self, body: Optional[Dict[str, Any]], hold: _Hold
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Lease a shard; an idle claim is held up to the body's
        ``wait_s`` and answered by the first append that makes a task
        claimable (admission, a requeue, a failed attempt) or a drain."""
        orch = self.orchestrator
        body = body or {}
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, {"error": "worker_id required"}, {}
        wait_s = _hold_seconds(body.get("wait_s", 0))
        if wait_s is None:
            return 400, {"error": "wait_s must be seconds"}, {}
        with orch.lock:
            for _ in hold.wakeups(orch.appended, wait_s):
                if orch.draining or orch.closed:
                    return self._unavailable()
                if wait_s and hold.client_gone():
                    # A worker killed while parked: a shard leased to it
                    # would sit out the lease TTL.  Nobody reads this
                    # answer; 499 marks it in the access log.
                    return 499, {"error": "client closed the connection"}, {}
                shard = orch.remote_claim(worker_id)
                if shard is not None:
                    self._worker_tasks.inc(worker=worker_id, outcome="claimed")
                    return 200, shard, {}
            idle = orch.state.queue_depth == 0
        return 200, {"task": None, "idle": idle}, {}

    def _put_heartbeat(
        self, task_id: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        worker_id = (body or {}).get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, {"error": "worker_id required"}, {}
        ok = self.orchestrator.remote_heartbeat(task_id, worker_id)
        if not ok:
            # The worker's lease is gone (reclaimed or never existed):
            # 409 tells it to stop relying on exclusivity.
            return 409, {"ok": False, "task_id": task_id}, {}
        return 200, {"ok": True, "task_id": task_id}, {}

    def _post_result(
        self, task_id: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        body = body or {}
        worker_id = body.get("worker_id")
        result = body.get("result")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, {"error": "worker_id required"}, {}
        if not isinstance(result, dict):
            return 400, {"error": "result dict required"}, {}
        status = self.orchestrator.remote_complete(
            task_id,
            worker_id,
            result,
            elapsed_s=body.get("elapsed_s"),
            worker_pid=body.get("worker_pid"),
            spans=body.get("spans"),
        )
        if status == "unknown":
            return 404, {"error": f"unknown task {task_id}"}, {}
        self._worker_tasks.inc(worker=worker_id, outcome=status)
        return 200, {"status": status, "task_id": task_id}, {}

    def _post_fail(
        self, task_id: str, body: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        body = body or {}
        worker_id = body.get("worker_id")
        if not isinstance(worker_id, str) or not worker_id:
            return 400, {"error": "worker_id required"}, {}
        status = self.orchestrator.remote_fail(
            task_id,
            worker_id,
            error=str(body.get("error", "remote failure")),
            error_type=str(body.get("error_type", "RemoteWorkerError")),
            traceback=body.get("traceback"),
        )
        self._worker_tasks.inc(worker=worker_id, outcome=status)
        return 200, {"status": status, "task_id": task_id}, {}


@contextlib.contextmanager
def serve_http(
    orchestrator: Orchestrator, spec: Union[str, int] = ":0"
) -> Iterator[ServiceHTTPServer]:
    """Run the HTTP front end for the duration of a ``with`` body.

    ``spec`` is ``"HOST:PORT"`` / ``":PORT"`` / a bare port; port 0
    binds ephemerally.  Usage::

        orchestrator = Orchestrator(config)
        with serve_http(orchestrator, ":8080") as front:
            orchestrator.serve()          # loop + HTTP until drained
    """
    host, port = parse_hostport(str(spec))
    server = ServiceHTTPServer(orchestrator, host=host, port=port).start()
    try:
        yield server
    finally:
        server.stop()
