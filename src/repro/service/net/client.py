"""The fault-tolerant sweep client: retries, breakers, degradation.

:class:`SweepClient` talks to one or more ``repro-plc serve --http``
front ends and refuses to let transient network weather become a stack
trace.  Three defensive layers, outermost first:

1. **Multi-host failover** — every request walks the configured hosts
   in order, preferring the host that answered last time (sticky), and
   moves on when one fails.
2. **Bounded retries with full-jitter backoff** — a full pass over the
   hosts that fails is retried up to ``retries`` times, sleeping a
   seedable :class:`~repro.runner.backoff.FullJitterBackoff` sample
   between passes (the *same* sampler the runner uses for worker
   retries, so tests pin the distribution once).  A server-sent
   ``Retry-After`` (429 admission control, 503 drain) overrides the
   sampled sleep when it is longer — explicit backpressure beats
   guessing.
3. **A circuit breaker per host** — ``threshold`` consecutive
   *transport* failures open the breaker and the host is skipped for
   ``cooldown_s``, after which one probe request (half-open) decides
   whether it closes again.  Backpressure responses (429/503) do not
   trip the breaker: a server saying "later" is alive.

When every layer is exhausted :meth:`SweepClient.run_sweep` does not
raise — it degrades to a local :class:`~repro.runner.ExperimentRunner`
(:meth:`~repro.runner.ExperimentRunner.run_degraded_local`), which
journals a structured ``degraded_local`` trace event and produces
bit-identical results by the determinism contract (same tasks, same
``SeedSpec``s, same cache keys).  Lower-level methods raise
:class:`AllHostsUnreachable` so callers that *want* the failure can
have it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ...runner.backoff import FullJitterBackoff
from ...runner.cache import cache_key
from ...runner.tasks import Task
from ..submit import build_submission, validate_submission
from .wire import DEFAULT_TIMEOUT_S, NetRequestError, http_json

__all__ = [
    "AllHostsUnreachable",
    "CircuitBreaker",
    "SweepClient",
]


class AllHostsUnreachable(RuntimeError):
    """Every configured host failed every allowed retry pass."""

    def __init__(self, message: str, last_error: Optional[Exception] = None):
        super().__init__(message)
        self.last_error = last_error


class CircuitBreaker:
    """Per-host consecutive-failure breaker (closed → open → half-open).

    ``threshold`` consecutive failures open it; while open,
    :meth:`allow` refuses until ``cooldown_s`` has elapsed, then admits
    exactly one probe (half-open).  The probe's outcome closes or
    re-opens it.  Time is injectable for tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown_s: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        if self._opened_at is None:
            return True
        if self._probing:
            return False  # one probe at a time
        if self._clock() - self._opened_at >= self.cooldown_s:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        self._probing = False
        if self._failures >= self.threshold:
            self._opened_at = self._clock()


class SweepClient:
    """HTTP client for the sweep service; see the module docstring.

    ``hosts`` is one or more base URLs (``http://HOST:PORT``).
    ``retries`` bounds *additional* full passes over the host list
    after the first; ``backoff_seed`` makes the jittered sleeps
    reproducible in tests.
    """

    def __init__(
        self,
        hosts: Union[str, Sequence[str]],
        timeout_s: float = DEFAULT_TIMEOUT_S,
        retries: int = 3,
        backoff: Optional[FullJitterBackoff] = None,
        backoff_seed: Optional[int] = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 5.0,
        role: str = "client",
    ) -> None:
        if isinstance(hosts, str):
            hosts = [hosts]
        self.hosts = [h.rstrip("/") for h in hosts]
        if not self.hosts:
            raise ValueError("SweepClient needs at least one host URL")
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff = (
            backoff
            if backoff is not None
            else FullJitterBackoff(base_s=0.1, max_s=2.0, seed=backoff_seed)
        )
        self.role = role
        self.breakers: Dict[str, CircuitBreaker] = {
            host: CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            for host in self.hosts
        }
        #: Host that served the last successful request (tried first).
        self._preferred: Optional[str] = None

    # -- transport ---------------------------------------------------------

    def _hold_s(self, wait_s: float) -> float:
        """The hold to ask for: at most half the socket timeout, so a
        held request never times out or trips a breaker."""
        return max(0.0, min(wait_s, self.timeout_s / 2))

    def _host_order(self) -> List[str]:
        if self._preferred and self._preferred in self.hosts:
            rest = [h for h in self.hosts if h != self._preferred]
            return [self._preferred] + rest
        return list(self.hosts)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        etag: Optional[str] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """One logical request: failover + retry passes + backoff."""
        last_error: Optional[Exception] = None
        for attempt in range(1, self.retries + 2):
            retry_after: Optional[float] = None
            for host in self._host_order():
                breaker = self.breakers[host]
                if not breaker.allow():
                    continue
                try:
                    result = http_json(
                        method,
                        host + path,
                        body=body,
                        timeout_s=self.timeout_s,
                        role=self.role,
                        etag=etag,
                    )
                except NetRequestError as exc:
                    last_error = exc
                    if exc.status in (429, 503):
                        # Backpressure: the host is alive and telling
                        # us when to come back — not a breaker event.
                        breaker.record_success()
                        if exc.retry_after_s is not None:
                            retry_after = max(
                                retry_after or 0.0, exc.retry_after_s
                            )
                    else:
                        breaker.record_failure()
                    continue
                breaker.record_success()
                self._preferred = host
                return result
            if attempt <= self.retries:
                sleep_s = self.backoff.sample(attempt)
                if retry_after is not None:
                    sleep_s = max(sleep_s, retry_after)
                time.sleep(sleep_s)
        raise AllHostsUnreachable(
            f"{method} {path}: no host answered after "
            f"{self.retries + 1} passes over {self.hosts} "
            f"(last error: {last_error})",
            last_error=last_error,
        )

    # -- sweep API ---------------------------------------------------------

    def submit(
        self,
        tasks: Union[Sequence[Task], Dict[str, Any]],
        label: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Submit a sweep; returns the server's admission verdict.

        Accepts either :class:`~repro.runner.tasks.Task` objects or a
        prebuilt submission document.  Idempotent: the server hashes
        the task list to the sweep's ``submit_id``, so retrying a lost
        response re-lands on the same sweep.
        """
        if isinstance(tasks, dict):
            submission = tasks
        else:
            submission = build_submission(list(tasks), label=label)
        if validate_submission(submission) is None:
            raise ValueError("malformed submission")
        _status, verdict, _headers = self._request(
            "POST", "/v1/sweeps", body=submission
        )
        return verdict

    def sweep_status(
        self,
        submit_id: str,
        etag: Optional[str] = None,
        wait_s: float = 0.0,
    ) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
        """``(status document, etag)``; document is ``None`` on a 304.

        ``wait_s > 0`` asks the server to hold the request until the
        sweep is done, for at most that long (see :meth:`_hold_s`).
        """
        path = f"/v1/sweeps/{submit_id}"
        wait_s = self._hold_s(wait_s)
        if wait_s > 0:
            path += f"?wait={wait_s:.3f}"
        status, doc, headers = self._request("GET", path, etag=etag)
        if status == 304:
            return None, etag
        if status == 404:
            raise KeyError(f"unknown sweep {submit_id}")
        return doc, headers.get("ETag")

    def wait(
        self,
        submit_id: str,
        poll_s: float = 0.5,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Block until every task of the sweep is settled.

        Each status request is held by the server for up to ``poll_s``
        (never past ``timeout_s``'s deadline) and answered as soon as
        the sweep is done.  An unfinished answer that comes back early —
        from a server that does not hold — sleeps the rest of its hold,
        so the loop never spins.
        """
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        etag: Optional[str] = None
        last_doc: Optional[Dict[str, Any]] = None
        while True:
            asked = time.monotonic()
            hold_s = self._hold_s(poll_s)
            if deadline is not None:
                hold_s = min(hold_s, max(0.0, deadline - asked))
            doc, etag = self.sweep_status(submit_id, etag=etag, wait_s=hold_s)
            if doc is not None:
                last_doc = doc
                if doc.get("done"):
                    return doc
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise TimeoutError(
                    f"sweep {submit_id} not done after {timeout_s}s: "
                    f"{(last_doc or {}).get('counts')}"
                )
            if asked + hold_s > now:
                time.sleep(asked + hold_s - now)

    def fetch_result(self, task_id: str) -> Optional[Dict[str, Any]]:
        """The committed result document for ``task_id`` (None = none)."""
        status, doc, _headers = self._request(
            "GET", f"/v1/tasks/{task_id}/result"
        )
        if status == 404:
            return None
        return doc.get("result")

    def task_status(self, task_id: str) -> Optional[Dict[str, Any]]:
        status, doc, _headers = self._request("GET", f"/v1/tasks/{task_id}")
        return None if status == 404 else doc

    def service_status(self) -> Dict[str, Any]:
        _status, doc, _headers = self._request("GET", "/v1/status")
        return doc

    # -- worker protocol (what work_loop calls) ----------------------------

    def claim(
        self, worker_id: str, wait_s: float = 0.0
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """``(shard, idle)``: a leased shard, or ``None`` plus whether
        the service has nothing pending or leased anywhere.  With
        ``wait_s > 0`` the server holds an idle claim until a task can
        be leased, for at most that long (see :meth:`_hold_s`)."""
        status, doc, _headers = self._request(
            "POST",
            "/v1/claims",
            body={"worker_id": worker_id, "wait_s": self._hold_s(wait_s)},
        )
        if status == 200 and doc.get("task_id"):
            return doc, False
        return None, bool(doc.get("idle"))

    def heartbeat(self, task_id: str, worker_id: str) -> bool:
        """Refresh a lease; ``False`` once it is no longer ours (409)."""
        status, _doc, _headers = self._request(
            "PUT", f"/v1/leases/{task_id}", body={"worker_id": worker_id}
        )
        return status != 409

    def commit(self, task_id: str, worker_id: str, **fields: Any) -> str:
        """Post a result: ``committed`` / ``duplicate`` / ``unknown``."""
        _status, doc, _headers = self._request(
            "POST",
            f"/v1/tasks/{task_id}/result",
            body={"worker_id": worker_id, **fields},
        )
        return doc.get("status", "unknown")

    def fail(self, task_id: str, worker_id: str, **fields: Any) -> str:
        """Report a failed attempt: ``failed`` / ``ignored``."""
        _status, doc, _headers = self._request(
            "POST",
            f"/v1/tasks/{task_id}/fail",
            body={"worker_id": worker_id, **fields},
        )
        return doc.get("status", "unknown")

    # -- graceful degradation ---------------------------------------------

    def run_sweep(
        self,
        tasks: Sequence[Task],
        label: Optional[str] = None,
        poll_s: float = 0.5,
        timeout_s: Optional[float] = None,
        local_runner: Optional[Any] = None,
        local_runner_kwargs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Run ``tasks`` through the service; degrade locally if it's gone.

        Returns ``{"source", "results", ...}`` where ``results`` is in
        task order.  ``source`` is ``"remote"`` when the service
        computed the sweep, ``"degraded_local"`` when every host was
        unreachable and the fallback
        :meth:`~repro.runner.ExperimentRunner.run_degraded_local` ran
        instead — in which case the degradation is a structured trace
        event on the runner, **never** an exception out of here.
        """
        tasks = list(tasks)
        try:
            verdict = self.submit(tasks, label=label)
            submit_id = verdict["submit_id"]
            self.wait(submit_id, poll_s=poll_s, timeout_s=timeout_s)
            results = [
                self.fetch_result(cache_key(task.describe()))
                for task in tasks
            ]
            return {
                "source": "remote",
                "submit_id": submit_id,
                "results": results,
            }
        except AllHostsUnreachable as exc:
            reason = f"all hosts unreachable: {exc.last_error}"
        runner = local_runner
        if runner is None:
            from ...runner import ExperimentRunner

            runner = ExperimentRunner(**(local_runner_kwargs or {}))
        results = runner.run_degraded_local(tasks, reason=reason)
        return {
            "source": "degraded_local",
            "reason": reason,
            "results": results,
        }
