"""The sweep worker loop, run by remote hosts and local workers alike.

A worker claims (point, repetition) shards, executes each through the
*same* :func:`repro.runner.tasks.run_task` entry as every other
execution path — so seeds, cache keys and checkpoint behaviour are
identical — heartbeats its lease while it computes, and commits the
result or reports the failure.  :func:`work_loop` speaks that protocol
through a *client* with four calls — ``claim``, ``heartbeat``,
``commit``, ``fail`` — and two clients carry it:

- :class:`~repro.service.net.client.SweepClient`, over HTTP:
  ``repro-plc work --connect URL`` on any machine;
- :class:`PipeClient`, over a ``multiprocessing`` pipe: the local
  workers :meth:`Orchestrator.serve
  <repro.service.orchestrator.Orchestrator.serve>` starts
  (:func:`run_local_worker`).

Partition-safety contract:

- **Liveness is heartbeat recency only.**  A daemon thread heartbeats
  the lease every ``heartbeat_interval_s`` (the claim names the
  cadence).  Silence past the TTL is what gets a worker declared dead
  and its shard taken back.
- **A lost lease does not abort the attempt.**  If a heartbeat is
  refused (the watchdog reclaimed the lease during a partition), the
  worker *keeps computing* and still commits: commits are idempotent on
  the task's cache key, so the orchestrator accepts the bits whichever
  attempt lands first and answers ``duplicate`` to the rest.
- **A lost ack converges.**  Over HTTP the commit rides the
  :class:`~repro.service.net.client.SweepClient` retry loop; a response
  lost between commit and ack is retried and answered ``duplicate`` —
  same bits, no recomputation.

A remote worker never touches the service directory: its entire
interface is the wire protocol, which is what makes multi-host
sharding safe.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import traceback
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ...runner.tasks import exit_when_orphaned, run_task
from ..orchestrator import LOCAL_STOP
from ..worker import task_from_description
from .client import AllHostsUnreachable, SweepClient

__all__ = ["PipeClient", "run_local_worker", "work_loop"]


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def _heartbeat(client, task_id, worker_id, interval_s, stop, lost) -> None:
    """Heartbeat one claimed shard's lease until ``stop`` is set; set
    ``lost`` when the orchestrator refuses (the lease was reclaimed)."""
    while not stop.wait(interval_s):
        try:
            if not client.heartbeat(task_id, worker_id):
                lost.set()
        except AllHostsUnreachable:
            # Cut off from the orchestrator: keep computing.  The
            # watchdog may reclaim us; the commit still converges.
            continue


def work_loop(
    urls: Union[str, Sequence[str]],
    worker_id: Optional[str] = None,
    poll_s: float = 0.5,
    exit_when_idle: bool = False,
    idle_grace_s: float = 0.0,
    give_up_after_s: Optional[float] = None,
    client: Optional[Any] = None,
    max_tasks: Optional[int] = None,
) -> Dict[str, Any]:
    """Claim and execute shards until idle/unreachable bounds are hit.

    ``client`` carries the protocol (a :class:`SweepClient` for
    ``urls`` by default).  Returns a stats dict (``completed`` /
    ``duplicate`` / ``failed`` / ``lost_leases`` / ``claims`` /
    ``unreachable_s``).  With ``exit_when_idle`` the loop ends once the
    server has reported nothing claimable anywhere for ``idle_grace_s``
    continuously — a worker started *before* the first submission needs
    the grace to survive until work arrives.  ``give_up_after_s`` bounds
    how long the worker keeps polling through an unreachable or
    draining service (``None`` = forever, the production default —
    workers outlive restarts).

    A claim after an idle answer asks the server to hold it for
    ``poll_s``: it returns when a task can be leased, not a poll later.
    The first claim, and the first after a shard or an unreachable
    spell, is not held, so the worker learns at once where it stands.
    An idle answer that comes back before its hold ran out (a server
    that does not hold) sleeps the rest, so the loop never spins.
    """
    worker_id = worker_id or _default_worker_id()
    client = client or SweepClient(urls, role="worker", retries=1)
    stats: Dict[str, Any] = {
        "worker_id": worker_id,
        "claims": 0,
        "completed": 0,
        "duplicate": 0,
        "failed": 0,
        "lost_leases": 0,
        "unreachable_s": 0.0,
    }
    unreachable_since: Optional[float] = None
    idle_since: Optional[float] = None
    hold_s = 0.0
    while True:
        if max_tasks is not None and stats["claims"] >= max_tasks:
            return stats
        asked = time.monotonic()
        try:
            shard, idle = client.claim(worker_id, hold_s)
        except AllHostsUnreachable:
            hold_s = 0.0
            now = time.monotonic()
            if unreachable_since is None:
                unreachable_since = now
            stats["unreachable_s"] = now - unreachable_since
            if (
                give_up_after_s is not None
                and stats["unreachable_s"] >= give_up_after_s
            ):
                return stats
            time.sleep(poll_s)
            continue
        unreachable_since = None
        if shard is None:
            if idle and exit_when_idle:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                if now - idle_since >= idle_grace_s:
                    return stats
            else:
                idle_since = None
            now = time.monotonic()
            if asked + hold_s > now:
                time.sleep(asked + hold_s - now)
            hold_s = poll_s
            continue

        idle_since = None
        hold_s = 0.0
        stats["claims"] += 1
        task_id = shard["task_id"]
        task = task_from_description(
            shard["task"], runtime=shard.get("runtime")
        )
        stop, lost = threading.Event(), threading.Event()
        interval_s = max(0.05, float(shard.get("heartbeat_interval_s", 1.0)))
        beat = threading.Thread(
            target=_heartbeat,
            args=(client, task_id, worker_id, interval_s, stop, lost),
            name=f"heartbeat-{task_id[:12]}",
            daemon=True,
        )
        beat.start()
        started = time.perf_counter()
        failure = None
        try:
            envelope = run_task(task)
        except Exception as exc:
            failure = {
                "error": str(exc),
                "error_type": type(exc).__name__,
                "traceback": traceback.format_exc(),
            }
        stop.set()
        beat.join(timeout=2.0)
        stats["lost_leases"] += lost.is_set()
        if failure is not None:
            stats["failed"] += 1
            try:
                client.fail(task_id, worker_id, **failure)
            except AllHostsUnreachable:
                pass  # the watchdog will reclaim the silent lease
            continue
        try:
            outcome = client.commit(
                task_id,
                worker_id,
                result=envelope.get("result"),
                elapsed_s=envelope.get(
                    "elapsed_s", time.perf_counter() - started
                ),
                worker_pid=envelope.get("worker_pid", os.getpid()),
                spans=envelope.get("spans"),
            )
        except AllHostsUnreachable:
            # Commit lost to a partition: the reclaim + redelivery path
            # recomputes bit-identically; nothing more we can do here.
            continue
        if outcome == "committed":
            stats["completed"] += 1
        elif outcome == "duplicate":
            stats["duplicate"] += 1


class PipeClient:
    """The protocol's local carrier: one pipe to the orchestrator.

    Each call is one ``(name, task_id, fields)`` message answered by the
    orchestrator's loop with the return value of the matching
    ``Orchestrator.remote_*`` method — the pipe itself names the
    worker.  A broken pipe, or the :data:`~repro.service.orchestrator
    .LOCAL_STOP` answer to a claim, raises :class:`AllHostsUnreachable`,
    which :func:`work_loop` already treats as "no orchestrator".
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn
        # The heartbeat thread and the loop share the pipe.
        self._lock = threading.Lock()

    def _call(self, name: str, task_id: Optional[str] = None, **fields):
        with self._lock:
            try:
                self._conn.send((name, task_id, fields))
                return self._conn.recv()
            except (EOFError, OSError) as exc:
                raise AllHostsUnreachable(
                    "orchestrator pipe closed", last_error=exc
                ) from exc

    def claim(
        self, worker_id: str, wait_s: float = 0.0
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        # The orchestrator answers pipe calls from its loop, so nothing
        # holds the claim there.  Waiting first, then asking, keeps the
        # local cadence at one claim per ``poll_s`` while idle; left to
        # work_loop's fill-the-rest sleep, every idle spell would open
        # with two back-to-back claims.
        if wait_s > 0:
            time.sleep(wait_s)
        shard = self._call("claim")
        if shard == LOCAL_STOP:
            raise AllHostsUnreachable("orchestrator stopping")
        return shard, False

    def heartbeat(self, task_id: str, worker_id: str) -> bool:
        return self._call("heartbeat", task_id)

    def commit(self, task_id: str, worker_id: str, **fields: Any) -> str:
        return self._call("commit", task_id, **fields)

    def fail(self, task_id: str, worker_id: str, **fields: Any) -> str:
        return self._call("fail", task_id, **fields)


def run_local_worker(
    conn: Any,
    worker_id: str,
    parent_pid: int,
    poll_s: float,
    heartbeat_interval_s: float,
) -> None:
    """Process target of one local service worker: :func:`work_loop`
    over a pipe until the orchestrator says stop.

    SIGINT is ignored — a terminal's Ctrl-C reaches the whole process
    group, and the orchestrator drains instead, giving this worker time
    to commit — and SIGTERM kills, so the orchestrator can stop a
    worker whose lease outlived the drain window.  A daemon thread
    exits the process within one heartbeat interval of its parent's
    death, idle or busy: under ``fork`` a worker inherits the
    orchestrator's end of earlier workers' pipes, so neither EOF nor a
    failed send reliably tells it the orchestrator is gone.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    exit_when_orphaned(parent_pid, heartbeat_interval_s / 2)
    work_loop(
        (),
        worker_id=worker_id,
        poll_s=poll_s,
        give_up_after_s=0.0,
        client=PipeClient(conn),
    )
