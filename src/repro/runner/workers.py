"""The worker plane: one worker loop, and the forked workers that run it.

Every task that runs outside its submitting process runs in a worker
that speaks one protocol — claim a task, heartbeat it while it runs,
then commit the result or report the failure — in :func:`work_loop`.
The loop executes each claimed task through the *same*
:func:`repro.runner.tasks.run_task` entry as every other execution
path, so seeds, cache keys and checkpoint behaviour are identical
wherever a task runs.  Two carriers connect it to an owner:

- :class:`PipeClient`, a ``multiprocessing`` pipe to the process that
  forked the worker.  :class:`WorkerPlane` forks and supervises such
  workers for two owners: :class:`~repro.runner.runner.ExperimentRunner`
  with ``max_workers > 1``, and the service's
  :class:`~repro.service.orchestrator.Orchestrator` (``repro-plc serve
  --workers N``);
- :class:`~repro.service.net.client.SweepClient`, over HTTP:
  ``repro-plc work --connect URL`` on any host
  (:func:`repro.service.net.worker.work_loop`).

Partition-safety contract of the loop:

- **Liveness is heartbeat recency only.**  A daemon thread heartbeats
  the lease every ``heartbeat_interval_s`` (the claim may name the
  cadence).  Silence past the owner's TTL is what gets a worker
  declared dead and its task taken back.
- **A lost lease does not abort the attempt.**  If a heartbeat is
  refused (the owner took the lease back during a partition), the
  worker *keeps computing* and still commits: commits are idempotent on
  the task's cache key, so the service accepts the bits whichever
  attempt lands first and answers ``duplicate`` to the rest.
- **A lost ack converges.**  Over HTTP the commit rides the
  :class:`~repro.service.net.client.SweepClient` retry loop; a response
  lost between commit and ack is retried and answered ``duplicate`` —
  same bits, no recomputation.

A forked worker is its owner's own child, so the plane knows when one
stops working: it kills a worker whose task overran the owner's
timeout or (for an owner that judges silence) whose heartbeats
stopped, notices one that exited, and tells the owner — the task that
worker held has failed one attempt, and no other task is charged —
before the owner forks a replacement.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import sys
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

from .seeding import SeedSpec
from .tasks import Task, run_task

__all__ = [
    "HEARTBEAT_S",
    "IDLE_CLAIM_S",
    "SILENCE_TTL_S",
    "LocalWorker",
    "PipeClient",
    "Unreachable",
    "WorkerPlane",
    "run_local_worker",
    "task_from_description",
    "work_loop",
]

#: Seconds an idle local worker waits before it claims again.
IDLE_CLAIM_S = 0.05

#: Seconds between a busy worker's heartbeats; an orphaned local worker
#: exits within half of it.
HEARTBEAT_S = 1.0

#: Heartbeat silence after which the service takes a busy worker's
#: lease back (``ServiceConfig.lease_ttl_s``).
SILENCE_TTL_S = 10.0


class Unreachable(RuntimeError):
    """The carrier cannot reach the worker's owner: a closed pipe, or
    (as :class:`~repro.service.net.client.AllHostsUnreachable`) every
    HTTP host failing."""

    def __init__(
        self, message: str, last_error: Optional[BaseException] = None
    ):
        super().__init__(message)
        self.last_error = last_error


def task_from_description(
    description: Dict[str, Any],
    runtime: Optional[Dict[str, Any]] = None,
) -> Task:
    """Rebuild a :class:`Task` from its ``describe()`` dict.

    The inverse of :meth:`Task.describe` — what a claim carries to a
    worker, and what lets a restarted orchestrator reconstruct its
    whole queue from the journal alone, with cache keys (and therefore
    result identity) unchanged.
    """
    seed = description.get("seed")
    return Task(
        kind=description["kind"],
        payload=description["payload"],
        seed=SeedSpec.from_jsonable(seed) if seed else None,
        runtime=runtime,
    )


def _heartbeat(client, task_id, worker_id, interval_s, stop, lost) -> None:
    """Heartbeat one claimed task's lease until ``stop`` is set; set
    ``lost`` when the owner refuses (the lease was taken back)."""
    while not stop.wait(interval_s):
        try:
            if not client.heartbeat(task_id, worker_id):
                lost.set()
        except Unreachable:
            # Cut off from the owner: keep computing.  The watchdog
            # may take the lease back; the commit still converges.
            continue


def work_loop(
    client: Any,
    worker_id: str,
    poll_s: float = 0.5,
    exit_when_idle: bool = False,
    idle_grace_s: float = 0.0,
    give_up_after_s: Optional[float] = None,
    max_tasks: Optional[int] = None,
) -> Dict[str, Any]:
    """Claim and execute tasks through ``client`` until a bound is hit.

    ``client`` carries the four calls (``claim``, ``heartbeat``,
    ``commit``, ``fail``).  Returns a stats dict (``completed`` /
    ``duplicate`` / ``failed`` / ``lost_leases`` / ``claims`` /
    ``unreachable_s``).  With ``exit_when_idle`` the loop ends once the
    owner has reported nothing claimable anywhere for ``idle_grace_s``
    continuously — a worker started *before* the first submission needs
    the grace to survive until work arrives.  ``give_up_after_s`` bounds
    how long the worker keeps polling through an unreachable or
    draining owner (``None`` = forever, the production default —
    workers outlive restarts).

    A claim after an idle answer asks the owner to hold it for
    ``poll_s``: it returns when a task can be leased, not a poll later.
    The first claim, and the first after a task or an unreachable
    spell, is not held, so the worker learns at once where it stands.
    An idle answer that comes back before its hold ran out (an owner
    that does not hold) sleeps the rest, so the loop never spins.
    """
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
        except Unreachable:
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
        interval_s = max(
            0.05, float(shard.get("heartbeat_interval_s", HEARTBEAT_S))
        )
        beat = threading.Thread(
            target=_heartbeat,
            args=(client, task_id, worker_id, interval_s, stop, lost),
            name=f"heartbeat-{str(task_id)[:12]}",
            daemon=True,
        )
        beat.start()
        started = time.perf_counter()
        failure = None
        try:
            envelope = run_task(task)
        except Exception as exc:
            failure = {
                "error": str(exc) or repr(exc),
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
            except Unreachable:
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
        except Unreachable:
            # Commit lost to a partition: the reclaim + redelivery path
            # recomputes bit-identically; nothing more we can do here.
            continue
        if outcome == "committed":
            stats["completed"] += 1
        elif outcome == "duplicate":
            stats["duplicate"] += 1


class PipeClient:
    """The protocol's local carrier: one pipe to the owner.

    Each call is one ``(name, task_id, fields)`` message, answered by
    the owner's :class:`WorkerPlane` — the pipe itself names the
    worker.  A broken pipe raises :class:`Unreachable`, which
    :func:`work_loop` treats as "no owner".
    """

    def __init__(self, conn: Any) -> None:
        self._conn = conn
        # The heartbeat thread and the loop share the pipe.
        self._lock = threading.Lock()

    def _call(self, name: str, task_id: Any = None, **fields: Any) -> Any:
        with self._lock:
            try:
                self._conn.send((name, task_id, fields))
                return self._conn.recv()
            except (EOFError, OSError) as exc:
                raise Unreachable(
                    "owner pipe closed", last_error=exc
                ) from exc

    def claim(
        self, worker_id: str, wait_s: float = 0.0
    ) -> Tuple[Optional[Dict[str, Any]], bool]:
        # The owner answers pipe calls from its loop, so nothing holds
        # the claim there.  Waiting first, then asking, keeps the local
        # cadence at one claim per ``poll_s`` while idle; left to
        # work_loop's fill-the-rest sleep, every idle spell would open
        # with two back-to-back claims.
        if wait_s > 0:
            time.sleep(wait_s)
        return self._call("claim"), False

    def heartbeat(self, task_id: Any, worker_id: str) -> bool:
        return self._call("heartbeat", task_id)

    def commit(self, task_id: Any, worker_id: str, **fields: Any) -> str:
        return self._call("commit", task_id, **fields)

    def fail(self, task_id: Any, worker_id: str, **fields: Any) -> str:
        return self._call("fail", task_id, **fields)


def run_local_worker(
    conn: Any,
    worker_id: str,
    parent_pid: int,
    poll_s: float,
    heartbeat_interval_s: float,
) -> None:
    """Process target of one local worker: :func:`work_loop` over a
    pipe until its owner stops it.

    SIGINT is ignored — a terminal's Ctrl-C reaches the whole process
    group, and the owner decides what a worker still computing gets.
    SIGTERM, which :meth:`WorkerPlane.stop` sends an idle worker,
    leaves through ``SystemExit``, so the process exits as a finished
    one does, exit handlers included.  A worker may not outlive its
    owner — it would compute for nobody and hold the owner's stdout
    open — so a daemon thread exits the process within half a
    heartbeat interval of the owner's death, idle or busy: under
    ``fork`` a worker inherits its owner's end of earlier workers'
    pipes, so neither EOF nor a failed send reliably tells it the owner
    is gone.
    """

    def exit_when_orphaned() -> None:
        while True:
            time.sleep(heartbeat_interval_s / 2)
            if os.getppid() != parent_pid:
                os._exit(1)

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    threading.Thread(
        target=exit_when_orphaned, name="orphan-check", daemon=True
    ).start()
    work_loop(
        PipeClient(conn), worker_id, poll_s=poll_s, give_up_after_s=0.0
    )


@dataclasses.dataclass
class LocalWorker:
    """One forked worker, this end of its pipe, and the task it holds."""

    worker_id: str
    proc: multiprocessing.Process
    #: ``None`` once the pipe reached EOF; :meth:`WorkerPlane.watch`
    #: settles the exit.
    conn: Optional[multiprocessing.connection.Connection]
    #: The claimed task's id, ``None`` while idle.
    task_id: Any = None
    #: Monotonic times of the claim and of the latest heartbeat.
    granted: float = 0.0
    last_beat: float = 0.0


class WorkerPlane:
    """Up to ``size`` forked workers running :func:`work_loop` over pipes.

    The owner drives the plane from one thread: :meth:`spawn` forks
    workers, :meth:`answer` relays each call to ``call(worker_id, name,
    task_id, fields)`` — a claim is answered with a task dict
    (``task_id``, ``task`` as a ``describe()`` dict, optional
    ``runtime``) or ``None`` — and :meth:`watch` removes every worker
    that exited (verdict ``"exited"``), whose heartbeats stopped for
    ``ttl_s`` (``"silent"``) or whose task ran past ``timeout_s``
    (``"overrun"``), reporting each to ``lost(worker_id, task_id,
    verdict, error, pid)`` with the task it held (``None`` if idle).
    With ``ttl_s=None`` silence is not judged: a worker that was only
    stopped (a suspended process group, a frozen cgroup) is still
    working once it resumes.  :meth:`stop` ends every worker at once;
    what a stopped worker held is the owner's to settle.
    """

    def __init__(
        self,
        size: int,
        call: Callable[[str, str, Any, Dict[str, Any]], Any],
        lost: Callable[[str, Any, str, str, Optional[int]], None],
        *,
        ttl_s: Optional[float],
        timeout_s: Optional[float] = None,
        poll_s: float = IDLE_CLAIM_S,
        heartbeat_s: float = HEARTBEAT_S,
    ) -> None:
        self.size = size
        self._call = call
        self._lost = lost
        self.timeout_s = timeout_s
        self.ttl_s = math.inf if ttl_s is None else ttl_s
        self.poll_s = poll_s
        self.heartbeat_s = heartbeat_s
        #: The live workers, by worker id.
        self.workers: Dict[str, LocalWorker] = {}
        self._spawned = 0

    def spawn(self) -> None:
        """Fork workers until ``size`` are running."""
        while len(self.workers) < self.size:
            self._spawned += 1
            worker_id = f"local-{os.getpid()}-{self._spawned}"
            ours, theirs = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=run_local_worker,
                args=(
                    theirs,
                    worker_id,
                    os.getpid(),
                    self.poll_s,
                    self.heartbeat_s,
                ),
                name=worker_id,
            )
            proc.start()
            theirs.close()
            self.workers[worker_id] = LocalWorker(worker_id, proc, ours)

    def answer(self, timeout_s: float) -> None:
        """Wait up to ``timeout_s`` for calls, and answer the ones that
        arrive.  A worker's death closes its pipe, which wakes the wait
        too; :meth:`watch` settles it."""
        ready = {
            worker.conn: worker
            for worker in self.workers.values()
            if worker.conn is not None
        }
        if not ready:
            time.sleep(timeout_s)
            return
        for conn in multiprocessing.connection.wait(list(ready), timeout_s):
            worker = ready[conn]
            try:
                name, task_id, fields = conn.recv()
            except (EOFError, OSError):
                conn.close()
                worker.conn = None
                continue
            reply = self._call(worker.worker_id, name, task_id, fields)
            if name == "claim" and reply is not None:
                worker.task_id = reply["task_id"]
                worker.granted = worker.last_beat = time.monotonic()
            elif name == "heartbeat" and task_id == worker.task_id:
                worker.last_beat = time.monotonic()
            elif name in ("commit", "fail"):
                worker.task_id = None
            try:
                conn.send(reply)
            except OSError:
                pass  # it died after asking; watch() settles it

    def watch(self) -> None:
        """Remove exited, silent and overrun workers; report each.

        The calls already waiting are answered first, so a heartbeat or
        a commit that arrived while the owner was busy counts before a
        worker is judged.
        """
        self.answer(0.0)
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if not worker.proc.is_alive():
                verdict = "exited"
            elif worker.task_id is None:
                continue
            elif (
                self.timeout_s is not None
                and now - worker.granted > self.timeout_s
            ):
                verdict = "overrun"
            elif now - worker.last_beat > self.ttl_s:
                verdict = "silent"
            else:
                continue
            del self.workers[worker.worker_id]
            worker.proc.kill()
            worker.proc.join(timeout=5.0)
            if worker.conn is not None:
                worker.conn.close()
            if verdict == "exited":
                error = (
                    "worker exited mid-task "
                    f"(exitcode={worker.proc.exitcode})"
                )
            else:
                error = f"watchdog reclaim: {verdict} lease"
            self._lost(
                worker.worker_id,
                worker.task_id,
                verdict,
                error,
                worker.proc.pid,
            )

    def stop(self) -> None:
        """End every worker now.  An idle one holds nothing and leaves
        cleanly on SIGTERM; a busy one is killed."""
        for worker in self.workers.values():
            if worker.task_id is None:
                worker.proc.terminate()
            else:
                worker.proc.kill()
        for worker in self.workers.values():
            worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():
                worker.proc.kill()
                worker.proc.join(timeout=5.0)
            if worker.conn is not None:
                worker.conn.close()
        self.workers.clear()
