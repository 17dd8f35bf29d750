"""The HTTP worker: ``repro-plc work --connect URL`` on any host.

:func:`work_loop` runs the one worker loop,
:func:`repro.runner.workers.work_loop`, with a
:class:`~repro.service.net.client.SweepClient` as its carrier: claims,
heartbeats, commits and failure reports become requests to the
``serve --http`` front end.  The loop's partition-safety contract —
liveness is heartbeat recency, a lost lease does not abort the attempt,
a lost ack converges on redelivery — is documented with it in
:mod:`repro.runner.workers`.

A remote worker never touches the service directory: its entire
interface is the wire protocol, which is what makes multi-host
sharding safe.
"""

from __future__ import annotations

import os
import socket
from typing import Any, Dict, Optional, Sequence, Union

from ...runner import workers
from .client import SweepClient

__all__ = ["work_loop"]


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
    """Claim and execute tasks from the service at ``urls``.

    ``client`` replaces the :class:`SweepClient` for ``urls``; the
    other arguments, and the stats dict returned, are those of
    :func:`repro.runner.workers.work_loop`.  The worker id defaults to
    ``<hostname>-<pid>``.
    """
    return workers.work_loop(
        client or SweepClient(urls, role="worker", retries=1),
        worker_id or f"{socket.gethostname()}-{os.getpid()}",
        poll_s=poll_s,
        exit_when_idle=exit_when_idle,
        idle_grace_s=idle_grace_s,
        give_up_after_s=give_up_after_s,
        max_tasks=max_tasks,
    )
