"""The HTTP layer of the sweep service: front end, client, sharding.

ROADMAP item 2's remaining half: the PR 9 durable orchestrator goes on
the network, stdlib-only (``http.server`` / ``urllib`` — no new
dependencies), with the same fault-tolerance discipline extended across
the wire:

- :mod:`~repro.service.net.server` — ``repro-plc serve --http :PORT``:
  idempotent ``POST /v1/sweeps`` (submissions hash to the same sha256
  task ids as ``submit``, so retries and concurrent clients dedupe
  against the cache and journal for free), folded status under ETags,
  OpenMetrics exposition, 429 + Retry-After admission control, and the
  worker protocol over HTTP (claim / heartbeat / result / fail);
- :mod:`~repro.service.net.client` — :class:`SweepClient`: per-request
  timeouts, bounded retries with seedable full-jitter backoff
  (:class:`~repro.runner.backoff.FullJitterBackoff`), a
  circuit breaker per host, and graceful degradation to local
  :class:`~repro.runner.ExperimentRunner` execution when every host is
  unreachable — a structured ``degraded_local`` trace event, never a
  stack trace;
- :mod:`~repro.service.net.worker` — :func:`work_loop`, the one
  worker loop of :mod:`repro.runner.workers` over HTTP: ``repro-plc
  work --connect URL`` claims a (point, rep) shard, heartbeats its
  lease and commits the result, with :class:`SweepClient` carrying the
  claim / heartbeat / commit / fail calls; results commit
  cache.put-then-journal, so a partition between commit and ack
  converges on redelivery;
- :mod:`~repro.service.net.wire` — the JSON wire helpers; the
  ``net_drop``, ``net_delay``, ``net_duplicate`` and ``net_partition``
  fault points of :mod:`repro.faults` fire there and in the server, at
  the HTTP boundary on both sides.

Every mutation a handler thread performs goes through the
orchestrator's lock — the journal keeps its single writer, HTTP or not.
"""

from .client import AllHostsUnreachable, CircuitBreaker, SweepClient
from .server import ServiceHTTPServer, serve_http
from .wire import NetRequestError, http_json, parse_hostport
from .worker import work_loop

__all__ = [
    "AllHostsUnreachable",
    "CircuitBreaker",
    "NetRequestError",
    "ServiceHTTPServer",
    "SweepClient",
    "http_json",
    "parse_hostport",
    "serve_http",
    "work_loop",
]
