"""JSON-over-HTTP wire helpers and client-side network fault injection.

One tiny protocol, stdlib only: every request and response body is a
JSON object (``Content-Type: application/json``), errors carry
``{"error": ...}``, and backpressure rides the standard headers (429 /
503 + ``Retry-After``).  :func:`http_json` is the single choke point
every client-side component (sweep client, remote worker) sends
through, which is exactly where the ``net_*`` fault points of
:mod:`repro.faults` fire:

- ``net_partition`` — raise before the request is sent: the other side
  never sees it;
- ``net_drop`` — send and let the server process, then raise before
  the caller sees the response: the lost-ack case.  The retried request
  must converge through idempotency (same submit hash, duplicate
  result commit), which is what the fault suite proves;
- ``net_duplicate`` — send the identical request twice, return the
  second response;
- ``net_delay`` — stall the exchange, then proceed normally.

The server side fires the same points in the request handler
(:mod:`repro.service.net.server`), so one ``REPRO_FAULT`` spec covers
both directions of the wire.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

from ... import faults

__all__ = [
    "NetRequestError",
    "http_json",
    "parse_hostport",
]

#: Default per-request wall-clock bound.
DEFAULT_TIMEOUT_S = 10.0


class NetRequestError(RuntimeError):
    """One HTTP exchange failed (connection, timeout, or injected fault).

    ``status`` is the HTTP status when a response arrived (5xx), else
    ``None`` (never connected / response lost).  ``retry_after_s``
    carries the server's ``Retry-After`` when it sent one.
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


def parse_hostport(spec: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """``"HOST:PORT"`` / ``":PORT"`` / ``"PORT"`` → ``(host, port)``."""
    spec = spec.strip()
    if ":" in spec:
        host, _, port = spec.rpartition(":")
        return (host or default_host), int(port)
    return default_host, int(spec)


def _retry_after(headers: Any) -> Optional[float]:
    value = headers.get("Retry-After") if headers is not None else None
    if value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def http_json(
    method: str,
    url: str,
    body: Optional[Dict[str, Any]] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    role: str = "client",
    etag: Optional[str] = None,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """One JSON exchange: ``(status, parsed body, response headers)``.

    Raises :class:`NetRequestError` on connection failure, timeout, a
    truncated response, 5xx, 429/503 backpressure (with
    ``retry_after_s`` attached), or an injected network fault —
    callers (the sweep client's retry loop) treat all of those
    uniformly as "this exchange did not succeed".
    2xx/304/4xx responses return normally; a 304 (ETag hit) returns an
    empty body.
    """
    point, options = faults.fire(*faults.NET_POINTS, role=role)
    if point == "net_partition":
        raise NetRequestError(
            f"injected partition: {method} {url} never sent"
        )
    if point == "net_delay":
        time.sleep(options["delay_s"])

    def _exchange() -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        data = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        request = urllib.request.Request(url, data=data, method=method)
        request.add_header("Content-Type", "application/json")
        if etag is not None:
            request.add_header("If-None-Match", etag)
        try:
            with urllib.request.urlopen(request, timeout=timeout_s) as resp:
                raw = resp.read()
                headers = dict(resp.headers.items())
                status = resp.status
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            headers = dict(exc.headers.items()) if exc.headers else {}
            status = exc.code
            if status >= 500 or status in (429, 503):
                raise NetRequestError(
                    f"{method} {url} -> {status}",
                    status=status,
                    retry_after_s=_retry_after(exc.headers),
                ) from exc
        except urllib.error.URLError as exc:
            raise NetRequestError(
                f"{method} {url} unreachable: {exc.reason}"
            ) from exc
        except (
            socket.timeout,
            TimeoutError,
            ConnectionError,
            OSError,
            http.client.HTTPException,  # e.g. a body torn by a dying server
        ) as exc:
            raise NetRequestError(
                f"{method} {url} failed: {exc}"
            ) from exc
        if not raw:
            return status, {}, headers
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise NetRequestError(
                f"{method} {url} -> {status}: unparseable body"
            ) from exc
        return status, parsed if isinstance(parsed, dict) else {}, headers

    result = _exchange()
    if point == "net_duplicate":
        result = _exchange()
    if point == "net_drop":
        # The server processed the request; the response is lost here.
        raise NetRequestError(
            f"injected drop: {method} {url} response lost"
        )
    return result
