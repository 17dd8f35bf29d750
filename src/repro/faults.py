"""The fault plane: named fault points for the crash-recovery proofs.

Every recovery path — a task retried after a crash, a worker
replaced after it died, an orchestrator restarted from its journal, a
checkpointed point resumed mid-simulation, a request lost on the
wire — is proven by firing a fault at a named point and asserting the
outcome is bit-identical to an undisturbed run.  :data:`POINTS` is
the one table of those points; ``docs/robustness.md`` ("Fault points")
says where each fires and what it does.

Two environment variables arm them:

``REPRO_FAULT``
    ``point[:key=value,...][;point...]``.  Every point takes
    ``times=N`` (default 1): at most N firings in total across every
    process sharing the claim directory.  A point that is passed a
    *token* (the task cache key, the checkpoint store directory) fires
    at most once per token, so the retry of a faulted task runs clean.
    ``role`` restricts a ``net_*`` point to one side of the wire
    (``client``, ``server`` or ``worker``; default: any);
    ``checkpoint_write`` requires ``seq``, the snapshot number after
    which it fires.
``REPRO_FAULT_DIR``
    The claim directory: one ``O_EXCL`` slot file per firing.

A kill is ``os._exit`` — no ``atexit``, no ``finally``, no flushes, the
closest a process gets to ``kill -9`` from inside — with an exit code
that names who died: 117 a task's worker, 113 the orchestrator, 96 a
checkpointing worker.

A malformed spec, an unknown point or option, and ``REPRO_FAULT``
without ``REPRO_FAULT_DIR`` all raise :class:`ValueError` naming the
registered points — a typo fails loudly instead of never firing.
With ``REPRO_FAULT`` unset, :func:`fire` costs one ``os.environ.get``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Tuple

__all__ = [
    "ENV_FAULT",
    "ENV_FAULT_DIR",
    "NET_POINTS",
    "POINTS",
    "TASK_POINTS",
    "InjectedFault",
    "Point",
    "fire",
    "parse",
]

ENV_FAULT = "REPRO_FAULT"
ENV_FAULT_DIR = "REPRO_FAULT_DIR"

#: Marks an option that has no default and must be given.
_REQUIRED = object()


class Point(NamedTuple):
    """One registered fault point: exit code (``None``: the caller
    acts on the firing) and the options it takes besides ``times``."""

    exit_code: Optional[int]
    options: Dict[str, Any]


POINTS: Dict[str, Point] = {
    # Top of ``run_task``; the token is the task's cache key.
    "task_raise": Point(None, {}),
    "task_exit": Point(117, {}),
    "task_hang": Point(None, {"seconds": 30.0}),
    # The orchestrator: after a durable journal record, after the
    # ``lease_granted`` record, between the cache write and the
    # ``task_completed`` record.
    "journal_append": Point(113, {}),
    "lease_grant": Point(113, {}),
    "result_commit": Point(113, {}),
    # ``CheckpointStore.write``, after the durable write of snapshot
    # ``seq``; the token is the store directory.
    "checkpoint_write": Point(96, {"seq": _REQUIRED}),
    # Both HTTP boundaries: ``http_json`` and the server's ``_dispatch``.
    "net_drop": Point(None, {"role": None}),
    "net_delay": Point(None, {"role": None, "delay_s": 0.5}),
    "net_duplicate": Point(None, {"role": None}),
    "net_partition": Point(None, {"role": None}),
}

TASK_POINTS = ("task_raise", "task_exit", "task_hang")
NET_POINTS = ("net_drop", "net_delay", "net_duplicate", "net_partition")

_TYPES = {"times": int, "seconds": float, "delay_s": float, "seq": int, "role": str}
_ROLES = ("client", "server", "worker")


class InjectedFault(RuntimeError):
    """The task failure ``task_raise`` injects."""


def _error(message: str) -> ValueError:
    registered = ", ".join(
        f"{name}[{','.join(('times',) + tuple(point.options))}]"
        for name, point in POINTS.items()
    )
    return ValueError(f"{ENV_FAULT}: {message}; registered points: {registered}")


def parse(spec: str) -> Dict[str, Dict[str, Any]]:
    """``point[:key=value,...][;point...]`` → ``{point: options}``."""
    plan: Dict[str, Dict[str, Any]] = {}
    for item in spec.split(";"):
        name, _, rest = item.strip().partition(":")
        if name not in POINTS:
            raise _error(f"unknown fault point {name!r}")
        if name in plan:
            raise _error(f"fault point {name!r} armed twice")
        options = dict(POINTS[name].options, times=1)
        for pair in rest.split(",") if rest.strip() else ():
            key, sep, value = (part.strip() for part in pair.partition("="))
            if not sep or not key:
                raise _error(f"malformed option {pair!r} for {name!r}")
            if key not in options:
                raise _error(f"fault point {name!r} takes no option {key!r}")
            try:
                options[key] = _TYPES[key](value)
            except ValueError:
                raise _error(f"bad value {value!r} for {name}:{key}") from None
        missing = [key for key, value in options.items() if value is _REQUIRED]
        if missing:
            raise _error(f"fault point {name!r} requires {missing[0]}=")
        if options["times"] < 1:
            raise _error(f"times must be >= 1 for {name!r}")
        for key in ("seconds", "delay_s"):
            if options.get(key, 1) <= 0:
                raise _error(f"{name}:{key} must be > 0")
        if options.get("role") not in (None,) + _ROLES:
            raise _error(f"role must be one of {_ROLES} for {name!r}")
        plan[name] = options
    return plan


def fire(
    *points: str, token: Optional[str] = None, **context: Any
) -> Tuple[Optional[str], Dict[str, Any]]:
    """Claim one firing of the first armed point among ``points``.

    ``context`` must match the armed options it names (``role``,
    ``seq``; an armed ``None`` matches anything).  A point with an exit
    code ends the process with it; any other firing returns
    ``(point, options)`` for the caller to act on, and ``(None, {})``
    means nothing fired.
    """
    spec = os.environ.get(ENV_FAULT)
    if not spec:
        return None, {}
    plan = parse(spec)
    directory = os.environ.get(ENV_FAULT_DIR)
    if not directory:
        raise _error(f"{ENV_FAULT_DIR} must name a claim directory")
    for point in points:
        if point not in POINTS:
            raise _error(f"unknown fault point {point!r} fired")
        options = plan.get(point)
        if options is None or any(
            options[key] not in (None, value) for key, value in context.items()
        ):
            continue
        if not _claim(Path(directory), point, token, options["times"]):
            continue
        exit_code = POINTS[point].exit_code
        if exit_code is not None:
            os._exit(exit_code)
        return point, options
    return None, {}


def _claim(directory: Path, point: str, token: Optional[str], times: int) -> bool:
    """Take one of ``times`` slots of ``point``, atomically (``O_EXCL``).

    A slot records its taker's token, so a token that already holds a
    slot of this point claims nothing more.
    """
    directory.mkdir(parents=True, exist_ok=True)
    for k in range(times):
        slot = directory / f"slot-{point}-{k}"
        try:
            with open(slot, "x", encoding="utf-8") as handle:
                handle.write(token if token is not None else str(os.getpid()))
            return True
        except FileExistsError:
            if token is not None and slot.read_text(encoding="utf-8") == token:
                return False
    return False
