"""Shared event-record conventions: ordered logs with JSONL export.

Every trace producer in the repo — the runner's task-lifecycle
:class:`~repro.runner.telemetry.TraceRecorder`, the MAC trace and the
SoF trace of :mod:`repro.obs.trace` — follows the same contract:

- events are collected **in record order** on an ``events`` list;
- each event serializes via ``as_jsonable()`` (dataclasses drop
  ``None`` fields; plain dicts pass through);
- ``flush_jsonl`` **appends** one JSON object per line and only writes
  events recorded since the last flush, so a recorder shared across
  several runs keeps one coherent trace file.

:class:`JsonlEventLog` implements that contract once; recorders either
subclass it or hold one, instead of re-growing drifting copies of the
append/serialize logic.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = ["as_jsonable", "append_jsonl", "read_jsonl", "JsonlEventLog"]


def _telemetry_ids() -> Optional[Dict[str, str]]:
    """The active telemetry ``run_id``/``span_id`` stamp, if any.

    Looked up through ``sys.modules`` rather than imported: when
    :mod:`repro.telemetry.context` was never loaded there is no active
    run by definition, and this costs one dict lookup — no import, no
    cycle (telemetry imports this module), no overhead for
    telemetry-free runs.
    """
    module = sys.modules.get("repro.telemetry.context")
    if module is None:
        return None
    return module.current_ids()


def as_jsonable(record: Any) -> Dict[str, Any]:
    """One event record as a JSON-serializable dict.

    Dataclasses are converted field-by-field with ``None`` fields
    dropped (absent-field convention: optional fields simply do not
    appear on the line); mappings pass through unchanged; objects
    providing their own ``as_jsonable()`` are deferred to.
    """
    method = getattr(record, "as_jsonable", None)
    if method is not None:
        return method()
    if dataclasses.is_dataclass(record) and not isinstance(record, type):
        return {
            key: value
            for key, value in dataclasses.asdict(record).items()
            if value is not None
        }
    if isinstance(record, dict):
        return record
    raise TypeError(
        f"cannot serialize event record of type {type(record).__name__}"
    )


def append_jsonl(path: Union[str, Path], records: Iterable[Any]) -> int:
    """Append ``records`` to ``path``, one JSON object per line.

    Parent directories are created on demand.  Returns the number of
    lines written.

    This is the single choke point every JSONL family flushes through
    (runner traces, MAC/SoF traces, chaos ledgers, checkpoint
    journals): when a telemetry run is active, each line gains the
    run's ``run_id``/``span_id`` so all streams of one run can be
    joined post hoc.  Records that already carry a ``run_id`` (span
    records, worker-annotated events) keep their own.
    """
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    ids = _telemetry_ids()
    written = 0
    with path.open("a", encoding="utf-8") as handle:
        for record in records:
            payload = as_jsonable(record)
            if ids is not None and "run_id" not in payload:
                payload = dict(payload)
                payload.update(ids)
            handle.write(json.dumps(payload) + "\n")
            written += 1
    return written


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a JSONL event file back into a list of dicts.

    Every line that is not a JSON object is skipped: ``kill -9`` mid-
    append leaves a torn line, and a restarted run appends after it,
    so the fragment can sit anywhere in the file.  A missing file
    raises.
    """
    rows: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(row, dict):
                rows.append(row)
    return rows


class JsonlEventLog:
    """Ordered event collector with incremental JSONL flushing.

    ``flush_jsonl`` appends only the events recorded since the last
    flush, so one log instance can back a long-running recorder that
    periodically persists its tail.
    """

    def __init__(self) -> None:
        self.events: List[Any] = []
        self._flushed = 0

    def __len__(self) -> int:
        return len(self.events)

    def append(self, record: Any) -> Any:
        """Append one event record and return it."""
        self.events.append(record)
        return record

    def flush_jsonl(self, path: Union[str, Path]) -> int:
        """Append unflushed events to ``path``; return how many."""
        fresh = self.events[self._flushed:]
        if not fresh:
            return 0
        written = append_jsonl(path, fresh)
        self._flushed = len(self.events)
        return written
