"""The read-only service status view behind ``repro-plc status``.

Reads two on-disk streams — neither of which the reader may mutate —
into one operator picture:

- the **journal** (via :func:`repro.service.state.fold_journal`): queue
  counts, per-kind rows (tasks by state, failed attempts, cache hits),
  submissions, incarnation history.  The same fold a restart runs and
  the live orchestrator keeps, so status shows exactly the state a
  crash would recover to — while the service runs, and after it was
  killed, when no telemetry file was ever flushed;
- the **quarantine** forensics records, so the parked tasks are listed
  with their failure signatures, not just counted.

Everything is computed from files; a live orchestrator is detected only
by its pid file + a liveness probe, never contacted.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .journal import journal_tail_state
from .orchestrator import ServicePaths
from .quarantine import read_quarantine_records
from .state import ServiceState, TaskState, fold_journal

__all__ = ["pid_alive", "render_service_status", "service_status"]

#: The columns of a per-kind row: tasks by state, then attempt totals.
_ROW_KEYS = TaskState.ALL + ("failed_attempts", "cache_hits")


def pid_alive(pid: Optional[int]) -> bool:
    """True when ``pid`` names an existing process we may signal."""
    if not pid or pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # Exists but owned by someone else — still alive.
        return True
    except OSError:
        return False
    return True


def _kind_rows(state: ServiceState) -> Dict[str, Dict[str, int]]:
    """Per task kind: tasks in each state, failed attempts, cache hits."""
    rows: Dict[str, Dict[str, int]] = {}
    for task in state.tasks.values():
        row = rows.setdefault(task.kind or "?", dict.fromkeys(_ROW_KEYS, 0))
        row[task.state] += 1
        row["failed_attempts"] += task.attempts
        row["cache_hits"] += task.completed_from == "cache"
    return rows


def service_status(
    service_dir: Union[str, Path],
) -> Dict[str, Any]:
    """The full status document for one service directory."""
    paths = ServicePaths(Path(service_dir))
    state = fold_journal(paths.journal)

    serving_pid = None
    try:
        pid = int(paths.pid_file.read_text(encoding="utf-8").strip())
        if pid_alive(pid):
            serving_pid = pid
    except (OSError, ValueError):
        pass

    quarantined = [
        {
            "task_id": record["task_id"],
            "kind": record.get("task", {}).get("kind"),
            "attempts": record.get("attempts"),
            "last_error": (
                record["failures"][-1].get("error")
                if record.get("failures")
                else None
            ),
            "last_error_type": (
                record["failures"][-1].get("error_type")
                if record.get("failures")
                else None
            ),
        }
        for record in read_quarantine_records(paths.quarantine)
    ]

    return {
        "service_dir": str(paths.root),
        "serving": serving_pid is not None,
        "serving_pid": serving_pid,
        "drain_requested": paths.drain_marker.exists(),
        "journal_records": state.records,
        "corrupt_records": state.corrupt_records,
        "journal_tail": journal_tail_state(paths.journal),
        "stopped_clean": state.stopped_clean,
        "counts": state.counts(),
        "queue_depth": state.queue_depth,
        "inbox": len(list(paths.inbox.glob("*.json")))
        if paths.inbox.is_dir()
        else 0,
        "submits": [
            {
                "submit_id": s.submit_id,
                "accepted": s.accepted,
                "label": s.label,
                "task_count": s.task_count,
                "deduped": s.deduped,
                "reason": s.reason,
            }
            for s in state.submits.values()
        ],
        "quarantined": quarantined,
        "kinds": _kind_rows(state),
    }


def render_service_status(status: Dict[str, Any]) -> str:
    """One human-readable text frame of a status document."""
    lines: List[str] = []
    counts = status["counts"]
    serving = (
        f"serving (pid {status['serving_pid']})"
        if status["serving"]
        else ("stopped clean" if status["stopped_clean"] else "stopped")
    )
    if status["drain_requested"]:
        serving += " [drain requested]"
    lines.append(f"service   : {status['service_dir']}")
    lines.append(f"state     : {serving}")
    lines.append(
        "tasks     : "
        f"{counts[TaskState.COMPLETED]} completed, "
        f"{counts[TaskState.PENDING]} pending, "
        f"{counts[TaskState.LEASED]} leased, "
        f"{counts[TaskState.QUARANTINED]} quarantined"
    )
    lines.append(
        f"journal   : {status['journal_records']} records"
        + (
            f" ({status['corrupt_records']} corrupt skipped)"
            if status["corrupt_records"]
            else ""
        )
        + (
            f" [tail {status['journal_tail']}]"
            if status.get("journal_tail") not in (None, "clean")
            else ""
        )
    )
    if status["inbox"]:
        lines.append(f"inbox     : {status['inbox']} submission(s) waiting")
    for submit in status["submits"]:
        verdict = "accepted" if submit["accepted"] else "REJECTED"
        label = f" '{submit['label']}'" if submit["label"] else ""
        detail = (
            f"{submit['task_count']} task(s), {submit['deduped']} deduped"
            if submit["accepted"]
            else str(submit["reason"])
        )
        lines.append(
            f"submit    : {submit['submit_id'][:12]}{label} "
            f"{verdict} — {detail}"
        )
    for parked in status["quarantined"]:
        lines.append(
            f"quarantine: {parked['task_id'][:12]} ({parked['kind']}) "
            f"after {parked['attempts']} attempt(s) — "
            f"{parked['last_error_type']}: {parked['last_error']}"
        )
    for kind, row in sorted(status["kinds"].items()):
        lines.append(
            f"kind      : {kind} "
            + ", ".join(
                f"{row[key]} {key.replace('_', ' ')}"
                for key in _ROW_KEYS
                if row[key]
            )
        )
    return "\n".join(lines)
