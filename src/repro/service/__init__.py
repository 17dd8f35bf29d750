"""Durable sweep orchestration: the long-lived service layer.

ROADMAP item 2's chassis: a supervised orchestrator that accepts sweep
submissions, executes them through the existing runner/cache/
checkpoint/telemetry substrates, and — the point of the package —
survives its own death.  Every task lifecycle transition is journaled
to an append-only, checksummed WAL before it takes effect
(:mod:`~repro.service.journal`), work is claimed through heartbeated
leases a watchdog can reclaim — local worker processes and remote
hosts run one worker loop against one lease table
(:mod:`~repro.service.orchestrator`), and the local ones are the same
worker plane ``ExperimentRunner`` drives
(:mod:`repro.runner.workers`) — poison tasks land in a
forensics quarantine instead of wedging the sweep
(:mod:`~repro.service.quarantine`), and SIGTERM drains cleanly
(:mod:`~repro.service.signals`).  ``kill -9`` at any instant — proven
at the orchestrator's fault points in :mod:`repro.faults` — followed by
a restart yields results bit-identical to an uninterrupted run.

Entry points: :class:`Orchestrator` / :class:`ServiceConfig` (the
``repro-plc serve`` loop), :func:`~repro.service.submit
.build_submission` + :func:`~repro.service.submit.write_submission`
(``submit``), :func:`~repro.service.status.service_status`
(``status``), :func:`~repro.service.orchestrator.request_drain`
(``drain``).

The HTTP layer lives in :mod:`repro.service.net`: ``serve --http``
front end, the fault-tolerant :class:`~repro.service.net.SweepClient`,
and :func:`~repro.service.net.work_loop`, the worker loop
``work --connect`` hosts run over HTTP — imported lazily by its users,
not re-exported here.
"""

from .journal import (
    JOURNAL_FILENAME,
    JournalError,
    JournalWriter,
    journal_tail_state,
    read_journal,
    seal_record,
    verify_record,
)
from .orchestrator import (
    Orchestrator,
    ServiceConfig,
    ServicePaths,
    request_drain,
)
from .quarantine import read_quarantine_records, write_quarantine_record
from .signals import ShutdownRequested, handle_signals
from .state import ServiceState, TaskRecord, TaskState, fold_journal
from .status import pid_alive, render_service_status, service_status
from .submit import (
    build_submission,
    read_submission,
    standard_sweep_tasks,
    submission_id,
    validate_submission,
    write_submission,
)
from ..runner.workers import task_from_description

__all__ = [
    "JOURNAL_FILENAME",
    "JournalError",
    "JournalWriter",
    "journal_tail_state",
    "read_journal",
    "seal_record",
    "verify_record",
    "Orchestrator",
    "ServiceConfig",
    "ServicePaths",
    "request_drain",
    "read_quarantine_records",
    "write_quarantine_record",
    "ShutdownRequested",
    "handle_signals",
    "ServiceState",
    "TaskRecord",
    "TaskState",
    "fold_journal",
    "pid_alive",
    "render_service_status",
    "service_status",
    "build_submission",
    "read_submission",
    "standard_sweep_tasks",
    "submission_id",
    "validate_submission",
    "write_submission",
    "task_from_description",
]
