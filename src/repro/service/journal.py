"""The write-ahead task journal: the service's single source of truth.

Every lifecycle transition of every (point, rep) task the orchestrator
handles — ``task_enqueued`` → ``lease_granted`` → ``task_completed`` /
``task_failed`` / ``task_quarantined`` — is appended to one JSONL file
*before* the transition takes effect anywhere else.  ``kill -9`` of the
orchestrator at any instant therefore loses at most the transition being
written, and a restart replays the journal to exactly the pre-kill
state (:func:`repro.service.state.fold_journal`).

Durability and integrity contract:

- each append is one ``write`` + ``flush`` + ``fsync`` of a single line,
  so a torn write can only affect the final line of the file;
- every record carries a sha256 checksum (``check``) of its own
  canonical JSON body (via :func:`repro.checkpoint.integrity.sha256_hex`
  — the same primitive the checkpoint container and the result cache
  use), so a torn or bit-flipped line is *detected*, counted, and
  skipped on replay instead of corrupting the fold;
- records are strictly sequence-numbered (``seq``) per writer
  incarnation; replay tolerates gaps (a skipped corrupt line) but the
  count of skipped lines is reported so operators can see damage.

The journal has exactly **one writer at a time** — the orchestrator
process owning the service directory.  Cross-process inputs (sweep
submissions) arrive through the inbox directory instead, and become
journal records only when the orchestrator accepts them.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import faults
from ..checkpoint.integrity import sha256_hex
from ..runner.serialize import canonical_json

__all__ = [
    "JOURNAL_FILENAME",
    "JournalError",
    "JournalWriter",
    "journal_tail_state",
    "read_journal",
    "seal_record",
    "verify_record",
]

#: The journal file inside a service directory.
JOURNAL_FILENAME = "journal.jsonl"

#: Field carrying the per-record checksum.
CHECK_FIELD = "check"


class JournalError(RuntimeError):
    """The journal cannot be written (I/O failure on the WAL path)."""


def seal_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """Return ``record`` with its integrity checksum attached.

    The checksum covers the canonical JSON of every field *except*
    ``check`` itself, so verification is order-independent and the
    sealed record stays one self-contained JSONL line.
    """
    body = {k: v for k, v in record.items() if k != CHECK_FIELD}
    sealed = dict(body)
    sealed[CHECK_FIELD] = sha256_hex(canonical_json(body).encode("utf-8"))
    return sealed


def verify_record(record: Dict[str, Any]) -> bool:
    """True when ``record``'s checksum matches its body."""
    check = record.get(CHECK_FIELD)
    if not isinstance(check, str):
        return False
    body = {k: v for k, v in record.items() if k != CHECK_FIELD}
    return sha256_hex(canonical_json(body).encode("utf-8")) == check


class JournalWriter:
    """Append sealed lifecycle records to the on-disk journal.

    The file handle is kept open across appends (one ``open`` per
    orchestrator incarnation, not per record); each append is flushed
    and fsynced before :meth:`append` returns, so a record the caller
    has seen committed survives any subsequent crash.

    ``sync=False`` drops the per-record fsync — only for tests and
    benchmarks that measure the journaling cost itself; a real service
    must keep it on.
    """

    def __init__(
        self, path: Union[str, Path], sync: bool = True
    ) -> None:
        self.path = Path(path)
        self.sync = sync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        #: Sequence number of the next record from this writer.
        self.seq = _next_seq(self.path)

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Durably append one ``event`` record; returns the sealed record.

        The ``journal_append`` fault point (see :mod:`repro.faults`)
        fires *after* the record is
        durable — the crash-recovery suite proves a record the journal
        acknowledged is never lost.
        """
        record: Dict[str, Any] = {
            "seq": self.seq,
            "event": event,
            "epoch_s": time.time(),
        }
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        sealed = seal_record(record)
        try:
            self._handle.write(json.dumps(sealed) + "\n")
            self._handle.flush()
            if self.sync:
                os.fsync(self._handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path}: {exc}"
            ) from exc
        self.seq += 1
        faults.fire("journal_append")
        return sealed

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _next_seq(path: Path) -> int:
    """The sequence number a new writer should continue from."""
    records, _corrupt = read_journal(path)
    if not records:
        return 0
    return max(int(r.get("seq", -1)) for r in records) + 1


def read_journal(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], int]:
    """Replay the journal: ``(valid records in file order, skipped)``.

    Lines that fail JSON parsing or checksum verification are skipped
    and counted — a torn final line (the only damage a crashed single
    writer can inflict) costs exactly the in-flight record, and
    mid-file corruption (disk damage) is surfaced without poisoning the
    fold.  A missing journal is an empty one.
    """
    path = Path(path)
    records: List[Dict[str, Any]] = []
    corrupt = 0
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    corrupt += 1
                    continue
                if not isinstance(record, dict) or not verify_record(record):
                    corrupt += 1
                    continue
                records.append(record)
    except FileNotFoundError:
        return [], 0
    return records, corrupt


def journal_tail_state(path: Union[str, Path]) -> str:
    """Integrity verdict on the journal's final physical line.

    ``"clean"`` — the last line parses and verifies (or the file is
    empty); ``"torn"`` — it doesn't, which while an orchestrator is
    alive just means the status reader raced a mid-append ``write``
    (the verifying replay skips it; the record is not yet acknowledged
    so nothing is lost); ``"missing"`` — no journal file yet.  Status
    views report this instead of crashing on the racing line.
    """
    path = Path(path)
    last = b""
    try:
        with path.open("rb") as handle:
            for raw in handle:
                if raw.strip():
                    last = raw
    except FileNotFoundError:
        return "missing"
    except OSError:
        return "torn"
    if not last.strip():
        return "clean"
    try:
        record = json.loads(last.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return "torn"
    if not isinstance(record, dict) or not verify_record(record):
        return "torn"
    return "clean"


def journal_path(service_dir: Union[str, Path]) -> Path:
    """The journal file of a service directory."""
    return Path(service_dir) / JOURNAL_FILENAME
