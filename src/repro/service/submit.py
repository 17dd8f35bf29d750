"""Sweep submissions: the service's only cross-process input channel.

The journal has exactly one writer — the orchestrator — so clients
never touch it.  A submission is a JSON file dropped atomically into
the service's ``inbox/`` directory; the orchestrator's scheduling loop
picks it up, applies admission control, journals ``sweep_accepted``
plus one ``task_enqueued`` per *new* task (tasks whose cache key is
already completed or cached dedupe away), and deletes the inbox file.
A rejected submission (queue over depth limit, malformed file) moves to
``rejected/`` with the reason attached — client-visible backpressure
instead of silent loss.

The submission id is the sha256 of the canonical JSON of the task
descriptions, so a client retrying a drop (or two clients submitting
the identical sweep) collapses to one inbox file — idempotent by
construction, the same content-hash discipline as the result cache.

Task identity throughout the service is
:func:`repro.runner.cache.cache_key` of the task's ``describe()`` dict
— *the* key the result cache uses — which is what makes ``submit``
dedupe against prior sweeps for free.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..checkpoint.integrity import atomic_write_text, sha256_hex
from ..runner.cache import ResultCache, cache_key
from ..runner.serialize import canonical_json
from ..runner.tasks import Task, task_from_description

__all__ = [
    "INBOX_DIRNAME",
    "REJECTED_DIRNAME",
    "build_submission",
    "read_submission",
    "standard_sweep_tasks",
    "submission_id",
    "validate_submission",
    "write_submission",
]

#: Client drop-box inside a service directory.
INBOX_DIRNAME = "inbox"

#: Where refused submissions land, reason attached.
REJECTED_DIRNAME = "rejected"


def submission_id(descriptions: Sequence[Dict[str, Any]]) -> str:
    """Content hash identifying a submission by exactly its tasks."""
    return sha256_hex(
        canonical_json({"tasks": list(descriptions)}).encode("utf-8")
    )


def build_submission(
    tasks: Sequence[Task], label: Optional[str] = None
) -> Dict[str, Any]:
    """The JSON-able submission document for ``tasks``."""
    descriptions = [task.describe() for task in tasks]
    return {
        "submit_id": submission_id(descriptions),
        "label": label,
        "created_epoch_s": time.time(),
        "tasks": descriptions,
    }


def write_submission(
    inbox_dir: Union[str, Path], submission: Dict[str, Any]
) -> Path:
    """Atomically drop ``submission`` into the inbox; returns its path.

    Atomic write (temp + rename in the same directory) guarantees the
    orchestrator's inbox scan never reads a half-written submission.
    """
    path = Path(inbox_dir) / f"{submission['submit_id']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(str(path), json.dumps(submission, indent=2))
    return path


def validate_submission(submission: Any) -> Optional[Dict[str, Any]]:
    """Validate and canonicalize a parsed submission document; ``None``
    when malformed.

    Every task description must rebuild into a :class:`Task`; the
    returned document carries each one's canonical ``describe()`` (its
    payload defaults filled), so a hand-written description and a
    built one of the same computation get one task id.  Shared by the
    inbox scan (:func:`read_submission`) and the HTTP front end
    (``POST /v1/sweeps``) so both input channels accept exactly the
    same shape.
    """
    if not isinstance(submission, dict):
        return None
    tasks = submission.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        return None
    try:
        canonical = [
            task_from_description(description).describe()
            for description in tasks
        ]
    except (AttributeError, KeyError, TypeError, ValueError):
        return None
    return {**submission, "tasks": canonical}


def read_submission(
    path: Union[str, Path],
) -> Optional[Dict[str, Any]]:
    """Parse and validate one inbox file; ``None`` when malformed."""
    try:
        submission = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return validate_submission(submission)


def dedupe_report(
    descriptions: Sequence[Dict[str, Any]],
    cache: Optional[ResultCache],
) -> Dict[str, Any]:
    """How much of a submission the result cache already covers."""
    cached = 0
    if cache is not None:
        for description in descriptions:
            if cache.path_for(cache_key(description)).is_file():
                cached += 1
    return {
        "tasks": len(descriptions),
        "cached": cached,
        "to_run": len(descriptions) - cached,
    }


def standard_sweep_tasks(
    station_counts: Sequence[int],
    sim_time_us: float = 2e7,
    repetitions: int = 3,
    seed: int = 1,
) -> List[Task]:
    """The standard protocol sweep as submittable tasks.

    Exactly the tasks :func:`repro.experiments.sweeps
    .standard_protocol_sweep` runs, in its order and from its builder
    (:func:`~repro.experiments.sweeps.configuration_tasks`), so
    service-computed points share cache keys (and bits) with the
    in-process ``sweep`` command.
    """
    from ..experiments.sweeps import configuration_tasks, protocol_configs

    return [
        task
        for _label, config in protocol_configs()
        for task in configuration_tasks(
            config,
            station_counts,
            sim_time_us=sim_time_us,
            repetitions=repetitions,
            seed=seed,
        )[1]
    ]
