"""Rebuilding a journaled task for execution.

Workers receive a task as its JSON-able ``describe()`` dict — from the
journal, a claim over the HTTP wire, or a local worker's pipe — and
rebuild the :class:`~repro.runner.tasks.Task` here, with its exact
:class:`~repro.runner.seeding.SeedSpec`, before running it through
:func:`repro.runner.tasks.run_task` like every other execution path.
The worker loop itself is :func:`repro.service.net.worker.work_loop`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..runner.seeding import SeedSpec
from ..runner.tasks import Task

__all__ = ["task_from_description"]


def task_from_description(
    description: Dict[str, Any],
    runtime: Optional[Dict[str, Any]] = None,
) -> Task:
    """Rebuild a :class:`Task` from its journaled ``describe()`` dict.

    The inverse of :meth:`Task.describe` — the property that lets a
    restarted orchestrator reconstruct its whole queue from the journal
    alone, with cache keys (and therefore result identity) unchanged.
    """
    seed = description.get("seed")
    return Task(
        kind=description["kind"],
        payload=description["payload"],
        seed=SeedSpec.from_jsonable(seed) if seed else None,
        runtime=runtime,
    )
