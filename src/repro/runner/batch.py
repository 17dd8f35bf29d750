"""The batch kernel as a packing step of the serial runner.

:class:`BatchRunner` is an :class:`~repro.runner.runner.ExperimentRunner`
with one worker.  Its serial step packs the uncached
:func:`~repro.runner.tasks.packable` tasks — plain ``simulate`` points —
into :class:`~repro.batch.kernel.BatchSlotKernel` dispatches of
:data:`CHUNK_SIZE` points; every other task runs one at a time, as on
the serial runner.  Cache lookups, counters and telemetry are the
runner's own.

A packed point is still the scalar ``simulate`` task it came from: the
same description, the same cache key and — the kernel being bit-exact
against :class:`~repro.core.simulator.SlotSimulator` — the same result
dict.  A sweep half-computed on any runner path therefore finishes on
this one without recomputing, and the reverse; nothing batch-specific
is persisted.

The caller chooses the kernel by choosing this runner.  At a few dozen
mixed-N points the kernel loses to ``SlotSimulator``; at a thousand
uniform points it is an order of magnitude faster
(``docs/batch-kernel.md``).
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from ..telemetry.context import span
from .runner import ExperimentRunner, _Pending, _RunState
from .tasks import inject_faults, packable, run_packed

__all__ = ["BatchRunner", "CHUNK_SIZE"]

#: Points per kernel dispatch.  Large enough to amortize the
#: per-round Python overhead (the measured kernel/FSM ratio keeps
#: climbing up to ~1k points), small enough to bound peak array memory.
CHUNK_SIZE = 1024

_PathLike = Optional[Union[str, Path]]


class BatchRunner(ExperimentRunner):
    """A one-worker :class:`ExperimentRunner` that runs plain
    ``simulate`` points on the vectorized batch kernel.

    Parameters
    ----------
    cache_dir:
        Optional on-disk result cache, shared bit-for-bit with every
        other runner path (see module docstring).
    trace_path / telemetry_dir:
        Telemetry outputs, with the semantics of
        :class:`~repro.runner.runner.RunnerConfig`.
    """

    def __init__(
        self,
        cache_dir: _PathLike = None,
        *,
        trace_path: _PathLike = None,
        telemetry_dir: _PathLike = None,
    ) -> None:
        super().__init__(
            max_workers=1,
            cache_dir=cache_dir,
            trace_path=trace_path,
            telemetry_dir=telemetry_dir,
        )

    def _run_serial(
        self, pending: Sequence[_Pending], state: _RunState
    ) -> None:
        packed = [entry for entry in pending if packable(entry.task)]
        for start in range(0, len(packed), CHUNK_SIZE):
            # A packed attempt starts as run_task starts one: its task_*
            # fault points fire first, and a fired one fails it.
            chunk = [
                entry
                for entry in packed[start : start + CHUNK_SIZE]
                if self._attempt(
                    entry, state, lambda task: inject_faults(task) or True
                )
            ]
            if not chunk:
                continue
            # One kernel dispatch.  An exception propagates; run()
            # closes the spans and finalizes the counters.
            with span("batch_chunk", points=len(chunk)):
                started = time.perf_counter()
                results = run_packed([entry.task for entry in chunk])
                # The chunk resolves as one dispatch: its wall time is
                # split evenly, so per-kind throughput stays usable.
                elapsed_s = (time.perf_counter() - started) / len(chunk)
            for entry, result in zip(chunk, results):
                envelope = {
                    "result": result,
                    "worker_pid": os.getpid(),
                    "elapsed_s": elapsed_s,
                }
                self._complete(entry, envelope, None, state)
        super()._run_serial(
            [entry for entry in pending if not packable(entry.task)], state
        )

