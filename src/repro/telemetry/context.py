"""The ambient telemetry context: run/span ids, cheaply discoverable.

Correlation across every JSONL family the repo writes (runner task
lifecycle, obs MAC/SoF traces, chaos injection ledgers, checkpoint
journals) hinges on one mechanism: while a run that writes a trace
file is executing, a :class:`TelemetryContext` is *active*, and every
JSONL writer asks :func:`current_ids` for the ``run_id``/``span_id``
pair to stamp on its lines.  The context's recorder is the run's own
:class:`~repro.runner.telemetry.TraceRecorder`, so the spans
:func:`span` opens land in the run's one event stream.

Design constraints, in order:

1. **Zero cost when disabled.**  This module imports nothing from
   :mod:`repro`, and writers do not even import it — they look it up
   through ``sys.modules`` (see
   :func:`repro.obs.recording.append_jsonl`), so a run without
   telemetry never pays an import, an attribute walk, or a function
   call.
2. **Cross-process by value.**  A context is a plain picklable payload
   of ids; the runner ships it to worker processes inside the task's
   execution-time ``runtime`` dict (excluded from cache keys) and the
   worker re-activates it around :func:`repro.runner.tasks.execute_task`.
3. **Nesting without globals leakage.**  Activation is a stack;
   :func:`span` swaps the current span id for its body and always
   restores it, so concurrent layers (chaos inside a checkpointed test
   inside a sweep) nest correctly.
"""

from __future__ import annotations

import contextlib
import uuid
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "TelemetryContext",
    "activate",
    "current",
    "current_ids",
    "new_run_id",
    "new_span_id",
    "span",
]


def new_run_id() -> str:
    """A fresh globally-unique run id (16 hex chars)."""
    return uuid.uuid4().hex[:16]


def new_span_id() -> str:
    """A fresh span id (16 hex chars), unique within and across runs."""
    return uuid.uuid4().hex[:16]


class TelemetryContext:
    """One run's correlation state: ids plus an optional span recorder.

    ``recorder`` is any object with the start/end span protocol of
    :class:`repro.runner.telemetry.TraceRecorder` — the run's own
    event stream; when absent, :func:`span` still maintains the
    ``span_id`` ids (so JSONL annotation keeps working) without
    recording span events.
    """

    __slots__ = ("run_id", "span_id", "recorder")

    def __init__(
        self,
        run_id: str,
        span_id: Optional[str] = None,
        recorder: Any = None,
    ) -> None:
        self.run_id = run_id
        self.span_id = span_id
        self.recorder = recorder

    def ids(self) -> Dict[str, str]:
        """The JSON-able id stamp for one event line."""
        out = {"run_id": self.run_id}
        if self.span_id is not None:
            out["span_id"] = self.span_id
        return out


#: Activation stack; the *top* is the active context.  A plain module
#: list (not a ContextVar): the simulators are single-threaded and the
#: cross-process hand-off is explicit, so the simplest structure with
#: the cheapest ``is-empty`` check wins.
_STACK: List[TelemetryContext] = []


def current() -> Optional[TelemetryContext]:
    """The active context, or ``None`` when telemetry is disabled."""
    return _STACK[-1] if _STACK else None


def current_ids() -> Optional[Dict[str, str]]:
    """The active context's id stamp, or ``None``."""
    return _STACK[-1].ids() if _STACK else None


@contextlib.contextmanager
def activate(context: TelemetryContext) -> Iterator[TelemetryContext]:
    """Make ``context`` the active one for the duration of the body."""
    _STACK.append(context)
    try:
        yield context
    finally:
        # Remove *this* activation even if the body pushed and leaked
        # (a crashed nested activation must not orphan ours).
        for index in range(len(_STACK) - 1, -1, -1):
            if _STACK[index] is context:
                del _STACK[index]
                break


@contextlib.contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[str]]:
    """Record a child span of the current one; no-op when disabled.

    Yields the new span id (``None`` when no context is active).  The
    context's ``span_id`` is swapped for the body, so nested spans and
    annotated JSONL lines written inside the body parent correctly.
    Exceptions propagate; the span is closed with ``status="error"``.
    """
    context = current()
    if context is None:
        yield None
        return
    parent_id = context.span_id
    recorder = context.recorder
    if recorder is not None:
        span_id = recorder.start(name, parent_id=parent_id, **attrs)
    else:
        span_id = new_span_id()
    context.span_id = span_id
    try:
        yield span_id
    except BaseException:
        if recorder is not None:
            recorder.end(span_id, status="error")
        raise
    finally:
        context.span_id = parent_id
    if recorder is not None:
        recorder.end(span_id)
