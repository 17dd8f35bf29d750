"""Unified run telemetry: correlation, metric export, live console.

The correlation layer over every JSONL stream the repo writes.  A
run's own stream — lifecycle events and the sweep → point → attempt →
episode spans, as paired ``span_start``/``span_end`` records — is one
:class:`~repro.runner.telemetry.TraceRecorder` flushed to one
``trace.jsonl``; the modules here stamp, export and fold it:

- :mod:`repro.telemetry.context` — the ambient ``run_id``/``span_id``
  context that JSONL writers stamp on their lines and :func:`span`
  records through (zero-cost when no run is active; propagated to
  worker processes by the runner);
- :mod:`repro.telemetry.openmetrics` — the Prometheus/OpenMetrics text
  renderer for :class:`~repro.obs.registry.MetricsRegistry` and
  :class:`~repro.core.metrics.RunnerCounters` (``repro-plc metrics``);
- :mod:`repro.telemetry.tail` — rotation/truncation-safe follow-mode
  JSONL reading;
- :mod:`repro.telemetry.console` — the live sweep view
  (``repro-plc top``);
- :mod:`repro.telemetry.report` — post-hoc span tree / critical path /
  failure summaries (``repro-plc report``).
"""

from .context import (
    TelemetryContext,
    activate,
    current,
    current_ids,
    new_run_id,
    new_span_id,
    span,
)
from .openmetrics import (
    render_openmetrics,
    render_runner_counters,
    validate_openmetrics,
    write_openmetrics,
)
from .tail import JsonlTailer
from .console import KindStats, SweepStatus, follow, render_status
from .report import build_report, format_report

__all__ = [
    "TelemetryContext",
    "activate",
    "current",
    "current_ids",
    "new_run_id",
    "new_span_id",
    "span",
    "render_openmetrics",
    "render_runner_counters",
    "validate_openmetrics",
    "write_openmetrics",
    "JsonlTailer",
    "KindStats",
    "SweepStatus",
    "follow",
    "render_status",
    "build_report",
    "format_report",
]
