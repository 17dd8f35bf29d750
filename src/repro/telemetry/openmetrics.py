"""Render repo metrics to the OpenMetrics / Prometheus text format.

Two metric sources exist today: the labelled
:class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
histograms fed by the MAC probe) and the runner's flat
:class:`~repro.core.metrics.RunnerCounters`.  This module renders both
to the OpenMetrics text exposition format — the `# TYPE`/`# HELP`
comment lines, `_total` counter naming, cumulative `_bucket{le=...}`
histogram samples, and a trailing `# EOF` — so a run can drop a
textfile for the Prometheus node-exporter textfile collector, and
`repro-plc metrics` can print the same view of a finished run.

Histograms additionally emit a companion ``<name>_summary`` metric with
``quantile`` samples (p50/p95/p99 from
:meth:`~repro.obs.registry.Histogram.quantile`), because dashboards
usually want the quantile directly rather than a `histogram_quantile`
recomputation over coarse buckets.

:func:`validate_openmetrics` is a dependency-free format self-check
(used by the CI smoke job): it verifies the EOF terminator, sample
syntax, and that every sample belongs to a declared metric family.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "render_openmetrics",
    "render_runner_counters",
    "write_openmetrics",
    "validate_openmetrics",
]

#: RunnerCounters fields that are monotonic event counts (rendered as
#: OpenMetrics counters); the rest (wall clock, worker count) render as
#: gauges.
_RUNNER_COUNTER_FIELDS = (
    "points_total",
    "executed",
    "cache_hits",
    "cache_misses",
    "cache_corrupt",
    "retried",
    "failed",
    "timeouts",
    "pool_rebuilds",
    "degraded_local",
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\S+)(?: \S+)?$"
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels_text(pairs: Iterable[Tuple[str, str]]) -> str:
    rendered = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in pairs
    )
    return "{" + rendered + "}" if rendered else ""


def _series_labels(
    labelnames: List[str], key: str
) -> List[Tuple[str, str]]:
    if not labelnames:
        return []
    return list(zip(labelnames, key.split(",")))


def _counter_names(name: str) -> Tuple[str, str]:
    """(family name for # TYPE, sample name) per OpenMetrics counters.

    OpenMetrics declares the family without ``_total`` and samples with
    it; registry counters are conventionally already named ``*_total``.
    """
    if name.endswith("_total"):
        return name[: -len("_total")], name
    return name, name + "_total"


def _render_counter(name: str, data: Dict[str, Any], out: List[str]) -> None:
    family, sample = _counter_names(name)
    out.append(f"# TYPE {family} counter")
    labelnames = list(data.get("labelnames", ()))
    for key, value in data.get("series", {}).items():
        labels = _labels_text(_series_labels(labelnames, key))
        out.append(f"{sample}{labels} {_format_value(value)}")


def _render_gauge(name: str, data: Dict[str, Any], out: List[str]) -> None:
    out.append(f"# TYPE {name} gauge")
    labelnames = list(data.get("labelnames", ()))
    for key, value in data.get("series", {}).items():
        labels = _labels_text(_series_labels(labelnames, key))
        out.append(f"{name}{labels} {_format_value(value)}")


def _render_histogram(
    name: str, data: Dict[str, Any], out: List[str]
) -> None:
    out.append(f"# TYPE {name} histogram")
    labelnames = list(data.get("labelnames", ()))
    buckets = list(data.get("buckets", ()))
    series = data.get("series", {})
    quantile_lines: List[str] = []
    for key, snap in series.items():
        base_labels = _series_labels(labelnames, key)
        cumulative = 0
        for bound, count in zip(buckets, snap.get("counts", ())):
            cumulative += count
            labels = _labels_text(
                base_labels + [("le", _format_value(bound))]
            )
            out.append(f"{name}_bucket{labels} {cumulative}")
        total_count = snap.get("count", 0)
        labels = _labels_text(base_labels + [("le", "+Inf")])
        out.append(f"{name}_bucket{labels} {total_count}")
        out.append(
            f"{name}_count{_labels_text(base_labels)} {total_count}"
        )
        out.append(
            f"{name}_sum{_labels_text(base_labels)} "
            f"{_format_value(snap.get('sum', 0.0))}"
        )
        for q, field in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            if field not in snap:
                continue
            labels = _labels_text(base_labels + [("quantile", str(q))])
            quantile_lines.append(
                f"{name}_summary{labels} {_format_value(snap[field])}"
            )
    if quantile_lines:
        out.append(f"# TYPE {name}_summary summary")
        out.extend(quantile_lines)
        for key, snap in series.items():
            base = _labels_text(_series_labels(labelnames, key))
            out.append(
                f"{name}_summary_count{base} {snap.get('count', 0)}"
            )
            out.append(
                f"{name}_summary_sum{base} "
                f"{_format_value(snap.get('sum', 0.0))}"
            )


def render_runner_counters(
    counters: Any, prefix: str = "runner_"
) -> List[str]:
    """RunnerCounters (or its ``as_dict()``) as OpenMetrics lines."""
    as_dict = getattr(counters, "as_dict", None)
    data = as_dict() if as_dict is not None else dict(counters)
    out: List[str] = []
    for field, value in sorted(data.items()):
        if field in _RUNNER_COUNTER_FIELDS:
            family, sample = _counter_names(prefix + field)
            out.append(f"# TYPE {family} counter")
            out.append(f"{sample} {_format_value(value)}")
        else:
            name = prefix + field
            out.append(f"# TYPE {name} gauge")
            out.append(f"{name} {_format_value(value)}")
    return out


def render_openmetrics(
    metrics: Any = None,
    runner_counters: Any = None,
    run_id: Optional[str] = None,
) -> str:
    """The full OpenMetrics exposition text, ``# EOF``-terminated.

    ``metrics`` may be a :class:`~repro.obs.registry.MetricsRegistry`
    or the plain dict its ``as_dict()`` returns (which is what a
    snapshot file holds) — so live and post-hoc exports share one
    renderer.
    """
    snapshot: Dict[str, Any] = {}
    if metrics is not None:
        as_dict = getattr(metrics, "as_dict", None)
        snapshot = as_dict() if as_dict is not None else dict(metrics)
    out: List[str] = []
    if run_id is not None:
        out.append("# TYPE run_info gauge")
        out.append("# HELP run_info Telemetry correlation id of this run.")
        out.append(f'run_info{{run_id="{_escape_label(run_id)}"}} 1')
    if runner_counters is not None:
        out.extend(render_runner_counters(runner_counters))
    for name, data in sorted(snapshot.items()):
        kind = data.get("kind")
        if kind == "counter":
            _render_counter(name, data, out)
        elif kind == "gauge":
            _render_gauge(name, data, out)
        elif kind == "histogram":
            _render_histogram(name, data, out)
    out.append("# EOF")
    return "\n".join(out) + "\n"


def write_openmetrics(
    path: Union[str, Path],
    metrics: Any = None,
    runner_counters: Any = None,
    run_id: Optional[str] = None,
) -> Path:
    """Atomically write the exposition text to ``path`` (textfile
    collector pattern: write sibling + rename, so scrapers never see a
    torn file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = render_openmetrics(
        metrics, runner_counters=runner_counters, run_id=run_id
    )
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
    return path


def validate_openmetrics(text: str) -> List[str]:
    """Check exposition-format well-formedness; return problem strings.

    An empty return value means the text passed.  Checked: terminal
    ``# EOF`` with nothing after it, metadata syntax, every sample line
    parses, every sample belongs to a previously declared family, no
    family is declared twice.
    """
    problems: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("missing terminal '# EOF' line")
    declared: Dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line == "# EOF":
            if lineno != len(lines):
                problems.append(f"line {lineno}: content after # EOF")
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: malformed TYPE: {line!r}")
                continue
            family, kind = parts[2], parts[3]
            if family in declared:
                problems.append(
                    f"line {lineno}: family {family!r} declared twice"
                )
            declared[family] = kind
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            problems.append(f"line {lineno}: unknown comment: {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        sample = match.group("name")
        for suffix in ("_bucket", "_count", "_sum", "_total", ""):
            family = sample[: -len(suffix)] if suffix else sample
            if suffix and not sample.endswith(suffix):
                continue
            if family in declared:
                break
        else:
            problems.append(
                f"line {lineno}: sample {sample!r} has no # TYPE family"
            )
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            try:
                float(value)
            except ValueError:
                problems.append(
                    f"line {lineno}: non-numeric value {value!r}"
                )
    return problems
