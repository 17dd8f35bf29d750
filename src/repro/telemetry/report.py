"""Post-hoc run summaries behind ``repro-plc report RUN_DIR``.

Given a telemetry directory (the ``--telemetry-dir`` of a finished —
or crashed — run, holding its ``trace.jsonl``: lifecycle events and
spans in one stream), build one report object with:

- the **span tree** (run → point → attempt → chaos episodes),
  with durations, statuses, and still-open spans marked (a crashed run
  shows exactly which scopes never closed);
- the **critical path**: from each root span, repeatedly descend into
  the longest child — the chain that bounded the run's wall clock;
- the **slowest points** from ``finished`` trace events;
- the **failure table**: permanently failed tasks with error text and
  attempt counts, plus timeout counts.

:func:`build_report` returns a JSON-able dict (the ``--json`` output);
:func:`format_report` renders the human text view.  Both work on live
run directories too — they simply describe whatever has been flushed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..obs.recording import read_jsonl
from .console import SweepStatus

__all__ = ["build_report", "format_report", "TRACE_FILENAME"]

#: The run's one event file inside a ``--telemetry-dir``.
TRACE_FILENAME = "trace.jsonl"


def _build_span_nodes(
    records: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    nodes: Dict[str, Dict[str, Any]] = {}
    for record in records:
        span_id = record.get("span_id")
        if not span_id:
            continue
        if record.get("event") == "span_start":
            nodes[span_id] = {
                "span_id": span_id,
                "name": record.get("name"),
                "parent_id": record.get("parent_id"),
                "t_s": record.get("t_s"),
                "attrs": record.get("attrs", {}),
                "duration_s": None,
                "status": "open",
                "children": [],
            }
        elif record.get("event") == "span_end":
            node = nodes.get(span_id)
            if node is None:
                # end without a start (rotated-away head): synthesize.
                node = nodes[span_id] = {
                    "span_id": span_id,
                    "name": record.get("name"),
                    "parent_id": None,
                    "t_s": None,
                    "attrs": {},
                    "children": [],
                }
            node["duration_s"] = record.get("duration_s")
            node["status"] = record.get("status", "ok")
    return nodes


def _link_children(
    nodes: Dict[str, Dict[str, Any]]
) -> List[Dict[str, Any]]:
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id") or "")
        if parent is not None:
            parent["children"].append(node)
        else:
            roots.append(node)
    def start_key(node: Dict[str, Any]) -> float:
        t_s = node.get("t_s")
        return t_s if isinstance(t_s, (int, float)) else 0.0
    for node in nodes.values():
        node["children"].sort(key=start_key)
    roots.sort(key=start_key)
    return roots


def _strip_tree(node: Dict[str, Any]) -> Dict[str, Any]:
    out = {
        key: value
        for key, value in node.items()
        if key != "children" and value not in (None, {})
    }
    out["children"] = [_strip_tree(child) for child in node["children"]]
    return out


def _critical_path(root: Dict[str, Any]) -> List[Dict[str, Any]]:
    path = []
    node: Optional[Dict[str, Any]] = root
    while node is not None:
        path.append(
            {
                "name": node.get("name"),
                "span_id": node.get("span_id"),
                "duration_s": node.get("duration_s"),
                "status": node.get("status"),
            }
        )
        children = node["children"]
        node = (
            max(
                children,
                key=lambda child: child.get("duration_s") or 0.0,
            )
            if children
            else None
        )
    return path


def build_report(
    run_dir: Union[str, Path], slowest: int = 10
) -> Dict[str, Any]:
    """One JSON-able report for a run directory."""
    run_dir = Path(run_dir)
    path = run_dir / TRACE_FILENAME
    trace = read_jsonl(path) if path.exists() else []

    status = SweepStatus()
    status.update_all(trace)

    nodes = _build_span_nodes(trace)
    roots = _link_children(nodes)

    finished = [
        record
        for record in trace
        if record.get("event") == "finished"
        and isinstance(record.get("duration_s"), (int, float))
    ]
    finished.sort(key=lambda record: -record["duration_s"])
    slowest_points = [
        {
            "task_index": record.get("task_index"),
            "kind": record.get("kind"),
            "attempt": record.get("attempt", 0),
            "duration_s": record.get("duration_s"),
            "worker_pid": record.get("worker_pid"),
            "span_id": record.get("span_id"),
        }
        for record in finished[:slowest]
    ]

    failures = [
        {
            "task_index": record.get("task_index"),
            "kind": record.get("kind"),
            "attempt": record.get("attempt", 0),
            "error": record.get("error"),
            "span_id": record.get("span_id"),
        }
        for record in trace
        if record.get("event") == "failed"
    ]

    return {
        "run_dir": str(run_dir),
        "summary": status.as_dict(),
        "span_tree": [_strip_tree(root) for root in roots],
        "critical_path": _critical_path(roots[0]) if roots else [],
        "slowest_points": slowest_points,
        "failures": failures,
        "open_span_count": sum(
            1 for node in nodes.values() if node.get("status") == "open"
        ),
    }


def _format_tree(
    node: Dict[str, Any], lines: List[str], depth: int = 0
) -> None:
    duration = node.get("duration_s")
    duration_text = (
        f"{duration:.3f}s" if isinstance(duration, (int, float)) else "open"
    )
    status = node.get("status", "ok")
    marker = "" if status == "ok" else f" [{status}]"
    lines.append(
        f"{'  ' * depth}- {node.get('name')} ({duration_text}){marker}"
    )
    for child in node.get("children", []):
        _format_tree(child, lines, depth + 1)


def format_report(report: Dict[str, Any], max_tree_lines: int = 60) -> str:
    """Human text view of a :func:`build_report` dict."""
    lines: List[str] = []
    summary = report.get("summary", {})
    lines.append(f"run {summary.get('run_id') or '?'} — {report['run_dir']}")
    lines.append(
        f"  tasks {summary.get('done', 0)}/{summary.get('total', 0)}"
        f"  elapsed {summary.get('elapsed_s', 0.0):.1f}s"
        f"  open spans {report.get('open_span_count', 0)}"
    )
    rates = summary.get("rates", {})
    if rates:
        lines.append(
            "  cache-hit {cache_hit_rate:.0%}  retry {retry_rate:.0%}"
            "  timeout {timeout_rate:.0%}".format(**rates)
        )

    lines.append("span tree:")
    tree_lines: List[str] = []
    for root in report.get("span_tree", []):
        _format_tree(root, tree_lines)
    if not tree_lines:
        tree_lines.append("  (no spans recorded)")
    if len(tree_lines) > max_tree_lines:
        hidden = len(tree_lines) - max_tree_lines
        tree_lines = tree_lines[:max_tree_lines] + [
            f"  ... {hidden} more span(s)"
        ]
    lines.extend(tree_lines)

    path = report.get("critical_path", [])
    if path:
        lines.append("critical path:")
        for step in path:
            duration = step.get("duration_s")
            duration_text = (
                f"{duration:.3f}s"
                if isinstance(duration, (int, float))
                else "open"
            )
            lines.append(f"  {step.get('name')}  {duration_text}")

    slowest = report.get("slowest_points", [])
    if slowest:
        lines.append("slowest points:")
        for point in slowest:
            lines.append(
                f"  #{point.get('task_index')} {point.get('kind')}"
                f"  {point.get('duration_s', 0.0):.3f}s"
                f"  attempt {point.get('attempt', 0)}"
            )

    failures = report.get("failures", [])
    if failures:
        lines.append(f"failures ({len(failures)}):")
        for failure in failures:
            lines.append(
                f"  #{failure.get('task_index')} {failure.get('kind')}"
                f"  attempt {failure.get('attempt', 0)}:"
                f" {failure.get('error')}"
            )
    else:
        lines.append("failures: none")
    return "\n".join(lines)
