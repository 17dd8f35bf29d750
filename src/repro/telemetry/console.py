"""The live sweep console behind ``repro-plc top``.

:class:`SweepStatus` folds the runner's task-lifecycle trace records
(and, when available, the span stream) into the live counters an
operator wants while a sweep runs: per-kind progress, retry / timeout /
cache-hit rates, an ETA extrapolated from completed-task throughput,
and the chaos episodes currently open.  :func:`render_status` turns one
status into a text frame; :func:`follow` drives the poll → fold →
render loop over :class:`~repro.telemetry.tail.JsonlTailer` instances,
so the console inherits their rotation/truncation safety.

The aggregator is pure with respect to its inputs — it never touches
the filesystem — which is what the truncation/rotation tests and the
``--once`` CI mode rely on.
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from .tail import JsonlTailer

__all__ = ["KindStats", "SweepStatus", "render_status", "follow"]


@dataclasses.dataclass
class KindStats:
    """Progress counters for one task kind."""

    queued: int = 0
    started: int = 0
    finished: int = 0
    failed: int = 0
    cache_hits: int = 0
    retried: int = 0
    timeouts: int = 0
    duration_sum_s: float = 0.0

    @property
    def done(self) -> int:
        return self.finished + self.failed + self.cache_hits

    @property
    def total(self) -> int:
        return max(self.queued + self.cache_hits, self.done)

    def as_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["done"] = self.done
        out["total"] = self.total
        return out


class SweepStatus:
    """Fold trace/span records into a live view of the sweep."""

    def __init__(self) -> None:
        self.run_id: Optional[str] = None
        self.epoch_s: Optional[float] = None
        self.run_start_t_s: Optional[float] = None
        self.last_t_s: float = 0.0
        self.run_ended = False
        self.kinds: Dict[str, KindStats] = {}
        self.pool_rebuilds = 0
        #: span_id -> span_start record, for spans not yet ended.
        self.open_spans: Dict[str, Dict[str, Any]] = {}
        self.spans_seen = 0

    # -- folding ---------------------------------------------------------

    def _kind(self, name: Optional[str]) -> KindStats:
        key = name if name is not None else "?"
        stats = self.kinds.get(key)
        if stats is None:
            stats = self.kinds[key] = KindStats()
        return stats

    def update(self, record: Dict[str, Any]) -> None:
        """Fold one trace or span record."""
        event = record.get("event")
        if event in ("span_start", "span_end"):
            self._update_span(event, record)
            return
        t_s = record.get("t_s")
        if isinstance(t_s, (int, float)):
            self.last_t_s = max(self.last_t_s, t_s)
        if self.run_id is None and record.get("run_id"):
            self.run_id = record["run_id"]
        if event == "run_start":
            self.run_start_t_s = record.get("t_s", 0.0)
            if record.get("epoch_s") is not None:
                self.epoch_s = record["epoch_s"]
            return
        if event == "run_end":
            self.run_ended = True
            return
        if event == "pool_rebuild":
            self.pool_rebuilds += 1
            return
        kind = self._kind(record.get("kind"))
        if event == "queued":
            kind.queued += 1
        elif event == "cache_hit":
            kind.cache_hits += 1
        elif event == "started":
            kind.started += 1
        elif event == "retried":
            kind.retried += 1
        elif event == "timeout":
            kind.timeouts += 1
        elif event == "failed":
            kind.failed += 1
        elif event == "finished":
            kind.finished += 1
            duration = record.get("duration_s")
            if isinstance(duration, (int, float)):
                kind.duration_sum_s += duration

    def _update_span(self, event: str, record: Dict[str, Any]) -> None:
        self.spans_seen += 1
        span_id = record.get("span_id")
        if event == "span_start" and span_id:
            self.open_spans[span_id] = record
        elif event == "span_end" and span_id:
            self.open_spans.pop(span_id, None)

    def update_all(self, records: List[Dict[str, Any]]) -> None:
        for record in records:
            self.update(record)

    # -- derived views ---------------------------------------------------

    @property
    def total(self) -> int:
        return sum(k.total for k in self.kinds.values())

    @property
    def done(self) -> int:
        return sum(k.done for k in self.kinds.values())

    def elapsed_s(self) -> float:
        start = self.run_start_t_s if self.run_start_t_s is not None else 0.0
        return max(0.0, self.last_t_s - start)

    def eta_s(self) -> Optional[float]:
        """Remaining wall-clock estimate from completed throughput."""
        if self.run_ended:
            return 0.0
        completed = sum(
            k.finished + k.failed for k in self.kinds.values()
        )
        remaining = self.total - self.done
        if completed <= 0 or remaining <= 0:
            return None
        elapsed = self.elapsed_s()
        if elapsed <= 0:
            return None
        return remaining * elapsed / completed

    def rates(self) -> Dict[str, float]:
        """Retry / timeout / cache-hit rates over all kinds."""
        queued = sum(k.queued for k in self.kinds.values())
        lookups = queued + sum(k.cache_hits for k in self.kinds.values())
        attempts = sum(k.started for k in self.kinds.values())
        return {
            "cache_hit_rate": (
                sum(k.cache_hits for k in self.kinds.values()) / lookups
                if lookups
                else 0.0
            ),
            "retry_rate": (
                sum(k.retried for k in self.kinds.values()) / attempts
                if attempts
                else 0.0
            ),
            "timeout_rate": (
                sum(k.timeouts for k in self.kinds.values()) / attempts
                if attempts
                else 0.0
            ),
        }

    def chaos_episodes(self) -> List[Dict[str, Any]]:
        """Open spans that look like chaos episodes, oldest first."""
        episodes = [
            span
            for span in self.open_spans.values()
            if "chaos" in str(span.get("name", ""))
        ]
        episodes.sort(key=lambda span: span.get("t_s", 0.0))
        return episodes

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able snapshot (what ``repro-plc top --json`` prints)."""
        return {
            "run_id": self.run_id,
            "run_ended": self.run_ended,
            "elapsed_s": self.elapsed_s(),
            "eta_s": self.eta_s(),
            "total": self.total,
            "done": self.done,
            "kinds": {
                name: stats.as_dict()
                for name, stats in sorted(self.kinds.items())
            },
            "rates": self.rates(),
            "pool_rebuilds": self.pool_rebuilds,
            "open_spans": len(self.open_spans),
            "chaos_episodes": [
                {
                    "name": span.get("name"),
                    "span_id": span.get("span_id"),
                    "since_t_s": span.get("t_s"),
                }
                for span in self.chaos_episodes()
            ],
        }


def _format_eta(eta: Optional[float]) -> str:
    if eta is None:
        return "--"
    if eta >= 3600:
        return f"{eta / 3600:.1f}h"
    if eta >= 60:
        return f"{eta / 60:.1f}m"
    return f"{eta:.1f}s"


def _bar(fraction: float, width: int = 24) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "-" * (width - filled)


def render_status(status: SweepStatus) -> str:
    """One text frame of the live console."""
    lines: List[str] = []
    run = status.run_id or "?"
    state = "ended" if status.run_ended else "running"
    lines.append(
        f"sweep {run} [{state}]  elapsed {status.elapsed_s():.1f}s"
        f"  eta {_format_eta(status.eta_s())}"
    )
    total, done = status.total, status.done
    fraction = done / total if total else 0.0
    lines.append(f"  [{_bar(fraction)}] {done}/{total} ({fraction:.0%})")
    rates = status.rates()
    lines.append(
        "  cache-hit {cache_hit_rate:.0%}  retry {retry_rate:.0%}"
        "  timeout {timeout_rate:.0%}".format(**rates)
    )
    if status.pool_rebuilds:
        lines.append(f"  pool rebuilds {status.pool_rebuilds}")
    for name, kind in sorted(status.kinds.items()):
        mean = (
            kind.duration_sum_s / kind.finished if kind.finished else 0.0
        )
        lines.append(
            f"  {name:<18} {kind.done:>5}/{kind.total:<5}"
            f"  ok {kind.finished}  cached {kind.cache_hits}"
            f"  failed {kind.failed}  retries {kind.retried}"
            f"  timeouts {kind.timeouts}  mean {mean:.3f}s"
        )
    episodes = status.chaos_episodes()
    if episodes:
        lines.append(f"  chaos episodes active: {len(episodes)}")
        for span in episodes[:5]:
            lines.append(
                f"    {span.get('name')} (span {span.get('span_id')},"
                f" since t={span.get('t_s', 0.0):.1f}s)"
            )
    return "\n".join(lines)


def follow(
    trace_path: Union[str, Path],
    spans_path: Optional[Union[str, Path]] = None,
    interval_s: float = 1.0,
    once: bool = False,
    emit: Callable[[str], None] = print,
    max_frames: Optional[int] = None,
    clear: bool = True,
) -> SweepStatus:
    """Tail the trace (and optionally spans), rendering frames via
    ``emit`` until the run ends (or forever without a ``run_end``).

    ``once=True`` reads whatever exists right now, renders a single
    frame, and returns — the CI mode, also correct for finished runs.
    """
    status = SweepStatus()
    tailers = [JsonlTailer(trace_path)]
    if spans_path is not None:
        tailers.append(JsonlTailer(spans_path))
    frames = 0
    try:
        while True:
            for tailer in tailers:
                status.update_all(tailer.poll())
            frame = render_status(status)
            if clear and not once and frames > 0:
                emit("\x1b[2J\x1b[H" + frame)
            else:
                emit(frame)
            frames += 1
            if once or status.run_ended:
                break
            if max_frames is not None and frames >= max_frames:
                break
            time.sleep(interval_s)
    finally:
        for tailer in tailers:
            tailer.close()
    return status
