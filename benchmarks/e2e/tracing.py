"""Spans around the program's public callables, recorded from outside.

:func:`install` replaces each callable in :data:`TARGETS` with a
wrapper that records one span per call: name, start, end, parent,
pid, thread and trace id, plus a few attributes (cache hit, task kind,
simulated microseconds).  Nothing under ``src/`` changes; the wrappers
are set on the defining class or module, and on every loaded module
that imported the function by name.

Spans stay in memory.  Each process writes its own
``spans-<pid>.json`` into the trace directory when it exits: the
launching process through :meth:`SpanRecorder.flush`, forked
``multiprocessing`` children (pool workers, service workers) through a
finalizer registered after the fork.  :func:`load_spans` merges the
files of one entry run and :func:`attribute` splits its wall time by
layer.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Name of the span the entry process opens around its timed window.
SWEEP_SPAN = "bench.sweep"

#: Polling loops: their own time is waiting for work, so an instant
#: goes to them only when no other span is doing its own work.
BACKGROUND = frozenset({"service.serve", "remote.work_loop"})


def _task_name(args, kwargs, result) -> Dict[str, Any]:
    task = args[0] if args else kwargs.get("task")
    return {"name": f"task.{task.kind}"}


def _cache_hit(args, kwargs, result) -> Dict[str, Any]:
    return {"hit": result is not None}


def _kernel_counts(args, kwargs, result) -> Dict[str, Any]:
    kernel = args[0]
    # An active point has exactly one idle, success or collision event
    # per round, so their sum is the rounds the point was active for.
    active = kernel.idle_slots + kernel.successes + kernel.collision_events
    stations = kernel.lane.sum(axis=1)
    return {
        "sim_us": float(kernel.sim_time_us.sum()),
        "rounds": int(kernel.rounds),
        "active_lane_rounds": int((active * stations).sum()),
        "lane_rounds": int(stations.sum()) * int(kernel.rounds),
    }


def _slotsim_us(args, kwargs, result) -> Dict[str, Any]:
    return {"sim_us": float(args[0].scenario.sim_time_us)}


def _testbed_us(args, kwargs, result) -> Dict[str, Any]:
    return {"sim_us": float(result.duration_us)}


#: ``(module, attribute path, span name, annotate)``.  ``annotate``
#: maps ``(args, kwargs, result)`` to extra span fields; a ``name``
#: field overrides the span name.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.runner.cache", "ResultCache.get", "cache.get", _cache_hit),
    ("repro.runner.cache", "ResultCache.put", "cache.put", None),
    ("repro.runner.tasks", "run_task", "task", _task_name),
    ("repro.core.simulator", "SlotSimulator.run", "slotsim.run", _slotsim_us),
    ("repro.core.simulator", "SlotSimulator.advance", "slotsim.advance", None),
    ("repro.batch.kernel", "BatchSlotKernel.run", "kernel.run", _kernel_counts),
    ("repro.batch.kernel", "BatchSlotKernel.advance", "kernel.advance", None),
    ("repro.batch.lanes", "LaneRngs.draw", "kernel.rng_draw", None),
    ("repro.analysis.model", "Model1901.solve", "model.solve", None),
    ("repro.analysis.bianchi", "Bianchi80211Model.solve", "model.solve", None),
    (
        "repro.experiments.procedures",
        "run_collision_test",
        "testbed.run",
        _testbed_us,
    ),
    (
        "repro.checkpoint.testbed",
        "checkpointed_collision_test",
        "testbed.run",
        _testbed_us,
    ),
    ("repro.service.journal", "JournalWriter.append", "journal.append", None),
    ("multiprocessing", "Process.start", "spawn.start", None),
    (
        "repro.service.orchestrator",
        "Orchestrator.admit_submission",
        "service.admit",
        None,
    ),
    ("repro.service.orchestrator", "Orchestrator.serve", "service.serve", None),
    (
        "repro.service.orchestrator",
        "Orchestrator.remote_claim",
        "service.remote_claim",
        None,
    ),
    (
        "repro.service.orchestrator",
        "Orchestrator.remote_complete",
        "service.remote_complete",
        None,
    ),
    ("repro.service.net.server", "ServiceHTTPServer.route", "http.route", None),
    ("repro.service.net.wire", "http_json", "http.request", None),
    ("repro.service.net.worker", "work_loop", "remote.work_loop", None),
)


class SpanRecorder:
    """In-memory spans of one process, written out at exit."""

    def __init__(self, out_dir: str, trace_id: str, role: str) -> None:
        self.out_dir = Path(out_dir)
        self.trace_id = trace_id
        self.role = role
        self._reset()
        os.register_at_fork(after_in_child=self._reset)
        multiprocessing.util.register_after_fork(
            self, SpanRecorder._exit_flush_in_child
        )

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, Any]] = []
        #: Spans not closed yet, by id; ``flush`` closes them.
        self._open: Dict[int, Dict[str, Any]] = {}
        # ``next`` on a count is atomic, unlike ``+= 1``: HTTP handler
        # threads open spans concurrently.
        self._ids = itertools.count()
        self._local = threading.local()
        self._flushed = False

    def _exit_flush_in_child(self) -> None:
        # multiprocessing children leave through os._exit after running
        # the finalizers registered since the fork; atexit never runs.
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Dict[str, Any]:
        """Start a span in the calling thread (also the entry's window)."""
        stack = self._stack()
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "pid": self.pid,
            "tid": threading.get_ident(),
            "trace": self.trace_id,
        }
        stack.append(span["id"])
        self._open[span["id"]] = span
        span["start"] = time.perf_counter()
        return span

    def close(self, span: Dict[str, Any], **fields: Any) -> None:
        span["end"] = time.perf_counter()
        span.update(fields)
        self._stack().pop()
        del self._open[span["id"]]
        self.spans.append(span)

    def call(self, name: str, annotate, fn, args, kwargs):
        span = self.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            fields: Dict[str, Any] = {}
            if annotate is not None:
                try:
                    fields = annotate(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass
            self.close(span, **fields)

    def flush(self) -> None:
        """Write this process's spans to ``spans-<pid>.json`` once."""
        if self._flushed or os.getpid() != self.pid:
            return
        self._flushed = True
        # A request still in flight on a daemon thread: end it here, so
        # its finished children keep a parent.
        now = time.perf_counter()
        for span in list(self._open.values()):
            self.spans.append(dict(span, end=now))
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(
            json.dumps(
                {
                    "pid": self.pid,
                    "role": self.role,
                    "trace": self.trace_id,
                    "spans": self.spans,
                }
            ),
            encoding="utf-8",
        )
        os.replace(tmp, path)


def _wrap(recorder: SpanRecorder, target, module) -> None:
    """Wrap one :data:`TARGETS` entry whose module is ``module``."""
    _module_name, path, name, annotate = target
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # ``multiprocessing.Process.start`` is inherited from BaseProcess;
    # setting it on ``Process`` alone leaves the pool's ForkProcess
    # untouched, so only explicit Process objects (the orchestrator's
    # per-task workers) are timed as spawns.
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        return recorder.call(name, annotate, original, args, kwargs)

    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)
    if isinstance(owner, type):
        return
    # A module-level function: replace by-name imports made so far.
    for other in list(sys.modules.values()):
        if not getattr(other, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapper)


class _TracingLoader:
    """Delegating loader: an ``import`` span, then wraps the module."""

    def __init__(self, loader, finder: "_TracingFinder") -> None:
        self._loader = loader
        self._finder = finder

    def create_module(self, spec):
        return self._loader.create_module(spec)

    def exec_module(self, module) -> None:
        self._finder.recorder.call(
            "import", None, self._loader.exec_module, (module,), {}
        )
        for target in self._finder.pending.pop(module.__name__, ()):
            _wrap(self._finder.recorder, target, module)

    def __getattr__(self, name: str):
        return getattr(self._loader, name)


class _TracingFinder:
    """First ``sys.meta_path`` entry: hands out :class:`_TracingLoader`."""

    def __init__(self, recorder: SpanRecorder, pending) -> None:
        self.recorder = recorder
        self.pending = pending

    def find_spec(self, name, path=None, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                if getattr(spec.loader, "exec_module", None) is not None:
                    spec.loader = _TracingLoader(spec.loader, self)
                return spec
        return None


def install(recorder: SpanRecorder) -> None:
    """Wrap every callable in :data:`TARGETS` to record into ``recorder``.

    Targets in modules already imported are wrapped now; the others
    when their module is first imported, so lazy imports stay where
    the program makes them and their cost shows as ``import`` spans.
    """
    pending: Dict[str, List] = {}
    for target in TARGETS:
        module = sys.modules.get(target[0])
        if module is not None:
            _wrap(recorder, target, module)
        else:
            pending.setdefault(target[0], []).append(target)
    sys.meta_path.insert(0, _TracingFinder(recorder, pending))


# -- analysis ---------------------------------------------------------------


def load_spans(trace_dir: str) -> Tuple[List[Dict[str, Any]], Dict[int, str]]:
    """All spans written under ``trace_dir`` and the role of each pid."""
    spans: List[Dict[str, Any]] = []
    roles: Dict[int, str] = {}
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        roles[doc["pid"]] = doc["role"]
        spans.extend(doc["spans"])
    return spans, roles


def _key(span: Dict[str, Any]) -> Tuple[int, int]:
    return span["pid"], span["id"]


def _parent_key(span: Dict[str, Any]) -> Optional[Tuple[int, int]]:
    if span["parent"] is None:
        return None
    return span["pid"], span["parent"]


def check_nesting(spans: Iterable[Dict[str, Any]]) -> List[str]:
    """Problems with the span tree: a child outside its parent, etc."""
    by_key = {_key(span): span for span in spans}
    problems = []
    for span in by_key.values():
        if span["end"] < span["start"]:
            problems.append(f"{span['name']} ends before it starts")
        parent_key = _parent_key(span)
        if parent_key is None:
            continue
        parent = by_key.get(parent_key)
        if parent is None:
            problems.append(f"{span['name']} has no recorded parent")
        elif span["start"] < parent["start"] or span["end"] > parent["end"]:
            problems.append(f"{span['name']} leaks out of {parent['name']}")
    return problems


def clip(
    spans: Iterable[Dict[str, Any]], t0: float, t1: float
) -> List[Dict[str, Any]]:
    """Spans overlapping ``[t0, t1]``, cut to that window."""
    out = []
    for span in spans:
        start, end = max(span["start"], t0), min(span["end"], t1)
        if end > start:
            clipped = dict(span)
            clipped["start"], clipped["end"] = start, end
            out.append(clipped)
    return out


def self_times(spans: List[Dict[str, Any]]) -> Dict[Tuple[int, int], float]:
    """Each span's duration minus the part its children cover."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        parent_key = _parent_key(span)
        if parent_key is not None:
            children.setdefault(parent_key, []).append(
                (span["start"], span["end"])
            )
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children.get(_key(span), ())):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[_key(span)] = max(0.0, span["end"] - span["start"] - covered)
    return out


def attribute(
    spans: List[Dict[str, Any]], t0: float, t1: float
) -> Tuple[Dict[str, float], float]:
    """Split the wall time ``[t0, t1]`` among span names.

    At each instant the time goes in equal parts to the innermost open
    spans of every process and thread: the spans doing their own work
    at that instant rather than waiting on a wrapped child.  Polling
    loops (:data:`BACKGROUND`) get an instant only when nothing else
    is innermost.  Instants with no innermost span, other than the
    entry's own :data:`SWEEP_SPAN`, form the unattributed remainder,
    so the shares and the remainder add up to ``t1 - t0``.
    """
    spans = [
        s
        for s in clip(spans, t0, t1)
        if s["name"] != SWEEP_SPAN and s["end"] > s["start"]
    ]
    names = {_key(s): s["name"] for s in spans}
    parents = {_key(s): _parent_key(s) for s in spans}
    events: List[Tuple[float, int, int, Dict[str, Any]]] = []
    for span in spans:
        level, key = 0, parents[_key(span)]
        while key in names:
            level, key = level + 1, parents[key]
        events.append((span["start"], 1, level, span))
        events.append((span["end"], 0, -level, span))
    # At equal times: ends before starts, children close before their
    # parents and parents open before their children (spans clipped to
    # the window edges share those times).
    events.sort(key=lambda item: item[:3])
    open_children: Dict[Tuple[int, int], int] = {}
    leaves: Dict[Tuple[int, int], str] = {}
    shares: Dict[str, float] = {}
    unattributed = 0.0
    now = t0
    for when, is_start, _level, span in events:
        if when > now:
            dt = when - now
            busy = [n for n in leaves.values() if n not in BACKGROUND]
            owners = busy or list(leaves.values())
            if owners:
                for name in owners:
                    shares[name] = shares.get(name, 0.0) + dt / len(owners)
            else:
                unattributed += dt
            now = when
        key = _key(span)
        parent_key = _parent_key(span)
        parent_open = parent_key in open_children
        if is_start:
            open_children[key] = 0
            leaves[key] = span["name"]
            if parent_open:
                open_children[parent_key] += 1
                leaves.pop(parent_key, None)
        else:
            open_children.pop(key, None)
            leaves.pop(key, None)
            if parent_open:
                open_children[parent_key] -= 1
                if open_children[parent_key] == 0:
                    leaves[parent_key] = names[parent_key]
    if t1 > now:
        unattributed += t1 - now
    return shares, unattributed
