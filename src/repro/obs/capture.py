"""Capture orchestration: attach probes/exporters to a whole run.

:class:`ObsConfig` is the JSON-able "what to capture" description that
rides inside runner task payloads (``payload["obs"]``), so parallel
sweeps can capture traces per point; :class:`ObsSession` attaches the
probe, recorders, metrics and profiler to a built testbed and
:meth:`ObsSession.finalize` flushes all artifacts to disk.

:func:`observed_collision_test` wraps the §3.2 measurement procedure
with a capture session and returns the test result together with the
artifact paths and a trace-vs-``RoundLog`` cross-check — the
self-validation the ``repro-plc trace`` CLI subcommand surfaces.

Experiment modules are imported lazily inside functions: this module
is imported from ``repro.obs`` (and transitively from the runner),
while ``repro.experiments`` imports the runner at module level.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .analyze import cross_check
from .probe import deinstrument, instrument_testbed
from .profiler import EngineProfiler
from .registry import ProbeMetrics
from .trace import MacTraceRecorder, SofTraceRecorder

__all__ = ["ObsConfig", "ObsSession", "observed_collision_test"]


@dataclasses.dataclass(frozen=True)
class ObsConfig:
    """What to capture for one run (JSON-able, cache-key friendly).

    >>> config = ObsConfig(dir="/tmp/obs", label="rep0")
    >>> ObsConfig.from_jsonable(config.as_jsonable()) == config
    True
    """

    #: Directory receiving all artifacts (created on demand).
    dir: str
    mac_trace: bool = True
    sof_trace: bool = True
    profile: bool = False
    metrics: bool = False
    #: Distinguishes artifacts of repeated runs in one directory.
    label: str = ""

    def _path(self, stem: str, suffix: str) -> Path:
        tag = f"_{self.label}" if self.label else ""
        return Path(self.dir) / f"{stem}{tag}{suffix}"

    @property
    def mac_trace_path(self) -> Path:
        return self._path("mac_trace", ".jsonl")

    @property
    def sof_trace_path(self) -> Path:
        return self._path("sof_trace", ".jsonl")

    @property
    def profile_path(self) -> Path:
        return self._path("profile", ".json")

    @property
    def metrics_path(self) -> Path:
        return self._path("metrics", ".json")

    @property
    def chaos_ledger_path(self) -> Path:
        return self._path("chaos_ledger", ".jsonl")

    def as_jsonable(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(
        cls, data: Union["ObsConfig", Dict[str, Any]]
    ) -> "ObsConfig":
        if isinstance(data, cls):
            return data
        return cls(**data)


class ObsSession:
    """All observability hooks of one run, attached and ready.

    Attaches a probe (clocked on the testbed's environment) plus the
    recorders/profiler selected by the config.  Call
    :meth:`finalize` once the run is over to detach everything and
    flush the artifacts.
    """

    def __init__(self, testbed: Any, config: Union[ObsConfig, Dict[str, Any]]) -> None:
        self.testbed = testbed
        self.config = ObsConfig.from_jsonable(config)
        self.probe = instrument_testbed(testbed)
        self.mac_recorder: Optional[MacTraceRecorder] = None
        self.sof_recorder: Optional[SofTraceRecorder] = None
        self.metrics: Optional[ProbeMetrics] = None
        self.profiler: Optional[EngineProfiler] = None
        if self.config.mac_trace:
            self.mac_recorder = MacTraceRecorder()
            self.probe.subscribe(self.mac_recorder)
        if self.config.sof_trace:
            self.sof_recorder = SofTraceRecorder()
            self.probe.subscribe(self.sof_recorder)
        if self.config.metrics:
            self.metrics = ProbeMetrics()
            self.probe.subscribe(self.metrics)
        if self.config.profile:
            self.profiler = EngineProfiler().attach(testbed.env)
        self._finalized = False

    def finalize(self) -> Dict[str, Any]:
        """Detach all hooks, flush artifacts, return their paths."""
        if self._finalized:
            raise RuntimeError("ObsSession already finalized")
        self._finalized = True
        config = self.config
        paths: Dict[str, str] = {}
        summary: Dict[str, Any] = {"paths": paths}
        if self.profiler is not None:
            self.profiler.detach()
            report = self.profiler.report()
            config.profile_path.parent.mkdir(parents=True, exist_ok=True)
            config.profile_path.write_text(
                json.dumps(report.as_dict(), indent=2) + "\n"
            )
            paths["profile"] = str(config.profile_path)
            summary["profile"] = report.as_dict()
        if self.mac_recorder is not None:
            self.mac_recorder.flush_jsonl(config.mac_trace_path)
            paths["mac_trace"] = str(config.mac_trace_path)
            summary["mac_events"] = len(self.mac_recorder)
        if self.sof_recorder is not None:
            self.sof_recorder.flush_jsonl(config.sof_trace_path)
            paths["sof_trace"] = str(config.sof_trace_path)
            summary["sof_rows"] = len(self.sof_recorder)
        if self.metrics is not None:
            config.metrics_path.parent.mkdir(parents=True, exist_ok=True)
            config.metrics_path.write_text(
                json.dumps(self.metrics.registry.as_dict(), indent=2) + "\n"
            )
            paths["metrics"] = str(config.metrics_path)
        deinstrument(
            coordinator=self.testbed.avln.coordinator,
            strip=self.testbed.avln.strip,
            nodes=[device.node for device in self.testbed.avln.devices],
        )
        return summary


def observed_collision_test(
    num_stations: int,
    obs: Union[ObsConfig, Dict[str, Any]],
    duration_us: Optional[float] = None,
    warmup_us: Optional[float] = None,
    seed: int = 1,
    **testbed_kwargs,
):
    """One §3.2 collision test with full capture.

    The probe is attached *before* the warm-up so the MAC trace covers
    exactly the span the coordinator's :class:`RoundLog` aggregates —
    which is what makes the returned ``cross_check`` exact (1e-9).

    Returns ``(test, capture)`` where ``test`` is the usual
    :class:`~repro.experiments.procedures.CollisionTest` and
    ``capture`` extends :meth:`ObsSession.finalize`'s summary with the
    final ``round_log`` counters and the cross-check rows.
    """
    from ..experiments.procedures import (
        DEFAULT_TEST_DURATION_US,
        DEFAULT_WARMUP_US,
        run_collision_test,
    )
    from ..experiments.testbed import build_testbed

    if duration_us is None:
        duration_us = DEFAULT_TEST_DURATION_US
    if warmup_us is None:
        warmup_us = DEFAULT_WARMUP_US

    testbed = build_testbed(num_stations, seed=seed, **testbed_kwargs)
    session = ObsSession(testbed, obs)
    test = run_collision_test(
        num_stations,
        duration_us=duration_us,
        warmup_us=warmup_us,
        seed=seed,
        testbed=testbed,
    )
    capture = session.finalize()
    round_log = testbed.avln.coordinator.log
    capture["round_log"] = round_log.as_dict()
    if session.mac_recorder is not None:
        rows = cross_check(session.mac_recorder.events, round_log)
        capture["cross_check"] = [row.as_jsonable() for row in rows]
        capture["cross_check_ok"] = all(row.within(1e-9) for row in rows)
    return test, capture
