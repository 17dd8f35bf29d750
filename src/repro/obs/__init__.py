"""In-simulation observability: probes, metrics, traces, profiling.

The paper's §3 methodology is observational — everything is derived
from what a sniffer-mode station and the devices' firmware counters
expose.  ``repro.obs`` gives the simulator the same observability:

- :mod:`repro.obs.probe` — the MAC/PHY event bus embedded in the
  engine/MAC/PHY hot paths (near-zero overhead while detached);
- :mod:`repro.obs.registry` — labelled counters/gauges/histograms
  readable mid-run;
- :mod:`repro.obs.trace` — JSONL MAC trace and sniffer-compatible SoF
  trace exporters;
- :mod:`repro.obs.analyze` — recompute collision probability,
  fairness, stage occupancy and win runs *from a trace* and
  cross-check them against the direct ground truth;
- :mod:`repro.obs.profiler` — engine profiler (events/sec, wall time
  per process type, simulated-µs per wall-second);
- :mod:`repro.obs.capture` — attach everything to a run and flush the
  artifacts (the machinery behind ``repro-plc trace`` / ``profile``);
- :mod:`repro.obs.recording` — the shared JSONL event-record
  conventions, also used by :mod:`repro.runner.telemetry`.
"""

from .analyze import CrossCheckRow, analyze_mac_trace, analyze_sof_trace, cross_check
from .capture import ObsConfig, ObsSession, observed_collision_test
from .probe import MacProbe, deinstrument, instrument, instrument_testbed
from .profiler import EngineProfiler, ProfileReport
from .recording import JsonlEventLog, append_jsonl, as_jsonable, read_jsonl
from .registry import Counter, Gauge, Histogram, MetricsRegistry, ProbeMetrics
from .trace import (
    SOF_TRACE_FIELDS,
    MacTraceRecorder,
    SofTraceRecorder,
    load_mac_trace,
    load_sof_trace,
)

__all__ = [
    "MacProbe",
    "instrument",
    "instrument_testbed",
    "deinstrument",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProbeMetrics",
    "MacTraceRecorder",
    "SofTraceRecorder",
    "SOF_TRACE_FIELDS",
    "load_mac_trace",
    "load_sof_trace",
    "EngineProfiler",
    "ProfileReport",
    "JsonlEventLog",
    "append_jsonl",
    "as_jsonable",
    "read_jsonl",
    "CrossCheckRow",
    "analyze_mac_trace",
    "analyze_sof_trace",
    "cross_check",
    "ObsConfig",
    "ObsSession",
    "observed_collision_test",
]
