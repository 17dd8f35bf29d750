"""Observability benchmarks: engine profile and probe overhead.

Two jobs:

1. Profile a fixed emulated-testbed run and persist the
   :class:`~repro.obs.profiler.ProfileReport` as
   ``BENCH_engine_profile.json`` — the ROADMAP's perf trajectory
   (events/sec, simulated-µs per wall-second, wall time per process
   type) finally has numbers on disk.
2. Measure the cost of the instrumentation itself: the same fixed
   Table-2 point with no probe, with a probe attached but no
   subscribers (the ``emit``-level fast path), and with a counting
   subscriber.  Each mode is timed the same way: best of 3, the modes
   interleaved, a ``gc.collect()`` before each run.  The result is
   persisted as ``BENCH_obs_overhead.json``.

   An attached probe sees every contention slot, so it makes the
   coordinator step idle slots one by one instead of taking a run of
   them as one timeout.  ``attached_overhead_ratio`` therefore includes
   the idle-run skip the probe turns off, not only the ``emit`` calls.

``REPRO_BENCH_JSON_DIR`` overrides where the JSON files land (default:
this directory).
"""

import gc
import os
import time
from pathlib import Path

import pytest

from repro.experiments.procedures import run_collision_test
from repro.experiments.testbed import build_testbed
from repro.obs import EngineProfiler, MacProbe, instrument_testbed
from repro.report.export import write_json

#: Where BENCH_*.json files are written.
JSON_DIR = Path(
    os.environ.get("REPRO_BENCH_JSON_DIR", Path(__file__).parent)
)

#: The fixed point: 3 stations, 5 virtual seconds (matches the
#: bench_engine_performance testbed bench for comparability).
POINT_STATIONS = 3
POINT_DURATION_US = 5e6
POINT_SEED = 1

#: The probe modes :func:`bench_probe_overhead` compares.
PROBE_MODES = ("none", "attached", "counting")


def _run_point(probe_mode: str) -> float:
    """Wall-clock seconds for the fixed point under one probe mode."""
    testbed = build_testbed(POINT_STATIONS, seed=POINT_SEED)
    if probe_mode == "attached":
        instrument_testbed(testbed)
    elif probe_mode == "counting":
        probe = instrument_testbed(testbed)
        counter = {"events": 0}
        probe.subscribe(lambda event: counter.__setitem__(
            "events", counter["events"] + 1
        ))
    started = time.perf_counter()
    run_collision_test(
        POINT_STATIONS,
        duration_us=POINT_DURATION_US,
        seed=POINT_SEED,
        testbed=testbed,
    )
    return time.perf_counter() - started


@pytest.mark.benchmark(group="observability")
def bench_engine_profile(benchmark, report):
    """Profile the emulated testbed; persist BENCH_engine_profile.json."""

    def run():
        testbed = build_testbed(POINT_STATIONS, seed=POINT_SEED)
        profiler = EngineProfiler().attach(testbed.env)
        run_collision_test(
            POINT_STATIONS,
            duration_us=POINT_DURATION_US,
            seed=POINT_SEED,
            testbed=testbed,
        )
        profiler.detach()
        return profiler.report()

    profile = benchmark.pedantic(run, rounds=1, iterations=1)
    assert profile.total_events > 1000
    assert profile.events_per_sec > 0
    path = write_json(
        JSON_DIR / "BENCH_engine_profile.json", profile.as_dict()
    )
    report(f"[observability] engine profile -> {path}\n" + profile.format())


@pytest.mark.benchmark(group="observability")
def bench_probe_overhead(benchmark, report):
    """Fixed point under the three probe modes; persist the ratios.

    Every mode is timed alike: best of 3 runs, interleaved across the
    modes, each after a ``gc.collect()``.  The ``attached`` and
    ``counting`` modes step every idle slot (a probe turns the idle-run
    skip off), so their ratios include that skip.
    """

    def measure():
        best = {mode: float("inf") for mode in PROBE_MODES}
        for _ in range(3):
            for mode in PROBE_MODES:
                gc.collect()
                best[mode] = min(best[mode], _run_point(mode))
        return best

    best = benchmark.pedantic(measure, rounds=1, iterations=1)
    baseline = best["none"]
    attached = best["attached"]
    counting = best["counting"]
    result = {
        "point": {
            "stations": POINT_STATIONS,
            "duration_us": POINT_DURATION_US,
            "seed": POINT_SEED,
        },
        "baseline_s": baseline,
        "probe_attached_s": attached,
        "counting_subscriber_s": counting,
        "attached_overhead_ratio": attached / baseline - 1.0,
        "counting_overhead_ratio": counting / baseline - 1.0,
    }
    path = write_json(JSON_DIR / "BENCH_obs_overhead.json", result)
    report(
        "[observability] probe overhead "
        f"(baseline {baseline*1e3:.0f} ms): attached "
        f"{result['attached_overhead_ratio']:+.1%}, counting subscriber "
        f"{result['counting_overhead_ratio']:+.1%} -> {path}"
    )
