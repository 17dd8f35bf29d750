"""Locks in the invariant checker's <10 % overhead on a fixed point.

Direct with/without wall-clock comparison is noisy on shared CI
hardware, so (following ``tests/obs/test_overhead.py``) the bound is
established deterministically:

1. run the fixed point instrumented, recording every probe event the
   checker would see;
2. run it uninstrumented and time it (the baseline);
3. *replay* the recorded stream through a fresh checker (deep sweeps
   included, at the production cadence) and time exactly that — the
   replay time IS the checker's added cost, with zero simulation noise
   mixed in;
4. assert replay < 10 % of baseline.

Steps 2 and 3 alternate three times, each timed region after a
``gc.collect()``, and each side keeps its fastest time, so one slow
sample on a busy host moves neither side.  Timed this way the checker
costs about 5 % of the baseline: the bound leaves a 2x margin.

The instrumented run doubles as a perturbation check: subscribing the
checker must not change the simulated outcome at all.
"""

import gc
import time

from repro.chaos.invariants import InvariantChecker
from repro.experiments.procedures import run_collision_test
from repro.experiments.testbed import build_testbed
from repro.obs import instrument_testbed

STATIONS = 3
DURATION_US = 2e6
SEED = 1
DEEP_EVERY = 256
REPEATS = 3


def _run_point(recording: bool):
    testbed = build_testbed(STATIONS, seed=SEED)
    events = []
    if recording:
        probe = instrument_testbed(testbed)
        probe.subscribe(lambda event: events.append(dict(event)))
    gc.collect()
    started = time.perf_counter()
    test = run_collision_test(
        STATIONS, duration_us=DURATION_US, seed=SEED, testbed=testbed
    )
    return time.perf_counter() - started, events, test, testbed


def _replay(events, testbed):
    """A fresh checker over the recorded stream, and its wall time."""
    # Watching the real station FSMs makes the deep sweeps representative;
    # the coordinator ledger is left unwatched because a post-hoc replay
    # has no live ledger to conserve against.
    checker = InvariantChecker(policy="count", deep_every=DEEP_EVERY)
    checker.watch(nodes=[device.node for device in testbed.avln.devices])
    gc.collect()
    started = time.perf_counter()
    for event in events:
        checker(event)
    return time.perf_counter() - started, checker


def test_checker_overhead_under_10_percent():
    _, events, observed, testbed = _run_point(recording=True)
    assert len(events) > 1000, "fixed point emitted suspiciously few events"

    baseline_s = replay_s = float("inf")
    for _ in range(REPEATS):
        elapsed_s, _, bare, _ = _run_point(recording=False)
        baseline_s = min(baseline_s, elapsed_s)
        elapsed_s, checker = _replay(events, testbed)
        replay_s = min(replay_s, elapsed_s)

    assert checker.events_seen == len(events)
    assert checker.deep_sweeps == len(events) // DEEP_EVERY
    assert replay_s < 0.10 * baseline_s, (
        f"checker took {replay_s*1e3:.1f} ms over {len(events)} events "
        f"({checker.deep_sweeps} deep sweeps), which exceeds 10% of the "
        f"{baseline_s*1e3:.0f} ms baseline (best of {REPEATS} each)"
    )

    # Checking must never perturb the simulation itself.
    assert observed.per_station == bare.per_station
    assert observed.collision_probability == bare.collision_probability
    assert observed.goodput_mbps == bare.goodput_mbps


def test_checker_subscription_does_not_perturb_results():
    """End-to-end variant: an inert plan + live checker on the probe bus
    leaves the §3.2 numbers bit-identical."""
    from repro.chaos.experiment import chaos_collision_test
    from repro.chaos.plan import ChaosPlan

    bare = run_collision_test(STATIONS, duration_us=DURATION_US, seed=SEED)
    checked, report = chaos_collision_test(
        STATIONS,
        ChaosPlan(),  # no faults: only the checker rides along
        duration_us=DURATION_US,
        seed=SEED,
    )
    assert report["invariants"]["green"]
    assert checked.per_station == bare.per_station
    assert checked.collision_probability == bare.collision_probability
    assert checked.goodput_mbps == bare.goodput_mbps
