"""Performance micro-benchmarks: simulator and engine throughput.

Not a paper artifact — these track that the two simulators stay fast
enough to run the paper-scale experiments (240 s × 10 tests × 7 network
sizes) in minutes.  Regressions here make the reproduction impractical.

``bench_batch_kernel_vs_fsm`` additionally records the vectorized
batch kernel's throughput advantage over the per-station FSM simulator
into ``BENCH_batch_kernel.json`` (location overridable via
``REPRO_BENCH_JSON_DIR``) and fails if the measured ratio drops below
the committed floor in ``batch_speedup_floor.json``.

``bench_throughput_floor`` gates the two scalar engines themselves:
``SlotSimulator`` and ``run_collision_test`` at N=2 and N=7, in
simulated µs per wall second, each divided by the rate of a fixed
calibration loop timed in the same run (so the ratio carries the
engine's speed, not the host's).  It records ``BENCH_throughput.json``
and fails if a ratio drops below its floor in ``throughput_floor.json``
(0.6 of the committed ratio: a 2x slower engine fails).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.core import ScenarioConfig, SlotSimulator
from repro.engine import Environment
from repro.experiments.procedures import run_collision_test

#: Where BENCH_*.json files are written.
JSON_DIR = Path(
    os.environ.get("REPRO_BENCH_JSON_DIR", Path(__file__).parent)
)

#: Committed regression floor for the kernel/FSM speedup ratio.
FLOOR_PATH = Path(__file__).parent / "batch_speedup_floor.json"

#: Committed throughput ratios and floors of the scalar engines.
THROUGHPUT_FLOOR_PATH = Path(__file__).parent / "throughput_floor.json"

#: Iterations of the calibration loop per timing.
CALIBRATION_ITERATIONS = 200_000


@pytest.mark.benchmark(group="performance")
def bench_slot_simulator_5_stations(benchmark):
    """Slot-simulator wall time for 10 virtual seconds, N=5."""
    scenario = ScenarioConfig.homogeneous(
        num_stations=5, sim_time_us=1e7, seed=1
    )

    def run():
        return SlotSimulator(scenario).run()

    result = benchmark(run)
    assert result.successes > 1000


@pytest.mark.benchmark(group="performance")
def bench_event_engine_timeout_churn(benchmark):
    """Raw engine throughput: 20k chained timeouts."""

    def run():
        env = Environment()

        def ticker(env):
            for _ in range(20_000):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        return env.now

    assert benchmark(run) == 20_000.0


@pytest.mark.benchmark(group="performance")
def bench_testbed_emulation_3_stations(benchmark):
    """Full emulated testbed (MMEs, bursts, SACKs), 5 virtual seconds."""

    def run():
        return run_collision_test(3, duration_us=5e6, seed=1)

    test = benchmark.pedantic(run, rounds=1, iterations=1)
    assert test.sum_acked > 1000


@pytest.mark.benchmark(group="performance")
def bench_batch_kernel_vs_fsm(benchmark, report):
    """Kernel vs FSM simulated-µs throughput, with regression floor.

    Runs the full point array through :class:`BatchSlotKernel`, times a
    sample of the same points through :class:`SlotSimulator`, checks the
    shared points are bit-identical, and records both rates plus their
    ratio into ``BENCH_batch_kernel.json``.  The ratio must clear the
    committed floor (``batch_speedup_floor.json``); the design target
    is 10x.
    """
    from conftest import FULL
    from repro.batch import BatchSlotKernel
    from repro.report.export import write_json

    batch_size = 1024
    num_stations = 5
    sim_time_us = 4e6 if FULL else 1e6
    fsm_sample = 16

    scenarios = [
        ScenarioConfig.homogeneous(
            num_stations=num_stations,
            sim_time_us=sim_time_us,
            seed=1000 + b,
        )
        for b in range(batch_size)
    ]

    # Each side keeps its best timing (kernel of 2 runs, FSM sample of
    # 3 passes): one run of either reads up to 1.5x slow on a busy host.
    timing = {"kernel_s": float("inf")}

    def run_kernel():
        kernel = BatchSlotKernel(scenarios)
        start = time.perf_counter()
        results = kernel.run()
        timing["kernel_s"] = min(
            timing["kernel_s"], time.perf_counter() - start
        )
        return results

    batch_results = benchmark.pedantic(run_kernel, rounds=2, iterations=1)

    fsm_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fsm_results = [
            SlotSimulator(scenarios[b]).run() for b in range(fsm_sample)
        ]
        fsm_s = min(fsm_s, time.perf_counter() - start)

    # The sampled points must be bit-identical across the two engines.
    for b in range(fsm_sample):
        assert batch_results[b] == fsm_results[b], f"point {b} diverged"

    kernel_rate = batch_size * sim_time_us / timing["kernel_s"]
    fsm_rate = fsm_sample * sim_time_us / fsm_s
    ratio = kernel_rate / fsm_rate

    floor = json.loads(FLOOR_PATH.read_text())
    result = {
        "batch_size": batch_size,
        "num_stations": num_stations,
        "sim_time_us": sim_time_us,
        "fsm_sample_points": fsm_sample,
        "kernel_rate_sim_us_per_s": kernel_rate,
        "fsm_rate_sim_us_per_s": fsm_rate,
        "speedup_ratio": ratio,
        "target_ratio": floor["target_ratio"],
        "floor_ratio": floor["min_ratio"],
        "full": FULL,
    }
    path = write_json(JSON_DIR / "BENCH_batch_kernel.json", result)
    report(
        "[batch] kernel {:.0f}M sim-us/s vs FSM {:.0f}M sim-us/s "
        "-> {:.1f}x (target {:.0f}x, floor {:.1f}x) -> {}".format(
            kernel_rate / 1e6,
            fsm_rate / 1e6,
            ratio,
            floor["target_ratio"],
            floor["min_ratio"],
            path,
        )
    )
    assert ratio >= floor["min_ratio"], (
        f"batch kernel speedup {ratio:.2f}x fell below the committed "
        f"floor {floor['min_ratio']}x (see {FLOOR_PATH})"
    )


class _Counter:
    """The calibration loop's work: one attribute update per call."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, k: int) -> bool:
        self.value += k
        return self.value & 1 == 0


def _calibration_rate() -> float:
    """Iterations per wall second of a fixed pure-Python loop of method
    calls and attribute updates (best of 5)."""
    counter = _Counter()
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for i in range(CALIBRATION_ITERATIONS):
            counter.bump(i)
        best = min(best, time.perf_counter() - start)
    return CALIBRATION_ITERATIONS / best


def _throughput_points():
    """``{name: (run, simulated µs)}`` for the gated engine points."""
    points = {}
    for n in (2, 7):
        scenario = ScenarioConfig.homogeneous(
            num_stations=n, sim_time_us=2e7, seed=1
        )
        points[f"slotsim_n{n}"] = (
            lambda scenario=scenario: SlotSimulator(scenario).run(),
            scenario.sim_time_us,
        )
    for n in (2, 7):
        # Warm-up (2 s) plus the 3 s test window.
        points[f"testbed_n{n}"] = (
            lambda n=n: run_collision_test(n, duration_us=3e6, seed=1),
            5e6,
        )
    return points


@pytest.mark.benchmark(group="performance")
def bench_throughput_floor(benchmark, report):
    """Scalar-engine throughput over a same-run calibration loop, with
    regression floors.

    Each point runs 5 times, interleaved with the other points.  The
    calibration loop is timed right before and right after every run,
    so a host that changes speed mid-bench moves both sides of the
    ratio: a run's ratio is its simulated µs per wall second over the
    mean of the two loop rates (iterations per second).  A point
    reports its median run.
    """
    from repro.report.export import write_json

    points = _throughput_points()

    def measure():
        runs = {name: [] for name in points}
        for _ in range(5):
            for name, (run, sim_us) in points.items():
                before = _calibration_rate()
                start = time.perf_counter()
                run()
                rate = sim_us / (time.perf_counter() - start)
                calibration = (before + _calibration_rate()) / 2
                runs[name].append((rate / calibration, rate, calibration))
        return {name: sorted(samples)[2] for name, samples in runs.items()}

    median = benchmark.pedantic(measure, rounds=1, iterations=1)
    floors = json.loads(THROUGHPUT_FLOOR_PATH.read_text())["points"]
    ratios = {name: median[name][0] for name in points}
    rates = {name: median[name][1] for name in points}
    result = {f"{name}_ratio": ratio for name, ratio in ratios.items()}
    result.update(
        {f"{name}_sim_us_per_s": rate for name, rate in rates.items()}
    )
    result.update(
        {
            f"{name}_calibration_iter_per_s": median[name][2]
            for name in points
        }
    )
    result["floors"] = {
        name: floors[name]["min_ratio"] for name in points
    }
    path = write_json(JSON_DIR / "BENCH_throughput.json", result)
    report(
        "[throughput] "
        + ", ".join(
            f"{name} {rates[name] / 1e6:.1f}M sim-us/s "
            f"(ratio {ratios[name]:.1f}, floor {floors[name]['min_ratio']})"
            for name in points
        )
        + f" -> {path}"
    )
    slow = {
        name: (ratios[name], floors[name]["min_ratio"])
        for name in points
        if ratios[name] < floors[name]["min_ratio"]
    }
    assert not slow, (
        f"throughput ratio below its committed floor (ratio, floor): "
        f"{slow} (see {THROUGHPUT_FLOOR_PATH})"
    )
