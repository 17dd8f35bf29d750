"""The §3.2 measurement procedure, as executable code.

One *test*: bring the testbed up (association, beacon lock), reset the
transmit statistics of all stations, run for the test duration, then
retrieve ΣC_i and ΣA_i with ampstat and evaluate the collision
probability as ΣC_i / ΣA_i.  :func:`repeat_tests` averages several
independently seeded tests (the paper averages 10).

The procedure is written once, as three steps every testbed driver
composes: :func:`warm_up`, :func:`open_window` (the stat reset) and
:func:`close_window` (run to the stop instant, read ampstat back).
:func:`run_collision_test` is the three in a row; the checkpointed,
chaos-injected, observed and recovery drivers add their hooks between
them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from .testbed import Testbed, build_testbed

__all__ = [
    "CollisionTest",
    "CollisionTestSeries",
    "MeasurementWindow",
    "close_window",
    "open_window",
    "run_collision_test",
    "repeat_tests",
    "warm_up",
    "DEFAULT_TEST_DURATION_US",
    "DEFAULT_WARMUP_US",
]

#: The paper's test duration: 240 s.
DEFAULT_TEST_DURATION_US = 240e6

#: Warm-up before resetting stats: lets association/beacons settle and
#: the queues reach their saturated steady state.
DEFAULT_WARMUP_US = 2e6


@dataclasses.dataclass(frozen=True)
class CollisionTest:
    """Result of one §3.2 test."""

    num_stations: int
    duration_us: float
    #: Per-station (mac, acked, collided) rows towards D at CA1.
    per_station: List[tuple]
    #: App-layer goodput observed at D, bits per µs (== Mbps).
    goodput_mbps: float

    @property
    def sum_acked(self) -> int:
        """ΣA_i — includes collided frames (selective-ACK rule, §3.2)."""
        return sum(acked for _mac, acked, _coll in self.per_station)

    @property
    def sum_collided(self) -> int:
        """ΣC_i."""
        return sum(collided for _mac, _acked, collided in self.per_station)

    @property
    def collision_probability(self) -> float:
        """ΣC_i / ΣA_i (§3.2's estimator)."""
        if self.sum_acked == 0:
            return 0.0
        return self.sum_collided / self.sum_acked

    def as_jsonable(self) -> Dict[str, Any]:
        """The ``collision_test`` task's result dict.

        >>> test = CollisionTest(2, 1e6, [("m1", 10, 2), ("m2", 8, 1)], 9.5)
        >>> CollisionTest.from_jsonable(test.as_jsonable()) == test
        True
        """
        return {
            "num_stations": self.num_stations,
            "duration_us": self.duration_us,
            "per_station": [
                [mac, int(acked), int(collided)]
                for mac, acked, collided in self.per_station
            ],
            "goodput_mbps": self.goodput_mbps,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "CollisionTest":
        """The test a result dict holds (extra keys are ignored)."""
        return cls(
            num_stations=data["num_stations"],
            duration_us=data["duration_us"],
            per_station=[tuple(row) for row in data["per_station"]],
            goodput_mbps=data["goodput_mbps"],
        )


@dataclasses.dataclass(frozen=True)
class CollisionTestSeries:
    """Several repetitions of the same test (different seeds)."""

    tests: List[CollisionTest]

    @property
    def num_stations(self) -> int:
        return self.tests[0].num_stations

    @property
    def collision_probability(self) -> float:
        return float(
            np.mean([test.collision_probability for test in self.tests])
        )

    @property
    def collision_probability_std(self) -> float:
        return float(
            np.std([test.collision_probability for test in self.tests])
        )

    @property
    def goodput_mbps(self) -> float:
        return float(np.mean([test.goodput_mbps for test in self.tests]))


@dataclasses.dataclass(frozen=True)
class MeasurementWindow:
    """An open §3.2 measurement window: what :func:`close_window`
    needs to finish it (a checkpoint carries these three values)."""

    start_us: float
    #: The exact instant the window stops at: ``Environment.run``'s
    #: delay arithmetic ``start + ((start + d) - start)``, which a
    #: resumed run reaches with ``run_until_at``.
    stop_us: float
    #: D's received bytes at the reset (the goodput baseline).
    rx_bytes_before: int


def warm_up(testbed: Testbed, warmup_us: float) -> None:
    """Bring-up: association handshakes, beacon lock, queue fill."""
    testbed.run_until(warmup_us)
    if not testbed.avln.all_associated:
        # Associations retry every 100 ms; extend the warm-up.
        testbed.run_until(warmup_us + 1e6)
    if not testbed.avln.all_associated:
        raise RuntimeError("stations failed to associate during warm-up")


def open_window(testbed: Testbed, duration_us: float) -> MeasurementWindow:
    """§3.2: reset the transmit statistics of all stations, and record
    where a ``duration_us`` window starts and stops."""
    testbed.reset_data_stats()
    start = testbed.env.now
    return MeasurementWindow(
        start_us=start,
        stop_us=start + ((start + duration_us) - start),
        rx_bytes_before=testbed.destination.received_bytes,
    )


def close_window(
    testbed: Testbed, window: MeasurementWindow, num_stations: int
) -> CollisionTest:
    """Run to the window's stop instant and retrieve the counters."""
    testbed.env.run_until_at(window.stop_us)
    elapsed = testbed.env.now - window.start_us
    received = testbed.destination.received_bytes - window.rx_bytes_before
    return CollisionTest(
        num_stations=num_stations,
        duration_us=elapsed,
        per_station=testbed.read_data_stats(),
        goodput_mbps=received * 8.0 / elapsed,
    )


def run_collision_test(
    num_stations: int,
    duration_us: float = DEFAULT_TEST_DURATION_US,
    warmup_us: float = DEFAULT_WARMUP_US,
    seed: Optional[int] = 1,
    testbed: Optional[Testbed] = None,
    **testbed_kwargs,
) -> CollisionTest:
    """Run one test following the §3.2 procedure."""
    tb = (
        testbed
        if testbed is not None
        else build_testbed(num_stations, seed=seed, **testbed_kwargs)
    )
    warm_up(tb, warmup_us)
    return close_window(tb, open_window(tb, duration_us), num_stations)


def repeat_tests(
    num_stations: int,
    repetitions: int = 10,
    duration_us: float = DEFAULT_TEST_DURATION_US,
    seed: int = 1,
    warmup_us: float = DEFAULT_WARMUP_US,
    runner=None,
    obs=None,
    **testbed_kwargs,
) -> CollisionTestSeries:
    """The paper's 10-test average at one network size.

    Repetition ``r`` keeps its historical explicit seed ``seed + r *
    1000`` (the golden Table 2 regression pins this bit-for-bit), so
    routing through a :class:`repro.runner.ExperimentRunner` — for
    parallel repetitions and on-disk memoization — cannot change the
    numbers.  Non-JSON-serializable ``testbed_kwargs`` (e.g. live
    config objects) fall back to the in-process loop.

    ``obs`` (an :class:`~repro.obs.capture.ObsConfig` or its dict form)
    captures per-repetition traces: each repetition's artifacts land in
    ``obs.dir`` labelled ``rep<r>`` (a non-empty ``obs.label`` becomes
    the prefix ``<label>_rep<r>``).
    """
    import json

    from ..runner import ExperimentRunner, Task, TaskKind, require_complete

    obs_per_rep = [None] * repetitions
    if obs is not None:
        from ..obs.capture import ObsConfig

        base = ObsConfig.from_jsonable(obs)
        prefix = f"{base.label}_" if base.label else ""
        obs_per_rep = [
            dataclasses.replace(base, label=f"{prefix}rep{repetition}")
            for repetition in range(repetitions)
        ]

    payload_kwargs = testbed_kwargs
    if testbed_kwargs:
        try:
            json.dumps(testbed_kwargs)
        except TypeError:
            payload_kwargs = None
    if payload_kwargs is None:
        tests = []
        for repetition in range(repetitions):
            rep_seed = seed + repetition * 1000
            if obs_per_rep[repetition] is not None:
                from ..obs.capture import observed_collision_test

                test, _capture = observed_collision_test(
                    num_stations,
                    obs_per_rep[repetition],
                    duration_us=duration_us,
                    warmup_us=warmup_us,
                    seed=rep_seed,
                    **testbed_kwargs,
                )
            else:
                test = run_collision_test(
                    num_stations,
                    duration_us=duration_us,
                    warmup_us=warmup_us,
                    seed=rep_seed,
                    **testbed_kwargs,
                )
            tests.append(test)
        return CollisionTestSeries(tests=tests)

    runner = runner if runner is not None else ExperimentRunner()
    tasks = []
    for repetition in range(repetitions):
        payload = {
            "num_stations": num_stations,
            "duration_us": duration_us,
            "warmup_us": warmup_us,
            "seed": seed + repetition * 1000,
            "testbed_kwargs": payload_kwargs,
        }
        if obs_per_rep[repetition] is not None:
            payload["obs"] = obs_per_rep[repetition].as_jsonable()
        tasks.append(Task(kind=TaskKind.COLLISION_TEST, payload=payload))
    entries = runner.run(tasks)
    require_complete(entries, runner.failures)
    return CollisionTestSeries(
        tests=[CollisionTest.from_jsonable(entry) for entry in entries]
    )
