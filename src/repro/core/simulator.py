"""Slot-synchronous simulator for the 1901/802.11 CSMA/CA MAC.

This is a faithful generalization of the reference MATLAB simulator
listed in §4.2 of the paper (``sim_1901``).  The main loop is the same
renewal structure over *slot events*, each either an idle slot
(advancing time by the slot duration), a successful transmission
(advancing by ``Ts``) or a collision (advancing by ``Tc``).  Stations'
counters evolve per :class:`repro.core.station.Station`.

An iteration is one slot event, except for a run of idle slots that no
station can end: when every station is IDLE, none can attempt for
``min(BC) - 1`` slot events (:attr:`Station.quiet_slots`), and one
iteration takes that run whole.  It adds the slot duration once per
skipped slot and stops where the slot-by-slot loop stops, so every
result, timestamp and pause point is bit-identical.  A run that records
each slot (``record_slots=True``) steps slot by slot.

Generalizations over the listing (each individually defaulting to the
listing's behaviour):

- heterogeneous per-station configurations;
- optional transmission/slot traces (for Figure 1 and fairness studies);
- optional per-frame access-delay recording;
- finite retry limits;
- unsaturated stations with Poisson arrivals and finite queues.

The function :func:`sim_1901` mirrors the MATLAB entry point's exact
signature and return value for side-by-side comparison.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..engine.randomness import RandomStreams
from .config import CsmaConfig, ScenarioConfig, TimingConfig
from .results import SimulationResult, StationStats
from .station import SlotOutcome, Station
from .trace import SlotRecord, Trace, TransmissionRecord

__all__ = ["SlotSimulator", "simulate", "sim_1901"]


class _ArrivalProcess:
    """Poisson frame arrivals with a finite queue (unsaturated mode)."""

    def __init__(
        self, rate_pps: float, capacity: int, rng: np.random.Generator
    ) -> None:
        self.mean_interarrival_us = 1e6 / rate_pps
        self.capacity = capacity
        self.rng = rng
        self.queue = 0
        self.next_arrival_us = self._draw()
        self.arrivals = 0
        self.losses = 0

    def _draw(self) -> float:
        return float(self.rng.exponential(self.mean_interarrival_us))

    def advance(self, now_us: float) -> None:
        """Account for all arrivals up to ``now_us``."""
        while self.next_arrival_us <= now_us:
            self.arrivals += 1
            if self.queue < self.capacity:
                self.queue += 1
            else:
                self.losses += 1
            self.next_arrival_us += self._draw()


class SlotSimulator:
    """Run a :class:`ScenarioConfig` through the slot-synchronous MAC.

    Parameters
    ----------
    scenario:
        The scenario to simulate.
    record_trace:
        Keep a :class:`TransmissionRecord` per channel event.
    record_slots:
        Additionally keep a full counter snapshot per slot event
        (memory-heavy; use for short runs such as Figure 1).  Such a
        run steps every idle slot event instead of skipping idle runs.
    record_delays:
        Record the MAC access delay of every delivered frame.
    streams:
        Random substream tree; defaults to one derived from
        ``scenario.seed``.
    """

    def __init__(
        self,
        scenario: ScenarioConfig,
        record_trace: bool = False,
        record_slots: bool = False,
        record_delays: bool = False,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.scenario = scenario
        self.record_trace = record_trace or record_slots
        self.record_slots = record_slots
        self.record_delays = record_delays
        self.streams = (
            streams if streams is not None else RandomStreams(scenario.seed)
        )
        #: Loop state (stations, arrival processes, counters, clock).
        #: Created lazily by :meth:`advance`; every field is picklable,
        #: which is what makes this simulator checkpointable — see
        #: :mod:`repro.checkpoint.slotsim`.
        self._state: Optional[dict] = None

    def _initialize(self) -> None:
        scenario = self.scenario
        stations: List[Station] = []
        arrivals: List[Optional[_ArrivalProcess]] = []
        for i, cfg in enumerate(scenario.stations):
            rng = self.streams.stream("station", i)
            station = Station(cfg.csma, rng, index=i)
            stations.append(station)
            if cfg.saturated:
                arrivals.append(None)
            else:
                proc = _ArrivalProcess(
                    cfg.arrival_rate_pps,
                    cfg.queue_capacity,
                    self.streams.stream("arrivals", i),
                )
                station.sleep()
                arrivals.append(proc)

        self._state = {
            "stations": stations,
            "arrivals": arrivals,
            "trace": (
                Trace(record_slots=self.record_slots)
                if self.record_trace
                else None
            ),
            "delays": [],
            "frame_start": [0.0] * len(stations),
            "t": 0.0,
            "successes": 0,
            "collisions": 0,
            "collision_events": 0,
            "idle_slots": 0,
        }

    @property
    def finished(self) -> bool:
        """Whether the main loop has consumed the configured sim time."""
        state = self._state
        return state is not None and state["t"] > self.scenario.sim_time_us

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        self.advance(None)
        return self.result()

    def advance(self, pause_at_us: Optional[float]) -> bool:
        """Run slot events until ``pause_at_us`` (or to completion).

        Returns ``True`` once the simulation has finished.  Pausing
        happens only *between* slot events, so a run interleaved with
        any number of pauses (and checkpoint snapshots) takes the
        exact same slot events as an uninterrupted one (a run of idle
        slot events skipped in one step ends at the pause).
        """
        if self._state is None:
            self._initialize()
        state = self._state
        scenario = self.scenario
        timing = scenario.timing
        slot, ts, tc = timing.slot, timing.ts, timing.tc

        stations = state["stations"]
        arrivals = state["arrivals"]
        trace = state["trace"]
        delays = state["delays"]
        frame_start = state["frame_start"]

        t = state["t"]
        successes = state["successes"]
        collisions = state["collisions"]
        collision_events = state["collision_events"]
        idle_slots = state["idle_slots"]
        sim_time = scenario.sim_time_us

        paused = False
        # Only a stepped idle slot event leaves every station IDLE, so
        # only after one can a run of idle slot events be skipped.
        after_idle = False
        while t <= sim_time:
            if pause_at_us is not None and t >= pause_at_us:
                paused = True
                break
            # Wake unsaturated stations whose arrivals are due.
            for i, proc in enumerate(arrivals):
                if proc is None:
                    continue
                proc.advance(t)
                if stations[i].dormant and proc.queue > 0:
                    stations[i].reset_for_new_frame()
                    frame_start[i] = t

            # A run of slot events in which no station can attempt is
            # taken in one step, unless each slot is recorded.  It
            # stops where the slot-by-slot loop would, and adds ``slot``
            # once per slot event so every timestamp stays the same.
            if after_idle and not self.record_slots:
                after_idle = False
                quiet = min([station.quiet_slots for station in stations])
                if quiet > 0:
                    skipped = 1
                    start = t
                    t += slot
                    while skipped < quiet and t <= sim_time and (
                        pause_at_us is None or t < pause_at_us
                    ):
                        start = t
                        t += slot
                        skipped += 1
                    for station in stations:
                        station.skip_idle(skipped)
                    idle_slots += skipped
                    # The loop would have accounted arrivals at the
                    # start of each skipped slot event.
                    for proc in arrivals:
                        if proc is not None:
                            proc.advance(start)
                    continue

            # Contention phase.
            attempt_indices = [
                i for i, station in enumerate(stations) if station.step()
            ]
            count = len(attempt_indices)

            # Medium outcome.
            if count == 0:
                outcome = SlotOutcome.IDLE
                idle_slots += 1
                dt = slot
                winner = None
                after_idle = True
            elif count == 1:
                outcome = SlotOutcome.SUCCESS
                successes += 1
                dt = ts
                winner = attempt_indices[0]
            else:
                outcome = SlotOutcome.COLLISION
                collisions += count
                collision_events += 1
                dt = tc
                winner = None

            if trace is not None and count > 0:
                trace.add_transmission(
                    TransmissionRecord(
                        time_us=t,
                        outcome=(
                            "success"
                            if outcome == SlotOutcome.SUCCESS
                            else "collision"
                        ),
                        stations=tuple(attempt_indices),
                        winner=winner,
                        stages=tuple(
                            stations[i].stage for i in attempt_indices
                        ),
                    )
                )
            if trace is not None and self.record_slots:
                trace.add_slot(
                    SlotRecord(
                        time_us=t,
                        outcome=outcome.name.lower(),
                        per_station=tuple(
                            (s.stage, s.cw, s.dc, s.bc) for s in stations
                        ),
                    )
                )

            t += dt

            # Feedback phase.
            for i, station in enumerate(stations):
                frame_done = station.resolve(outcome, won=(i == winner))
                if not frame_done:
                    continue
                if self.record_delays:
                    delays.append(t - frame_start[i])
                proc = arrivals[i]
                if proc is None:
                    # Saturated: next frame immediately.
                    station.reset_for_new_frame()
                    frame_start[i] = t
                else:
                    proc.queue -= 1
                    proc.advance(t)
                    if proc.queue > 0:
                        station.reset_for_new_frame()
                        frame_start[i] = t
                    else:
                        station.sleep()

        state["t"] = t
        state["successes"] = successes
        state["collisions"] = collisions
        state["collision_events"] = collision_events
        state["idle_slots"] = idle_slots
        return not paused

    def result(self) -> SimulationResult:
        """Assemble the result of a finished run."""
        if not self.finished:
            raise RuntimeError("simulation has not run to completion")
        state = self._state
        stations = state["stations"]
        arrivals = state["arrivals"]
        stats = [
            StationStats(
                index=s.index,
                successes=s.successes,
                collisions=s.collisions,
                drops=s.drops,
                jumps=s.jumps,
                arrivals=arrivals[i].arrivals if arrivals[i] else 0,
                queue_losses=arrivals[i].losses if arrivals[i] else 0,
            )
            for i, s in enumerate(stations)
        ]
        return SimulationResult(
            scenario=self.scenario,
            duration_us=state["t"],
            successes=state["successes"],
            collisions=state["collisions"],
            collision_events=state["collision_events"],
            idle_slots=state["idle_slots"],
            stations=stats,
            trace=state["trace"],
            delays_us=(
                np.array(state["delays"]) if self.record_delays else None
            ),
        )


def simulate(
    scenario: ScenarioConfig,
    repetitions: int = 1,
    record_trace: bool = False,
    record_delays: bool = False,
) -> List[SimulationResult]:
    """Run ``scenario`` for several independently seeded repetitions."""
    root = RandomStreams(scenario.seed)
    results = []
    for rep in range(repetitions):
        sim = SlotSimulator(
            scenario,
            record_trace=record_trace,
            record_delays=record_delays,
            streams=root.spawn("rep", rep),
        )
        results.append(sim.run())
    return results


def sim_1901(
    n: int,
    sim_time: float,
    tc: float,
    ts: float,
    frame_length: float,
    cw: Sequence[int],
    dc: Sequence[int],
    seed: Optional[int] = 1,
) -> Tuple[float, float]:
    """Drop-in equivalent of the paper's MATLAB ``sim_1901`` function.

    Signature, argument order (note: ``Tc`` before ``Ts``) and return
    value ``(collision_pr, norm_throughput)`` match the listing.

    >>> p, s = sim_1901(2, 5e6, 2542.64, 2920.64, 2050.0,
    ...                 [8, 16, 32, 64], [0, 1, 3, 15], seed=1)
    >>> 0.0 < p < 0.2 and 0.5 < s < 0.75
    True
    """
    scenario = ScenarioConfig.homogeneous(
        num_stations=n,
        csma=CsmaConfig(cw=tuple(cw), dc=tuple(dc)),
        timing=TimingConfig(ts=ts, tc=tc, frame=frame_length),
        sim_time_us=sim_time,
        seed=seed,
    )
    result = SlotSimulator(scenario).run()
    return result.collision_probability, result.normalized_throughput
