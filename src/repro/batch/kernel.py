"""Vectorized struct-of-arrays slot kernel.

:class:`BatchSlotKernel` advances *many* independent ``(scenario,
seed)`` points per process in lockstep.  Where
:class:`~repro.core.simulator.SlotSimulator` dispatches one Python
method call per station per slot event, the kernel keeps every
counter of every point in ``(batch, station)`` numpy arrays

- ``bc``  — backoff counters,
- ``dc``  — deferral counters,
- ``bpc`` — backoff procedure counters,
- ``cw``  — current contention windows,
- ``state`` — the per-lane FSM state (INIT / IDLE / DORMANT),

plus per-point clocks and outcome counters, and applies the paper's
BC/DC update rules as masked array operations.  One lockstep
iteration is one *slot event per point*: account Poisson arrivals and
wake dormant stations, decrement/redraw counters, find the attempting
stations, classify each point's medium outcome (idle / success /
collision) and apply the feedback phase — all batched across points.

Equivalence is the contract
---------------------------
The kernel is **bit-exact** against ``SlotSimulator``: each
``(point, station)`` lane owns the same named substreams
(``streams.stream("station", i)`` for backoff draws,
``stream("arrivals", i)`` for unsaturated traffic) the scalar
simulator would use, and draws from them *only* at the FSM's redraw /
arrival events, in the same order.  Every counter update mirrors
:meth:`repro.core.station.Station.step` /
:meth:`~repro.core.station.Station.resolve` exactly, so a batch of
points produces, per point, the very numbers an independent
``SlotSimulator`` run would — the differential harness in
``tests/batch/`` locks this per round.  Backoff and interarrival
draws are the only per-lane scalar operations left (a lane's next
variate depends on its own generator state — and the backoff draws
are themselves batched by :class:`~repro.batch.lanes.LaneRngs`);
everything else is array code, which is where the ≥10× throughput
over the event-driven FSM comes from
(``benchmarks/bench_engine_performance.py`` records the ratio).

Supported scenarios
-------------------
Everything :class:`~repro.core.simulator.SlotSimulator` itself runs:
saturated and unsaturated (Poisson-arrival, finite-queue) stations,
heterogeneous mixes, finite retry limits, 1901 and 802.11 schedules.
Retry limits and arrival processes live as additional ``(batch,
station)`` array state (``attempts``/``retry_limit``/``st_drops`` and
``queue``/``next_arrival_us``/...), activated only when a batch
contains such stations so the saturated fast path pays nothing.
Delay recording and slot traces beyond the ``on_round`` hook, PRS
priority resolution and chaos plans remain with the scalar simulator
and the event-driven testbed.  The support-matrix property test
(``tests/batch/test_support_matrix.py``) holds every scenario family
to the differential harness.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.config import ScenarioConfig
from ..core.results import SimulationResult, StationStats
from ..core.station import StationState
from ..engine.randomness import RandomStreams
from .lanes import LaneRngs

__all__ = [
    "BatchSlotKernel",
    "batch_simulate",
]

#: Sentinel "retry limit" for infinite-retry lanes: far above any
#: reachable attempt count, so the drop comparison never fires.
_NO_RETRY_LIMIT = np.int64(2**62)

_INIT = np.int64(StationState.INIT)
_IDLE = np.int64(StationState.IDLE)
_DORMANT = np.int64(StationState.DORMANT)


class BatchSlotKernel:
    """Lockstep slot-synchronous simulation of a batch of points.

    Parameters
    ----------
    scenarios:
        One :class:`~repro.core.config.ScenarioConfig` per point.
        Points may differ in station count, schedules, timing and
        simulated duration; shorter points simply finish earlier and
        their lanes go inert.
    streams:
        Optional parallel sequence of
        :class:`~repro.engine.randomness.RandomStreams`, one per
        point.  Defaults to ``RandomStreams(scenario.seed)``, exactly
        like ``SlotSimulator``.  Pass the trees from
        :func:`repro.runner.seeding.streams_for` to reproduce runner
        points.  Each tree must be exclusive to this kernel —
        substream generators are stateful (see
        ``RandomStreams.clone``).
    on_round:
        Optional callback invoked once per lockstep iteration, after
        the contention phase and outcome classification but before
        the feedback phase — the exact instant ``SlotSimulator``
        snapshots its per-slot trace records.  Receives the kernel;
        read (do not mutate) the array attributes.  Used by the
        differential trace adapter.
    """

    def __init__(
        self,
        scenarios: Sequence[ScenarioConfig],
        streams: Optional[Sequence[RandomStreams]] = None,
        on_round: Optional[Callable[["BatchSlotKernel"], None]] = None,
    ) -> None:
        if not scenarios:
            raise ValueError("batch needs at least one scenario")
        if streams is not None and len(streams) != len(scenarios):
            raise ValueError(
                f"got {len(streams)} stream trees for "
                f"{len(scenarios)} scenarios"
            )
        self.scenarios = list(scenarios)
        self.on_round = on_round

        B = len(self.scenarios)
        N = max(s.num_stations for s in self.scenarios)
        S = max(
            cfg.csma.num_stages
            for s in self.scenarios
            for cfg in s.stations
        )
        self.batch_size = B
        self.max_stations = N

        # -- static per-point / per-lane configuration ------------------
        #: Lanes that hold a real station (points with fewer stations
        #: than the widest one leave their trailing lanes inert).
        self.lane = np.zeros((B, N), dtype=bool)
        self.cw_sched = np.ones((B, N, S), dtype=np.int64)
        self.dc_sched = np.zeros((B, N, S), dtype=np.int64)
        #: Per-lane ``num_stages - 1`` (the stage clamp).
        self.last_stage = np.zeros((B, N), dtype=np.int64)
        self.slot_us = np.empty(B, dtype=np.float64)
        self.ts_us = np.empty(B, dtype=np.float64)
        self.tc_us = np.empty(B, dtype=np.float64)
        self.sim_time_us = np.empty(B, dtype=np.float64)

        #: Per-lane retry limit (``_NO_RETRY_LIMIT`` = infinite).
        self.retry_limit = np.full((B, N), _NO_RETRY_LIMIT, dtype=np.int64)
        #: Lanes with an unsaturated (Poisson-arrival) station.
        self.unsat = np.zeros((B, N), dtype=bool)
        self.queue_cap = np.zeros((B, N), dtype=np.int64)
        self.mean_interarrival_us = np.zeros((B, N), dtype=np.float64)

        for b, scenario in enumerate(self.scenarios):
            timing = scenario.timing
            self.slot_us[b] = timing.slot
            self.ts_us[b] = timing.ts
            self.tc_us[b] = timing.tc
            self.sim_time_us[b] = scenario.sim_time_us
            for i, cfg in enumerate(scenario.stations):
                csma = cfg.csma
                m = csma.num_stages
                self.lane[b, i] = True
                self.last_stage[b, i] = m - 1
                # Pad short schedules with the last stage's values; the
                # stage index is clamped to last_stage anyway, so the
                # padding is never selected — it only keeps the gather
                # in one rectangular array.
                self.cw_sched[b, i, :m] = csma.cw
                self.cw_sched[b, i, m:] = csma.cw[-1]
                self.dc_sched[b, i, :m] = csma.dc
                self.dc_sched[b, i, m:] = csma.dc[-1]
                if csma.retry_limit is not None:
                    self.retry_limit[b, i] = csma.retry_limit
                if not cfg.saturated:
                    self.unsat[b, i] = True
                    self.queue_cap[b, i] = cfg.queue_capacity
                    self.mean_interarrival_us[b, i] = (
                        1e6 / cfg.arrival_rate_pps
                    )

        #: Whether any lane needs the attempt-count / drop machinery.
        self._track_attempts = bool(
            (self.retry_limit != _NO_RETRY_LIMIT).any()
        )
        #: Whether any lane runs an arrival process.
        self._has_unsat = bool(self.unsat.any())
        #: Saturated-infinite-retry fast path: the feedback phase is
        #: just the winner's frame reset.
        self._plain = not (self._track_attempts or self._has_unsat)

        # -- per-lane RNG streams (the bit-exactness anchor) -------------
        if streams is None:
            streams = [RandomStreams(s.seed) for s in self.scenarios]
        self.streams = list(streams)
        #: Flat (b * N + i) list of per-lane generators; inert lanes
        #: keep ``None`` and never draw.  Exactly the substreams the
        #: scalar simulator's stations would own.
        self._generators: List[Optional[np.random.Generator]] = [None] * (
            B * N
        )
        for b, scenario in enumerate(self.scenarios):
            for i in range(scenario.num_stations):
                self._generators[b * N + i] = self.streams[b].stream(
                    "station", i
                )
        self.rngs = LaneRngs(self._generators)

        #: Flat per-lane arrival generators (unsaturated lanes only) —
        #: exactly the ``stream("arrivals", i)`` substreams the scalar
        #: simulator's ``_ArrivalProcess`` objects would own.  Arrival
        #: events are orders of magnitude rarer than slot events, so
        #: these stay real ``Generator`` objects drawn scalar-ly.
        self._arrival_generators: List[Optional[np.random.Generator]] = [
            None
        ] * (B * N)

        # Flat views used by the redraw gather (C-contiguous, so
        # ``ravel`` aliases the 2-D arrays).
        self._num_sched_stages = S
        self._cw_sched_flat = self.cw_sched.reshape(-1)
        self._dc_sched_flat = self.dc_sched.reshape(-1)
        self._last_stage_flat = self.last_stage.ravel()

        # -- dynamic state (mirrors Station + SlotSimulator loop) --------
        self.bc = np.zeros((B, N), dtype=np.int64)
        self.dc = np.zeros((B, N), dtype=np.int64)
        self.bpc = np.zeros((B, N), dtype=np.int64)
        self.cw = self.cw_sched[:, :, 0].copy()
        #: Per-lane FSM state (:class:`~repro.core.station
        #: .StationState` values INIT / IDLE / DORMANT).  Saturated
        #: points keep every lane in the same INIT-vs-IDLE macro-state
        #: (the medium is slot-synchronous), but an unsaturated lane
        #: can be DORMANT — or freshly woken into INIT — while its
        #: neighbours count down, so the state is per *lane*.
        self.state = np.full((B, N), _INIT, dtype=np.int64)
        #: Transmission attempts for the current frame (mirrors
        #: ``Station.attempts_this_frame``; maintained only when some
        #: lane has a finite retry limit — it is unobservable
        #: otherwise).
        self.attempts = np.zeros((B, N), dtype=np.int64)
        #: Arrival-process state (mirrors ``_ArrivalProcess``; only
        #: unsaturated lanes ever change these).
        self.queue = np.zeros((B, N), dtype=np.int64)
        self.next_arrival_us = np.full((B, N), np.inf, dtype=np.float64)
        self.arrivals = np.zeros((B, N), dtype=np.int64)
        self.losses = np.zeros((B, N), dtype=np.int64)
        self.t = np.zeros(B, dtype=np.float64)
        self.rounds = 0

        self.successes = np.zeros(B, dtype=np.int64)
        self.collisions = np.zeros(B, dtype=np.int64)
        self.collision_events = np.zeros(B, dtype=np.int64)
        self.idle_slots = np.zeros(B, dtype=np.int64)
        self.st_successes = np.zeros((B, N), dtype=np.int64)
        self.st_collisions = np.zeros((B, N), dtype=np.int64)
        self.st_jumps = np.zeros((B, N), dtype=np.int64)
        self.st_drops = np.zeros((B, N), dtype=np.int64)

        # Unsaturated lanes start dormant (``Station.sleep``) with the
        # first interarrival drawn at construction, exactly like
        # ``_ArrivalProcess.__init__``.
        if self._has_unsat:
            for b, scenario in enumerate(self.scenarios):
                for i, cfg in enumerate(scenario.stations):
                    if cfg.saturated:
                        continue
                    rng = self.streams[b].stream("arrivals", i)
                    self._arrival_generators[b * N + i] = rng
                    self.state[b, i] = _DORMANT
                    self.next_arrival_us[b, i] = float(
                        rng.exponential(self.mean_interarrival_us[b, i])
                    )

        #: Per-round scratch published for ``on_round`` consumers:
        #: which lanes attempt, and each point's outcome code
        #: (0 idle / 1 success / 2 collision; -1 for finished points).
        self.attempting = np.zeros((B, N), dtype=bool)
        self.outcome = np.full(B, -1, dtype=np.int64)
        self.winner = np.full(B, -1, dtype=np.int64)
        #: Private feedback-phase scratch: lanes that finished their
        #: frame this round (winner, or drop at the retry limit).
        self._frame_done = np.zeros((B, N), dtype=bool)

    # -- lifecycle --------------------------------------------------------
    @property
    def active(self) -> np.ndarray:
        """Boolean (batch,) mask of points still inside their horizon."""
        return self.t <= self.sim_time_us

    @property
    def finished(self) -> bool:
        """Whether every point has consumed its configured sim time."""
        return not bool(self.active.any())

    def run(self) -> List[SimulationResult]:
        """Advance every point to completion and return the results."""
        self.advance(None)
        return self.results()

    def advance(self, max_rounds: Optional[int] = None) -> bool:
        """Run lockstep iterations until done (or ``max_rounds`` more).

        Returns ``True`` once every point has finished.  Pausing
        happens only between rounds, so interleaved ``advance`` calls
        execute the exact same iterations as an uninterrupted run.
        """
        remaining = max_rounds
        while True:
            active = self.t <= self.sim_time_us
            if not active.any():
                return True
            if remaining is not None:
                if remaining <= 0:
                    return False
                remaining -= 1
            self._round(active)

    def _round(self, active: np.ndarray) -> None:
        """One slot event for every active point (vectorized)."""
        bc, dc, bpc = self.bc, self.dc, self.bpc
        act_lane = active[:, None] & self.lane

        # -- arrivals + wake (top of the SlotSimulator loop) -------------
        if self._has_unsat:
            contending = act_lane & (self.state != _DORMANT)
            due = (
                self.unsat
                & act_lane
                & (self.next_arrival_us <= self.t[:, None])
            )
            if due.any():
                self._advance_arrival_rows(np.flatnonzero(due.ravel()))
                # A dormant station whose queue just became non-empty
                # wakes with a fresh frame (reset_for_new_frame) and
                # contends in this very slot.
                wake = (
                    act_lane
                    & (self.state == _DORMANT)
                    & (self.queue > 0)
                )
                if wake.any():
                    bpc[wake] = 0
                    bc[wake] = 0
                    dc[wake] = 0
                    self.attempts[wake] = 0
                    self.state[wake] = _INIT
                    contending |= wake
        else:
            contending = act_lane

        # -- contention phase (Station.step) -----------------------------
        is_init = self.state == _INIT
        init_lane = contending & is_init
        redraw = init_lane & ((bpc == 0) | (bc == 0) | (dc == 0))
        jump = redraw & (dc == 0) & (bpc > 0) & (bc != 0)
        np.add(self.st_jumps, 1, out=self.st_jumps, where=jump)
        # Busy-slot decrement for INIT lanes that neither redraw nor
        # jump; idle-slot decrement for IDLE lanes.
        decrement = init_lane & ~redraw
        np.subtract(dc, 1, out=dc, where=decrement)
        idle_lane = contending & ~is_init
        np.subtract(bc, 1, out=bc, where=decrement | idle_lane)

        rows = np.flatnonzero(redraw.ravel())
        if rows.size:
            # Reload CW/DC for stage min(BPC, m-1), then draw a fresh
            # BC from each lane's own substream — batched through
            # LaneRngs, bit-identical to per-lane integers() calls.
            bpc_flat = bpc.ravel()
            stage = np.minimum(bpc_flat[rows], self._last_stage_flat[rows])
            sched = rows * self._num_sched_stages + stage
            new_cw = self._cw_sched_flat[sched]
            self.cw.ravel()[rows] = new_cw
            dc.ravel()[rows] = self._dc_sched_flat[sched]
            bpc_flat[rows] += 1
            bc.ravel()[rows] = self.rngs.draw(rows, new_cw)

        # -- medium outcome ----------------------------------------------
        # Dormant lanes keep their (stale) counters, so the mask must
        # come from ``contending``, not from ``bc == 0`` alone.
        attempting = contending & (bc == 0)
        if self._track_attempts:
            np.add(self.attempts, 1, out=self.attempts, where=attempting)
        count = attempting.sum(axis=1)
        idle_pt = active & (count == 0)
        succ_pt = active & (count == 1)
        coll_pt = active & (count >= 2)

        self.attempting = attempting
        outcome = self.outcome
        outcome.fill(-1)
        outcome[idle_pt] = 0
        outcome[succ_pt] = 1
        outcome[coll_pt] = 2
        winner = self.winner
        winner.fill(-1)
        succ_rows = np.flatnonzero(succ_pt)
        if succ_rows.size:
            winner[succ_rows] = attempting[succ_rows].argmax(axis=1)

        if self.on_round is not None:
            # Same instant SlotSimulator records its trace rows: after
            # the contention phase, before the feedback phase.
            self.on_round(self)

        # -- clock + aggregate counters ----------------------------------
        np.add(self.idle_slots, 1, out=self.idle_slots, where=idle_pt)
        np.add(self.successes, 1, out=self.successes, where=succ_pt)
        np.add(
            self.collision_events,
            1,
            out=self.collision_events,
            where=coll_pt,
        )
        np.add(self.collisions, count, out=self.collisions, where=coll_pt)
        dt = np.where(
            idle_pt,
            self.slot_us,
            np.where(succ_pt, self.ts_us, self.tc_us),
        )
        np.add(self.t, dt, out=self.t, where=active)

        # -- feedback phase (Station.resolve) ----------------------------
        cols = None
        if succ_rows.size:
            cols = winner[succ_rows]
            self.st_successes[succ_rows, cols] += 1
            # Winner's resolve: BPC := 0, attempt count cleared.
            bpc[succ_rows, cols] = 0
            if self._plain:
                # Saturated fast path: reset_for_new_frame right away
                # (the next frame contends immediately from stage 0).
                bc[succ_rows, cols] = 0
                dc[succ_rows, cols] = 0
        collided = attempting & coll_pt[:, None]
        np.add(self.st_collisions, 1, out=self.st_collisions, where=collided)
        dropped = None
        if self._track_attempts:
            if cols is not None:
                self.attempts[succ_rows, cols] = 0
            # Collision at the retry limit: drop the frame (resolve's
            # COLLISION branch) — the frame-done handling below treats
            # it exactly like a delivered frame.
            dropped = collided & (self.attempts >= self.retry_limit)
            if dropped.any():
                np.add(self.st_drops, 1, out=self.st_drops, where=dropped)
                bpc[dropped] = 0
                self.attempts[dropped] = 0
            else:
                dropped = None
        # Busy outcome puts every contending station of the point in
        # INIT; an idle slot puts them in the BC-countdown state.
        # Dormant lanes stay dormant (resolve returns early for them).
        busy_lane = contending & (count > 0)[:, None]
        np.copyto(self.state, _INIT, where=busy_lane)
        np.copyto(self.state, _IDLE, where=contending & ~busy_lane)

        if not self._plain and (succ_rows.size or dropped is not None):
            self._finish_frames(succ_rows, cols, dropped)
        self.rounds += 1

    def _finish_frames(
        self,
        succ_rows: np.ndarray,
        cols: Optional[np.ndarray],
        dropped: Optional[np.ndarray],
    ) -> None:
        """Frame-done handling: the main loop's post-``resolve`` branch.

        Saturated lanes reset for the next frame immediately; an
        unsaturated lane consumes its queued frame, accounts arrivals
        up to the *advanced* clock, and either resets (queue still
        non-empty) or goes dormant with its counters preserved
        (``Station.sleep``).
        """
        frame_done = self._frame_done
        frame_done.fill(False)
        if cols is not None:
            frame_done[succ_rows, cols] = True
        if dropped is not None:
            frame_done |= dropped

        if self._has_unsat:
            fd_sat = frame_done & ~self.unsat
            fd_unsat = frame_done & self.unsat
        else:
            fd_sat = frame_done
            fd_unsat = None
        # reset_for_new_frame for saturated finishers (BPC and the
        # attempt count were already cleared by resolve).
        bc = self.bc
        dc = self.dc
        bc[fd_sat] = 0
        dc[fd_sat] = 0
        if fd_unsat is not None and fd_unsat.any():
            # Dequeue first, then account arrivals at the new clock —
            # the same order as the scalar loop, which matters for
            # queue-loss accounting at capacity.
            self.queue[fd_unsat] -= 1
            self._advance_arrival_rows(np.flatnonzero(fd_unsat.ravel()))
            refill = fd_unsat & (self.queue > 0)
            bc[refill] = 0
            dc[refill] = 0
            self.state[fd_unsat & (self.queue == 0)] = _DORMANT

    def _advance_arrival_rows(self, rows: np.ndarray) -> None:
        """Account all due arrivals for the given flat lane indices.

        Mirrors ``_ArrivalProcess.advance`` per lane: arrivals up to
        the owning point's clock enqueue (or count as losses at
        capacity), each followed by a fresh exponential interarrival
        from the lane's own substream — scalar draws, in the same
        order the scalar simulator would make them.
        """
        N = self.max_stations
        t = self.t
        queue = self.queue.ravel()
        cap = self.queue_cap.ravel()
        nxt = self.next_arrival_us.ravel()
        mean = self.mean_interarrival_us.ravel()
        arrivals = self.arrivals.ravel()
        losses = self.losses.ravel()
        for r in rows.tolist():
            now = t[r // N]
            next_us = nxt[r]
            if next_us > now:
                continue
            rng = self._arrival_generators[r]
            mean_us = mean[r]
            while next_us <= now:
                arrivals[r] += 1
                if queue[r] < cap[r]:
                    queue[r] += 1
                else:
                    losses[r] += 1
                next_us += float(rng.exponential(mean_us))
            nxt[r] = next_us

    # -- results ----------------------------------------------------------
    def results(self) -> List[SimulationResult]:
        """Per-point results, identical to ``SlotSimulator.run()``'s."""
        if not self.finished:
            raise RuntimeError("batch has not run to completion")
        out = []
        for b, scenario in enumerate(self.scenarios):
            n = scenario.num_stations
            stats = [
                StationStats(
                    index=i,
                    successes=int(self.st_successes[b, i]),
                    collisions=int(self.st_collisions[b, i]),
                    drops=int(self.st_drops[b, i]),
                    jumps=int(self.st_jumps[b, i]),
                    arrivals=int(self.arrivals[b, i]),
                    queue_losses=int(self.losses[b, i]),
                )
                for i in range(n)
            ]
            out.append(
                SimulationResult(
                    scenario=scenario,
                    duration_us=float(self.t[b]),
                    successes=int(self.successes[b]),
                    collisions=int(self.collisions[b]),
                    collision_events=int(self.collision_events[b]),
                    idle_slots=int(self.idle_slots[b]),
                    stations=stats,
                )
            )
        return out


def batch_simulate(
    scenarios: Sequence[ScenarioConfig],
    streams: Optional[Sequence[RandomStreams]] = None,
) -> List[SimulationResult]:
    """Run a batch of scenarios through the kernel in one call.

    >>> from repro.core.config import ScenarioConfig
    >>> points = [
    ...     ScenarioConfig.homogeneous(2, sim_time_us=1e5, seed=s)
    ...     for s in (1, 2)
    ... ]
    >>> [r.successes > 0 for r in batch_simulate(points)]
    [True, True]
    """
    return BatchSlotKernel(scenarios, streams=streams).run()
