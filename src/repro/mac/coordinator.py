"""The synchronized 1901 contention process in microsecond time.

IEEE 1901 contention is slot-synchronized network-wide: every busy
period is followed by the two priority-resolution slots (PRS0/PRS1),
then contention slots of 35.84 µs tick in lockstep until some station's
backoff counter expires.  :class:`ContentionCoordinator` runs that
structure as a process on the discrete-event engine:

1. wait until any node has pending traffic;
2. priority resolution: the highest pending class wins (busy-tone
   signalling, §2), lower classes defer with frozen counters;
3. contention slots: every contending node's backoff FSM steps exactly
   as in the slot-synchronous simulator, and, as there, a run of idle
   slots that no contender can end (:attr:`Station.quiet_slots`) is
   taken as one timeout.  The run stops before the next scheduled
   event, so no other process runs inside it, and within
   ``max_idle_slots_between_prs``; its end adds the slot duration once
   per slot, so every instant matches slot-by-slot stepping.  A probe
   sees every slot, so with one attached each slot is stepped;
4. on an attempt: put the winning burst (or the colliding bursts'
   first MPDUs) on the wire with real delimiter/payload/RIFS/SACK
   timing, feed the sniffers and the destination, generate SACKs —
   collisions get all-errored SACKs (§3.2) — and give every node the
   same outcome feedback the slot simulator would.

Because step 3 drives the *same* :class:`repro.core.station.Station`
FSM as the slot simulator, the two implementations agree on the
protocol by construction; the event MAC adds the PHY timeline, frame
bursting, management traffic and per-device firmware observability.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..core.parameters import PriorityClass
from ..core.station import SlotOutcome
from ..engine.environment import Environment
from ..engine.events import Event
from ..phy.channel import PowerStrip
from ..phy.framing import SackDelimiter
from ..phy.timing import PhyTiming
from .node import MacNode

__all__ = ["ContentionCoordinator", "RoundLog"]


@dataclasses.dataclass
class RoundLog:
    """Aggregate counters of the contention process (for tests/benches)."""

    rounds: int = 0
    idle_slots: int = 0
    successes: int = 0
    collisions: int = 0
    prs_phases: int = 0
    mpdus_on_wire: int = 0
    #: Busy airtime (µs) attributed to each transmitting TEI — the
    #: measurement behind the rate-diversity anomaly (a slow link's
    #: share of airtime exceeds its share of transmissions).
    airtime_by_source: Dict[int, float] = dataclasses.field(
        default_factory=dict
    )

    def add_airtime(self, tei: int, duration_us: float) -> None:
        self.airtime_by_source[tei] = (
            self.airtime_by_source.get(tei, 0.0) + duration_us
        )

    def airtime_share(self, tei: int) -> float:
        """Fraction of attributed busy airtime used by ``tei``."""
        total = sum(self.airtime_by_source.values())
        if total <= 0:
            return 0.0
        return self.airtime_by_source.get(tei, 0.0) / total

    def as_dict(self) -> Dict[str, object]:
        """Counters as a plain dict (mirrors ``RunnerCounters.as_dict``).

        >>> log = RoundLog(rounds=3, successes=2, collisions=1)
        >>> log.as_dict()["collisions"]
        1
        """
        return {
            "rounds": self.rounds,
            "idle_slots": self.idle_slots,
            "successes": self.successes,
            "collisions": self.collisions,
            "prs_phases": self.prs_phases,
            "mpdus_on_wire": self.mpdus_on_wire,
            "airtime_by_source": dict(self.airtime_by_source),
        }

    def reset(self) -> None:
        """Zero all counters (long-running coordinators, warmup cuts)."""
        self.rounds = 0
        self.idle_slots = 0
        self.successes = 0
        self.collisions = 0
        self.prs_phases = 0
        self.mpdus_on_wire = 0
        self.airtime_by_source.clear()


class ContentionCoordinator:
    """Drives all attached :class:`MacNode` instances over a strip."""

    def __init__(
        self,
        env: Environment,
        strip: PowerStrip,
        timing: Optional[PhyTiming] = None,
        max_idle_slots_between_prs: int = 1_000_000,
    ) -> None:
        self.env = env
        self.strip = strip
        self.timing = timing if timing is not None else PhyTiming.paper_calibrated()
        self.nodes: List[MacNode] = []
        self.log = RoundLog()
        #: Optional :class:`repro.obs.probe.MacProbe` (``None`` = off).
        self.probe = None
        #: Optional callable invoked at every round boundary — the one
        #: instant where no contention state is in flight, which makes
        #: it the safe point for checkpoint snapshots (``None`` = off).
        self.checkpoint_hook = None
        self._work_event: Optional[Event] = None
        self._process = env.process(self._run())
        self._max_idle_slots = max_idle_slots_between_prs

    # -- attachment ---------------------------------------------------------
    def add_node(self, node: MacNode) -> None:
        """Attach a node; its work signal wakes the contention loop."""
        node.work_signal = self._signal_work
        node.detached = False
        self.nodes.append(node)

    def remove_node(self, node: MacNode) -> None:
        """Detach a node mid-run (station churn).

        Marks the node ``detached`` *and* drops it from the roster: the
        contention loop captures its ``contenders`` list before
        yielding, so a node that leaves mid-round (crash-leave while
        holding the medium, or mid-backoff) is still referenced by the
        in-flight round — the ``detached`` flag makes every later
        ``step``/``resolve``/``notify_sack`` touch point skip it.
        """
        node.detached = True
        node.work_signal = lambda: None
        if node in self.nodes:
            self.nodes.remove(node)

    def _signal_work(self) -> None:
        if self._work_event is not None and not self._work_event.triggered:
            self._work_event.succeed()

    def restart(self) -> None:
        """Re-create the contention process (checkpoint restore).

        Snapshots are only taken at round boundaries — the top of the
        ``_run`` loop — so a restored coordinator restarts its process
        from scratch and immediately re-evaluates pending traffic, which
        is exactly what the live process would have done next.
        """
        self._work_event = None
        self._process = self.env.process(self._run())

    # -- main process -----------------------------------------------------------
    def _idle_run_end(self, contenders: List[MacNode], limit: int):
        """``(slots, end)``: how many idle slots to take in one timeout,
        and the instant it fires.

        No contender can attempt for ``quiet_slots`` slots.  The run
        also ends before the next scheduled event (so no other process
        runs inside it) and after ``limit`` slots; ``end`` adds the slot
        duration once per slot, as chained timeouts do.  A probe sees
        every slot, so with one attached the run is always 0.
        """
        if self.probe is not None:
            return 0, None
        quiet = min([node.quiet_slots for node in contenders])
        slots = 0
        end = self.env.now
        if quiet > 0:
            horizon = self.env.peek()
            slot_us = self.timing.slot_us
            limit = min(quiet, limit)
            while slots < limit and end + slot_us < horizon:
                end += slot_us
                slots += 1
        return slots, end

    def _run(self):
        nodes = self.nodes
        while True:
            # Sleep until at least one node has something to send.
            while not any(
                node.pending_priority() is not None for node in nodes
            ):
                self._work_event = self.env.event()
                yield self._work_event
                self._work_event = None

            # Priority resolution phase (PRS0 + PRS1 busy tones).
            yield self.env.timeout(self.timing.prs_us)
            self.log.prs_phases += 1
            priorities = [node.pending_priority() for node in nodes]
            pending = [p for p in priorities if p is not None]
            if not pending:
                continue  # queues drained while PRS elapsed (host reset)
            winning = max(pending)
            contenders = [
                node
                for node, priority in zip(nodes, priorities)
                if node.begin_round(winning, priority)
            ]
            if self.probe is not None:
                self.probe.emit(
                    {
                        "event": "prs",
                        "winning": int(winning),
                        "pending": len(pending),
                        "contenders": len(contenders),
                    }
                )
            if not contenders:
                continue

            # Contention slots until a transmission happens.
            transmitted = False
            idle_run = 0
            while not transmitted and idle_run < self._max_idle_slots:
                # Churn: drop nodes that left since the round started;
                # with nobody left the round simply dissolves (the next
                # loop iteration re-runs priority resolution).
                contenders = [
                    node for node in contenders if not node.detached
                ]
                if not contenders:
                    break
                # An idle run no contender can end is one timeout.
                slots, end = self._idle_run_end(
                    contenders, self._max_idle_slots - idle_run
                )
                if slots:
                    for node in contenders:
                        node.skip_idle(slots)
                    yield self.env.timeout_at(end)
                    self.log.idle_slots += slots
                    idle_run += slots
                    continue
                attempters = [node for node in contenders if node.step()]
                if not attempters:
                    yield self.env.timeout(self.timing.slot_us)
                    self.log.idle_slots += 1
                    if self.probe is not None:
                        # Emitted adjacent to the counter increment so a
                        # truncated run leaves trace and RoundLog equal.
                        self.probe.emit(
                            {"event": "slot", "outcome": "idle"}
                        )
                    idle_run += 1
                    for node in contenders:
                        if not node.detached:
                            node.resolve(SlotOutcome.IDLE)
                    continue
                if len(attempters) == 1:
                    yield from self._transmit_success(attempters[0], contenders)
                else:
                    yield from self._transmit_collision(attempters, contenders)
                transmitted = True
            self.log.rounds += 1
            if self.checkpoint_hook is not None:
                self.checkpoint_hook()

    # -- transmissions ------------------------------------------------------------
    def _transmit_success(self, winner: MacNode, contenders: List[MacNode]):
        """Air the winner's burst: MPDUs back-to-back, one SACK (burst
        mode), then CIFS."""
        burst = winner.take_burst()
        sofs = burst.sof_delimiters()
        error_flags_per_mpdu = []
        for mpdu, sof in zip(burst.mpdus, sofs):
            self.strip.observe_sof(sof, self.env.now, collided=False)
            airtime = self.timing.mpdu_airtime_us(mpdu)
            self.log.add_airtime(burst.source_tei, airtime)
            if self.probe is not None:
                # One event per add_airtime call, same value and order:
                # trace consumers accumulate the exact floats that end
                # up in ``RoundLog.airtime_by_source``, even when the
                # run cuts off mid-burst.
                self.probe.emit(
                    {
                        "event": "airtime",
                        "source_tei": burst.source_tei,
                        "airtime_us": airtime,
                    }
                )
            yield self.env.timeout(airtime)
            error_flags_per_mpdu.append(
                self.strip.deliver_mpdu(mpdu, self.env.now)
            )
            self.log.mpdus_on_wire += 1
        # Single selective acknowledgment covering the whole burst.
        yield self.env.timeout(self.timing.rifs_us + self.timing.sack_us)
        for mpdu, flags in zip(burst.mpdus, error_flags_per_mpdu):
            sack = SackDelimiter(
                mpdu_id=mpdu.mpdu_id,
                source_tei=mpdu.dest_tei,
                dest_tei=mpdu.source_tei,
                pb_errors=tuple(flags) if flags else (False,),
            )
            if not winner.detached:
                winner.notify_sack(sack, burst, "success")
        yield self.env.timeout(self.timing.cifs_us)
        self.log.successes += 1
        if self.probe is not None:
            self.probe.emit(
                {
                    "event": "slot",
                    "outcome": "success",
                    "sources": [burst.source_tei],
                    "mpdus": len(burst.mpdus),
                }
            )
        for node in contenders:
            if not node.detached:
                node.resolve(SlotOutcome.SUCCESS, won=(node is winner))

    def _transmit_collision(
        self, attempters: List[MacNode], contenders: List[MacNode]
    ):
        """Overlapping full bursts (stations are committed until the
        burst-end SACK slot); every MPDU collides."""
        bursts = [node.take_burst() for node in attempters]
        # Delimiters are robustly modulated: sniffers decode every SoF
        # of the colliding bursts (§3.2).  Emit them in wall-clock
        # order: the k-th MPDUs of all bursts overlap.
        schedule = []  # (time offset, sof)
        longest = 0.0
        for burst in bursts:
            offset = 0.0
            for mpdu, sof in zip(burst.mpdus, burst.sof_delimiters()):
                schedule.append((offset, sof))
                offset += self.timing.mpdu_airtime_us(mpdu)
            self.log.add_airtime(burst.source_tei, offset)
            if self.probe is not None:
                self.probe.emit(
                    {
                        "event": "airtime",
                        "source_tei": burst.source_tei,
                        "airtime_us": offset,
                    }
                )
            longest = max(longest, offset)
        schedule.sort(key=lambda item: item[0])
        for offset, sof in schedule:
            self.strip.observe_sof(sof, self.env.now + offset, collided=True)
        yield self.env.timeout(longest)
        for node, burst in zip(attempters, bursts):
            for mpdu in burst.mpdus:
                sack = SackDelimiter.collision(mpdu)
                if not node.detached:
                    node.notify_sack(sack, burst, "collision")
                self.log.mpdus_on_wire += 1
        yield self.env.timeout(self.timing.cifs_us)
        self.log.collisions += 1
        if self.probe is not None:
            self.probe.emit(
                {
                    "event": "slot",
                    "outcome": "collision",
                    "sources": [burst.source_tei for burst in bursts],
                    "mpdus": sum(len(burst.mpdus) for burst in bursts),
                }
            )
        for node in contenders:
            if not node.detached:
                node.resolve(SlotOutcome.COLLISION)
