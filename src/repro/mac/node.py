"""Per-device MAC entity: queues + the 1901 backoff FSM.

A :class:`MacNode` owns the transmit queues of one device and one
backoff :class:`~repro.core.station.Station` per priority class (the
standard's CW/DC schedules differ between the CA0/CA1 and CA2/CA3
groups, Table 1).  The contention coordinator drives nodes through the
synchronized slot structure; the node reports whether it attempts,
hands over its head-of-line burst, and receives SACK feedback which it
forwards to the device firmware's statistics engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..core.config import CsmaConfig
from ..core.parameters import PriorityClass
from ..core.station import SlotOutcome, Station
from ..engine.randomness import RandomStreams
from ..phy.framing import Burst, SackDelimiter
from ..traffic.packets import EthernetFrame
from .queueing import AggregationPolicy, PriorityQueues, QueuedMme

__all__ = ["MacNode"]

#: TEI used by stations before association.
UNASSOCIATED_TEI = 0x00
#: Broadcast TEI.
BROADCAST_TEI = 0xFF


class MacNode:
    """The MAC layer of one PLC device.

    Parameters
    ----------
    name:
        Diagnostic name (usually the device's MAC address).
    streams:
        Random substream tree (backoff draws come from
        ``streams.stream("backoff", name, priority)``).
    configs:
        Optional per-priority CsmaConfig override; defaults to the
        standard Table 1 schedule of each class.
    aggregation:
        Frame-aggregation/bursting policy.
    """

    def __init__(
        self,
        name: str,
        streams: RandomStreams,
        configs: Optional[Dict[PriorityClass, CsmaConfig]] = None,
        aggregation: Optional[AggregationPolicy] = None,
    ) -> None:
        self.name = name
        self.tei: int = UNASSOCIATED_TEI
        self.queues = PriorityQueues(policy=aggregation)
        self._stations: Dict[PriorityClass, Station] = {}
        self._configs = configs or {}
        self._streams = streams
        #: Resolver from destination MAC to TEI, installed by the AVLN.
        self.dest_tei_of: Callable[[str], int] = lambda mac: BROADCAST_TEI
        #: Callback fired when the node has new work (wakes coordinator).
        self.work_signal: Callable[[], None] = lambda: None
        #: Callback receiving every SACK for this node's transmissions.
        self.sack_handler: Callable[[SackDelimiter, Burst, str], None] = (
            lambda sack, burst, outcome: None
        )
        #: Bursts currently under contention, per priority (a node can
        #: hold a frozen CA1 burst while a CA3 MME takes precedence).
        self._current_bursts: Dict[PriorityClass, Burst] = {}
        self._contending_priority: Optional[PriorityClass] = None
        #: MPDUs whose SACK reported PB errors, awaiting MAC-level
        #: retransmission (channel-error extension; empty on the
        #: paper's ideal channel).
        self._retransmit: Dict[PriorityClass, list] = {}
        #: Counters.
        self.tx_bursts = 0
        self.tx_collisions = 0
        self.phy_retransmissions = 0
        #: Optional :class:`repro.obs.probe.MacProbe` (``None`` = off).
        self.probe = None
        #: Set by :meth:`repro.mac.coordinator.ContentionCoordinator
        #: .remove_node` (station churn): a detached node is skipped by
        #: the coordinator even if a contention round captured it
        #: before it left — the crash-leave-mid-round case.
        self.detached = False

    # -- station management ------------------------------------------------
    def stations(self) -> Dict[PriorityClass, Station]:
        """The per-priority backoff FSMs created so far (read-only view).

        The chaos invariant checker sweeps these; stations are created
        lazily by :meth:`station_for`, so the view only contains the
        priorities this node has actually contended at.
        """
        return dict(self._stations)

    def station_for(self, priority: PriorityClass) -> Station:
        """The backoff FSM used when contending at ``priority``."""
        if priority not in self._stations:
            config = self._configs.get(priority)
            if config is None:
                config = CsmaConfig.for_priority(priority)
            rng: np.random.Generator = self._streams.stream(
                "backoff", self.name, int(priority)
            )
            station = Station(config, rng)
            station.probe = self.probe
            station.probe_id = self.name
            self._stations[priority] = station
        return self._stations[priority]

    def set_probe(self, probe) -> None:
        """Attach (or with ``None`` detach) an observability probe.

        Propagates to the per-priority backoff stations, existing and
        lazily created later, stamping this node's name as their
        ``probe_id``.
        """
        self.probe = probe
        for station in self._stations.values():
            station.probe = probe
            station.probe_id = self.name

    # -- ingress -------------------------------------------------------------
    def submit_data(
        self, frame: EthernetFrame, priority: PriorityClass = PriorityClass.CA1
    ) -> bool:
        """Host Ethernet ingress; returns False if the queue dropped it."""
        accepted = self.queues.enqueue_data(frame, priority)
        if accepted:
            if self.probe is not None:
                self.probe.emit(
                    {
                        "event": "queue",
                        "station": self.name,
                        "priority": int(priority),
                        "depth": self.queues.depth(priority),
                    }
                )
            self.work_signal()
        return accepted

    def submit_mme(self, mme: QueuedMme) -> bool:
        """Queue a management message for over-the-wire transmission."""
        accepted = self.queues.enqueue_mme(mme)
        if accepted:
            if self.probe is not None:
                self.probe.emit(
                    {
                        "event": "queue",
                        "station": self.name,
                        "priority": int(mme.priority),
                        "depth": self.queues.depth(mme.priority),
                    }
                )
            self.work_signal()
        return accepted

    # -- contention interface (driven by the coordinator) --------------------
    def pending_priority(self) -> Optional[PriorityClass]:
        """Priority this node would signal in the resolution phase.

        An in-flight burst (e.g. awaiting retransmission after a
        collision) keeps contending even if the queue behind it is
        empty.
        """
        best = self.queues.pending_priority()
        for priority in self._current_bursts:
            if best is None or priority > best:
                best = priority
        for priority, mpdus in self._retransmit.items():
            if mpdus and (best is None or priority > best):
                best = priority
        return best

    def begin_round(
        self,
        winning_priority: PriorityClass,
        pending: Optional[PriorityClass],
    ) -> bool:
        """Called after priority resolution, with this node's
        :meth:`pending_priority` at the end of it.

        Returns ``True`` if this node contends in the round (its
        pending priority equals the winning one).  On a newly started
        frame the backoff FSM is reset to stage 0, as on frame arrival.
        """
        if pending != winning_priority:
            self._contending_priority = None
            return False
        if pending not in self._current_bursts:
            burst = self._build_retransmission(pending)
            if burst is None:
                burst = self.queues.build_burst(
                    pending, self.tei, self.dest_tei_of
                )
            if burst is None:
                self._contending_priority = None
                return False
            self._current_bursts[pending] = burst
            self.station_for(pending).reset_for_new_frame()
        self._contending_priority = pending
        return True

    @property
    def contending(self) -> bool:
        return self._contending_priority is not None

    def step(self) -> bool:
        """One backoff slot event; True if the node attempts now."""
        if self._contending_priority is None:
            return False
        return self.station_for(self._contending_priority).step()

    @property
    def quiet_slots(self) -> int:
        """Slot events this node is certain not to attempt in
        (:attr:`Station.quiet_slots` of the contending FSM; 0 when not
        contending)."""
        if self._contending_priority is None:
            return 0
        return self._stations[self._contending_priority].quiet_slots

    def skip_idle(self, k: int) -> None:
        """Consume ``k`` idle slot events at once
        (:meth:`Station.skip_idle`)."""
        self._stations[self._contending_priority].skip_idle(k)

    def take_burst(self) -> Burst:
        """The burst to put on the wire (node just won the slot)."""
        if self._contending_priority is None:
            raise RuntimeError(f"{self.name}: not contending")
        return self._current_bursts[self._contending_priority]

    def resolve(self, outcome: SlotOutcome, won: bool = False) -> None:
        """Medium feedback for the slot event (mirrors the slot sim)."""
        if self._contending_priority is None:
            return
        station = self.station_for(self._contending_priority)
        frame_done = station.resolve(outcome, won=won)
        if won:
            self.tx_bursts += 1
        elif outcome == SlotOutcome.COLLISION and station.collisions:
            pass  # per-attempt stats live in the Station counters
        if frame_done:
            del self._current_bursts[self._contending_priority]
            self._contending_priority = None

    def _build_retransmission(self, priority: PriorityClass):
        """Head-of-line burst from MPDUs awaiting retransmission."""
        waiting = self._retransmit.get(priority)
        if not waiting:
            return None
        take = self.queues.policy.mpdus_per_burst
        mpdus, self._retransmit[priority] = waiting[:take], waiting[take:]
        return Burst(mpdus=tuple(mpdus))

    def notify_sack(
        self, sack: SackDelimiter, burst: Burst, outcome: str
    ) -> None:
        """Forward a received SACK to the firmware statistics hook.

        A successful exchange whose SACK reports PB errors queues the
        MPDU for MAC-level retransmission (whole-MPDU ARQ; see
        :meth:`repro.phy.channel.PowerStrip.deliver_mpdu`).
        """
        if self.probe is not None:
            self.probe.emit(
                {
                    "event": "sack",
                    "station": self.name,
                    "outcome": outcome,
                    "mpdu_id": sack.mpdu_id,
                    "ok": sack.ok,
                }
            )
        if outcome == "collision":
            self.tx_collisions += 1
        elif not sack.ok:
            mpdu = next(
                (m for m in burst.mpdus if m.mpdu_id == sack.mpdu_id), None
            )
            if mpdu is not None:
                self._retransmit.setdefault(mpdu.priority, []).append(mpdu)
                self.phy_retransmissions += 1
                self.work_signal()
        self.sack_handler(sack, burst, outcome)
