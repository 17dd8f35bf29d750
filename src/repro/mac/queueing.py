"""Per-priority transmit queues and MPDU/burst assembly.

IEEE 1901 aggregates Ethernet frames into MPDUs (§3.1): frames are
segmented into 512-byte PBs and packed into the MPDU up to a size
budget; up to ``mpdus_per_burst`` head-of-line MPDUs form the burst
that contends for the medium.  The paper's devices carry one MTU-sized
Ethernet frame per MPDU and use bursts of 2 in the isolated testbed;
those are the defaults.

The aggregation *timeout* the paper mentions as vendor-unknown (§4.1)
is modelled by ``aggregation_frames``: a burst simply takes whatever
complete frames are queued, up to the budget — saturated sources always
fill it, matching the testbed's steady state.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.parameters import DEFAULT_MPDUS_PER_BURST, PriorityClass
from ..phy.framing import Burst, Mpdu, segment_into_pbs
from ..traffic.packets import EthernetFrame

__all__ = ["AggregationPolicy", "PriorityQueues", "QueuedMme"]

#: Priority classes, highest first: the order the MAC serves them in.
_SERVICE_ORDER = tuple(sorted(PriorityClass, reverse=True))


@dataclasses.dataclass(frozen=True)
class AggregationPolicy:
    """How Ethernet frames are packed into MPDUs and bursts.

    Defaults match the §3.1 measurements: one MTU-sized Ethernet frame
    per MPDU, two MPDUs per burst.
    """

    frames_per_mpdu: int = 1
    mpdus_per_burst: int = DEFAULT_MPDUS_PER_BURST

    def __post_init__(self) -> None:
        if self.frames_per_mpdu < 1:
            raise ValueError("frames_per_mpdu must be >= 1")
        if not 1 <= self.mpdus_per_burst <= 4:
            raise ValueError("mpdus_per_burst must be in 1..4")


@dataclasses.dataclass(frozen=True)
class QueuedMme:
    """A management message awaiting transmission over the wire."""

    payload: bytes
    dest_tei: int
    priority: PriorityClass


class PriorityQueues:
    """Transmit queues, one per priority class, with drop-tail limits.

    Data frames queue at their traffic priority (CA1 by default for
    UDP, §3.3); management messages queue at CA2/CA3.  The MAC serves
    the highest non-empty priority (after priority resolution).
    """

    def __init__(
        self,
        policy: Optional[AggregationPolicy] = None,
        capacity_frames: int = 1024,
    ) -> None:
        self.policy = policy if policy is not None else AggregationPolicy()
        self.capacity_frames = capacity_frames
        self._data: Dict[PriorityClass, Deque[EthernetFrame]] = {
            priority: deque() for priority in PriorityClass
        }
        self._management: Dict[PriorityClass, Deque[QueuedMme]] = {
            priority: deque() for priority in PriorityClass
        }
        self.drops = 0

    # -- enqueue -------------------------------------------------------------
    def enqueue_data(
        self, frame: EthernetFrame, priority: PriorityClass
    ) -> bool:
        """Queue an Ethernet frame; returns False on drop-tail."""
        queue = self._data[priority]
        if len(queue) >= self.capacity_frames:
            self.drops += 1
            return False
        queue.append(frame)
        return True

    def enqueue_mme(self, mme: QueuedMme) -> bool:
        """Queue a management message (MMEs are never dropped here)."""
        self._management[mme.priority].append(mme)
        return True

    # -- inspection ------------------------------------------------------------
    def pending_priority(self) -> Optional[PriorityClass]:
        """Highest priority class with anything to send."""
        for priority in _SERVICE_ORDER:
            if self._data[priority] or self._management[priority]:
                return priority
        return None

    def depth(self, priority: PriorityClass) -> int:
        return len(self._data[priority]) + len(self._management[priority])

    def total_depth(self) -> int:
        return sum(self.depth(priority) for priority in PriorityClass)

    # -- burst assembly -----------------------------------------------------------
    def build_burst(
        self, priority: PriorityClass, source_tei: int, dest_tei_of: callable
    ) -> Optional[Burst]:
        """Assemble the head-of-line burst for ``priority``.

        Management messages ride alone (one MME per management MPDU, a
        single-MPDU burst — matching the short bursts §3.3 observes for
        MMEs).  Data MPDUs aggregate ``frames_per_mpdu`` Ethernet
        frames each and pair into ``mpdus_per_burst`` bursts.

        ``dest_tei_of`` maps a destination MAC address to its TEI.
        Frames are *consumed* from the queues.
        """
        management = self._management[priority]
        if management:
            mme = management.popleft()
            mpdu = Mpdu(
                source_tei=source_tei,
                dest_tei=mme.dest_tei,
                priority=priority,
                blocks=(),
                is_management=True,
                payload=mme.payload,
            )
            return Burst(mpdus=(mpdu,))

        queue = self._data[priority]
        if not queue:
            return None
        # Bursts target a single link: take the head frame's destination
        # and only aggregate frames going there.
        burst_dst = queue[0].dst_mac
        mpdus: List[Mpdu] = []
        for _ in range(self.policy.mpdus_per_burst):
            if not queue or queue[0].dst_mac != burst_dst:
                break
            frames: List[EthernetFrame] = []
            while (
                queue
                and len(frames) < self.policy.frames_per_mpdu
                and queue[0].dst_mac == burst_dst
            ):
                frames.append(queue.popleft())
            blocks: Tuple = tuple(
                pb
                for frame in frames
                for pb in segment_into_pbs(frame.frame_id, frame.length_bytes)
            )
            mpdus.append(
                Mpdu(
                    source_tei=source_tei,
                    dest_tei=dest_tei_of(burst_dst),
                    priority=priority,
                    blocks=blocks,
                )
            )
        return Burst(mpdus=tuple(mpdus)) if mpdus else None
