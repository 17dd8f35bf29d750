"""The IEEE 1901 CSMA/CA station finite-state machine.

This is a semantically exact port of the per-station logic of the
reference MATLAB simulator published in §4.2 of the paper, factored out
so that both the slot-synchronous simulator (:mod:`repro.core.simulator`)
and the µs-resolution event-driven MAC (:mod:`repro.mac`) drive the
*same* protocol rules.

The FSM subtleties preserved from the reference listing:

- Three counters: backoff counter ``BC``, deferral counter ``DC`` and
  backoff procedure counter ``BPC``.
- ``BPC`` counts redraws since the last successful transmission; the
  backoff stage used at a redraw is ``min(BPC, num_stages - 1)``.
- On a *busy* slot event, ``BC`` and ``DC`` are both decremented —
  unless ``DC`` is already 0, in which case the station jumps to the
  next backoff stage (redraws ``BC``, reloads ``DC``) without
  attempting a transmission.  The ``DC == 0`` check happens *before*
  decrementing, so the jump fires on the (d_i + 1)-th busy event of a
  stage.
- ``BC`` is decremented on idle slots, so a station attempts exactly
  when its drawn ``BC`` has been consumed — provided no jump happened
  first.  A drawn ``BC`` of 0 means an immediate attempt.
- After *any* transmission on the medium (success or collision), every
  station re-enters the INIT state; the successful transmitter resets
  ``BPC`` to 0 first.

One consequence both slot engines use: a station in the IDLE state
only decrements ``BC`` until it reaches 0, so it cannot attempt for
``BC - 1`` more slot events (:attr:`Station.quiet_slots`).  When no
station can attempt, the engines take that run of idle slot events in
one step (:meth:`Station.skip_idle`).

Extensions beyond the reference listing (all off by default):

- a finite retry limit (the paper assumes infinite retries);
- a *dormant* state for unsaturated stations with empty queues.
"""

from __future__ import annotations

import enum

import numpy as np

from .config import CsmaConfig

__all__ = ["StationState", "SlotOutcome", "Station"]


class StationState(enum.IntEnum):
    """FSM states, numbered as in the reference listing."""

    #: Just observed a transmission (or fresh frame): apply DC/jump rules.
    INIT = 0
    #: Attempting a transmission in the current slot event.
    TX = 1
    #: Counting down BC over idle slots.
    IDLE = 2
    #: No frame queued (unsaturated extension only).
    DORMANT = 3


class SlotOutcome(enum.IntEnum):
    """What the medium did during a slot event."""

    IDLE = 0
    SUCCESS = 1
    COLLISION = 2


# The per-slot methods read enum members through these module names:
# a read through the class (``StationState.IDLE``) is an attribute
# lookup on the enum type, about 150 ns on CPython 3.11, made several
# times per station per slot event.
_INIT = StationState.INIT
_TX = StationState.TX
_IDLE = StationState.IDLE
_DORMANT = StationState.DORMANT
_IDLE_SLOT = SlotOutcome.IDLE
_SUCCESS_SLOT = SlotOutcome.SUCCESS


class Station:
    """One CSMA/CA station (1901 rules; 802.11 via a non-expiring DC).

    Parameters
    ----------
    config:
        Backoff parameters (cw/dc schedules, protocol, retry limit).
    rng:
        Random generator for backoff draws (a dedicated substream).
    index:
        Station index, used in traces.

    The drive cycle, mirroring the reference simulator's main loop::

        attempt = station.step()          # contention phase of the slot
        ...the caller counts attempts across stations...
        station.resolve(outcome, won)     # medium outcome feedback
    """

    def __init__(
        self, config: CsmaConfig, rng: np.random.Generator, index: int = 0
    ) -> None:
        self.config = config
        self.rng = rng
        self.index = index

        self.state = StationState.INIT
        self.bpc = 0
        self.bc = 0
        self.dc = 0
        self.cw = config.cw[0]
        #: Transmission attempts made for the current frame.
        self.attempts_this_frame = 0
        #: Statistics counters.
        self.successes = 0
        self.collisions = 0
        self.drops = 0
        self.jumps = 0
        self._attempting = False
        #: Optional :class:`repro.obs.probe.MacProbe`; ``None`` keeps
        #: the hot path to a single attribute check per site.
        self.probe = None
        #: Identity stamped on emitted events (set by the owning node).
        self.probe_id = index

    def __repr__(self) -> str:
        return (
            f"<Station {self.index} state={self.state.name} bpc={self.bpc} "
            f"cw={self.cw} bc={self.bc} dc={self.dc}>"
        )

    # -- helpers ---------------------------------------------------------
    @property
    def stage(self) -> int:
        """Current backoff stage (clamped BPC of the last redraw)."""
        return min(max(self.bpc - 1, 0), self.config.num_stages - 1)

    @property
    def attempting(self) -> bool:
        """Whether the station transmits in the current slot event."""
        return self._attempting

    def _redraw(self) -> None:
        """Draw a fresh BC and reload CW/DC for stage ``min(BPC, m-1)``.

        Mirrors the reference listing's INIT branch: the redraw uses the
        *current* BPC as stage selector and then increments BPC.
        """
        stage = min(self.bpc, self.config.num_stages - 1)
        bpc_before = self.bpc
        self.cw = self.config.cw[stage]
        self.dc = self.config.dc[stage]
        self.bc = int(self.rng.integers(0, self.cw))
        self.bpc += 1
        if self.probe is not None:
            self.probe.emit(
                {
                    "event": "backoff_stage",
                    "station": self.probe_id,
                    "stage": stage,
                    "bpc": bpc_before,
                    "cw": self.cw,
                    "bc": self.bc,
                    "dc": self.dc,
                }
            )

    def check_invariants(self) -> list:
        """FSM sanity sweep: the violated-invariant descriptions.

        Empty list means the state is consistent.  The checks must hold
        at *every* point of the drive cycle, which rules out the
        tempting per-stage forms: ``reset_for_new_frame`` zeroes
        BPC/BC/DC but leaves ``cw`` at its last-stage value, and a
        successful ``resolve`` zeroes BPC while DC keeps its old-stage
        value — so DC is bounded by the schedule's maximum, not by the
        current stage's entry, and CW by membership in the schedule.
        """
        config = self.config
        violations = []
        if not 0 <= self.bc < max(self.cw, 1):
            violations.append(
                f"station {self.probe_id}: BC={self.bc} outside [0, "
                f"CW={self.cw})"
            )
        if self.cw not in config.cw:
            violations.append(
                f"station {self.probe_id}: CW={self.cw} not in the "
                f"schedule {list(config.cw)}"
            )
        if not 0 <= self.dc <= max(config.dc):
            violations.append(
                f"station {self.probe_id}: DC={self.dc} outside [0, "
                f"{max(config.dc)}]"
            )
        if self.bpc < 0:
            violations.append(
                f"station {self.probe_id}: BPC={self.bpc} negative"
            )
        if not 0 <= self.stage < config.num_stages:
            violations.append(
                f"station {self.probe_id}: stage={self.stage} outside "
                f"[0, {config.num_stages})"
            )
        if self._attempting and self.bc != 0:
            violations.append(
                f"station {self.probe_id}: attempting with BC={self.bc} != 0"
            )
        return violations

    # -- lifecycle --------------------------------------------------------
    def reset_for_new_frame(self) -> None:
        """Start contention for a fresh frame at backoff stage 0."""
        self.bpc = 0
        self.bc = 0
        self.dc = 0
        self.attempts_this_frame = 0
        self.state = _INIT
        self._attempting = False

    def sleep(self) -> None:
        """Enter the dormant state (no frame queued)."""
        self.state = _DORMANT
        self._attempting = False

    @property
    def dormant(self) -> bool:
        """Whether the station currently has nothing to send."""
        return self.state == _DORMANT

    # -- runs of idle slot events ----------------------------------------
    @property
    def quiet_slots(self) -> int:
        """Slot events this station is certain to spend without
        attempting: ``BC - 1`` in the IDLE state, else 0."""
        return self.bc - 1 if self.state == _IDLE else 0

    def skip_idle(self, k: int) -> None:
        """Consume ``k`` idle slot events at once.

        Equivalent to ``k`` rounds of ``step()`` and
        ``resolve(SlotOutcome.IDLE)`` for ``k <= quiet_slots``: in the
        IDLE state those only decrement ``BC``, and emit nothing.
        """
        if not 0 <= k <= self.quiet_slots:
            raise ValueError(
                f"station {self.probe_id}: cannot skip {k} idle slot "
                f"events, only {self.quiet_slots} are certain"
            )
        self.bc -= k

    # -- the per-slot drive cycle ----------------------------------------
    def step(self) -> bool:
        """Contention phase of one slot event.

        Returns ``True`` if the station attempts a transmission in this
        slot event.  Must be followed by :meth:`resolve` with the
        medium outcome.
        """
        if self.state == _DORMANT:
            self._attempting = False
            return False

        if self.state == _INIT:
            if self.bpc == 0 or self.bc == 0 or self.dc == 0:
                if self.dc == 0 and self.bpc > 0 and self.bc != 0:
                    # Deferral-counter expiry: stage jump without attempt.
                    self.jumps += 1
                    if self.probe is not None:
                        self.probe.emit(
                            {
                                "event": "dc_jump",
                                "station": self.probe_id,
                                "bpc": self.bpc,
                                "bc": self.bc,
                            }
                        )
                self._redraw()
            else:
                self.bc -= 1
                self.dc -= 1
                if self.probe is not None:
                    self.probe.emit(
                        {
                            "event": "defer",
                            "station": self.probe_id,
                            "bc": self.bc,
                            "dc": self.dc,
                        }
                    )
        else:  # IDLE: medium was idle in the previous slot.
            self.bc -= 1

        self._attempting = self.bc == 0
        if self._attempting:
            self.attempts_this_frame += 1
        return self._attempting

    def resolve(self, outcome: SlotOutcome, won: bool = False) -> bool:
        """Medium-outcome phase of the slot event.

        Parameters
        ----------
        outcome:
            What happened on the medium during this slot event.
        won:
            ``True`` if this station was the (single) successful
            transmitter.

        Returns
        -------
        bool
            ``True`` if the station finished with its current frame
            (successful transmission, or drop at the retry limit) and
            the caller should supply the next frame (or put the station
            to sleep).
        """
        if self.state == _DORMANT:
            return False

        frame_done = False
        if outcome == _IDLE_SLOT:
            # Nobody transmitted; stations keep counting down.
            self.state = (
                _TX if self._attempting else _IDLE
            )
            # (An attempting station with an idle outcome is impossible
            # in the synchronous simulator; kept for the event MAC where
            # an attempt can be pre-empted by priority resolution.)
        elif outcome == _SUCCESS_SLOT:
            if won:
                self.successes += 1
                self.bpc = 0
                self.attempts_this_frame = 0
                frame_done = True
            self.state = _INIT
        else:  # COLLISION
            if self._attempting:
                self.collisions += 1
                limit = self.config.retry_limit
                if limit is not None and self.attempts_this_frame >= limit:
                    self.drops += 1
                    self.bpc = 0
                    self.attempts_this_frame = 0
                    frame_done = True
            self.state = _INIT
        self._attempting = False
        return frame_done
