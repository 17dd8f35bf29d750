"""The shared power-line medium ("the power strip").

§3's testbed attaches all stations to one power strip so that channel
conditions are ideal and every station hears every other (a single
contention domain, which is also the reference simulator's assumption).
:class:`PowerStrip` models exactly that: a broadcast bus connecting
transceivers, with

- delivery of MPDUs to their destination TEI,
- delivery of every SoF delimiter to *sniffer* listeners (the faifa
  capture surface — delimiters only, never payload),
- a pluggable per-PB error model (ideal by default, per the paper;
  a Bernoulli model is provided for the channel-error extension).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Protocol

import numpy as np

from .framing import Mpdu, SofDelimiter

__all__ = [
    "SofObservation",
    "ErrorModel",
    "IdealChannel",
    "BernoulliPbErrors",
    "PowerStrip",
]


@dataclasses.dataclass(frozen=True)
class SofObservation:
    """A SoF delimiter as seen on the wire at a given time."""

    time_us: float
    sof: SofDelimiter
    #: Whether the MPDU payload that followed was part of a collision.
    collided: bool


class ErrorModel(Protocol):
    """Per-PB channel error hook.

    :meth:`PowerStrip.deliver_mpdu` passes the wire time, so bursty or
    scheduled impairments (Gilbert–Elliott states, impulsive-noise
    windows — :mod:`repro.chaos.impairments`) evolve with the
    simulation clock; time-invariant models ignore it.
    """

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        """Error flag per physical block of ``mpdu`` at ``time_us``."""


class IdealChannel:
    """No channel errors (the paper's operating assumption)."""

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        return [False] * max(mpdu.num_blocks, 1)


class BernoulliPbErrors:
    """Independent per-PB errors with fixed probability (extension)."""

    def __init__(self, pb_error_probability: float, rng: np.random.Generator) -> None:
        if not 0.0 <= pb_error_probability <= 1.0:
            raise ValueError("pb_error_probability must be in [0, 1]")
        self.pb_error_probability = pb_error_probability
        self.rng = rng

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        n = max(mpdu.num_blocks, 1)
        return list(self.rng.random(n) < self.pb_error_probability)


class PowerStrip:
    """Broadcast medium connecting all attached transceivers.

    Transceivers register a TEI-keyed MPDU handler; sniffers register a
    callback receiving every :class:`SofObservation`.  The contention
    coordinator (:mod:`repro.mac.coordinator`) drives transmissions and
    calls :meth:`deliver_mpdu` / :meth:`observe_sof`.
    """

    def __init__(self, error_model: Optional[ErrorModel] = None) -> None:
        self.error_model: ErrorModel = (
            error_model if error_model is not None else IdealChannel()
        )
        self._receivers: List[Callable[[Mpdu, float], None]] = []
        self._sniffers: List[Callable[[SofObservation], None]] = []
        #: Wire-level counters (useful for tests and sanity checks).
        self.sof_count = 0
        self.delivered_mpdus = 0
        #: Optional :class:`repro.obs.probe.MacProbe` (``None`` = off).
        self.probe = None

    # -- attachment --------------------------------------------------------
    def attach(self, handler: Callable[[Mpdu, float], None]) -> None:
        """Register a transceiver's MPDU receive callback.

        The medium is a true broadcast bus: every receiver sees every
        delivered MPDU and filters on its own TEI (devices may not even
        have a TEI yet while associating).
        """
        if handler in self._receivers:
            raise ValueError("handler already attached")
        self._receivers.append(handler)

    def detach(self, handler: Callable[[Mpdu, float], None]) -> None:
        if handler in self._receivers:
            self._receivers.remove(handler)

    def add_sniffer(self, callback: Callable[[SofObservation], None]) -> None:
        """Register a sniffer-mode listener (gets every SoF delimiter)."""
        self._sniffers.append(callback)

    def remove_sniffer(self, callback: Callable[[SofObservation], None]) -> None:
        if callback in self._sniffers:
            self._sniffers.remove(callback)

    @property
    def num_receivers(self) -> int:
        return len(self._receivers)

    # -- wire events ---------------------------------------------------------
    def observe_sof(
        self, sof: SofDelimiter, time_us: float, collided: bool
    ) -> None:
        """Broadcast a SoF delimiter to every sniffer.

        Delimiters use robust modulation, so they are observable even
        during collisions (§3.2) — sniffers therefore see collided
        bursts too.
        """
        self.sof_count += 1
        observation = SofObservation(time_us=time_us, sof=sof, collided=collided)
        if self.probe is not None:
            # Mirrors the SnifferIndication field set (§3.3 observables).
            self.probe.emit(
                {
                    "event": "sof",
                    "timestamp_us": time_us,
                    "source_tei": sof.source_tei,
                    "dest_tei": sof.dest_tei,
                    "link_id": sof.link_id,
                    "mpdu_count": sof.mpdu_count,
                    "frame_length_bytes": sof.frame_length_bytes,
                    "num_blocks": sof.num_blocks,
                    "collided": collided,
                }
            )
        for sniffer in self._sniffers:
            sniffer(observation)

    def deliver_mpdu(self, mpdu: Mpdu, time_us: float) -> List[bool]:
        """Put a (non-collided) MPDU on the bus.

        Returns the per-PB error flags from the channel error model;
        the caller builds the SACK from them.  Only error-free MPDUs
        are handed to receivers: errored PBs make the receiver discard
        the MPDU and the selective acknowledgment triggers a MAC-level
        retransmission of the whole MPDU (per-PB retransmission is one
        of the vendor unknowns §4.1 lists; whole-MPDU ARQ preserves the
        airtime/goodput behaviour without guessing its details).

        Raises ``RuntimeError`` if no receiver is attached: an MPDU on
        a bus nobody listens to is always a wiring bug (a detached
        device left in the coordinator, a testbed built without its
        destination), and silently returning flags would let such runs
        produce zeros instead of failing.
        """
        if not self._receivers:
            raise RuntimeError(
                "deliver_mpdu on a PowerStrip with no attached receivers "
                f"(source_tei={mpdu.source_tei}, dest_tei={mpdu.dest_tei}); "
                "attach at least one transceiver before transmitting"
            )
        flags = self.error_model.pb_error_flags(mpdu, time_us)
        if not any(flags):
            self.delivered_mpdus += 1
            for handler in list(self._receivers):
                handler(mpdu, time_us)
        return flags
