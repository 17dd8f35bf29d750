"""The discrete-event simulation environment (scheduler and clock)."""

from __future__ import annotations

from heapq import heappop, heappush
from math import inf
from typing import Any, Generator, List, Optional, Tuple

from .errors import EmptySchedule, StopSimulation
from .events import Event, NORMAL, Timeout, URGENT
from .process import Process

__all__ = ["Environment"]


class Environment:
    """Execution environment for an event-driven simulation.

    Time advances by stepping from one scheduled event to the next.
    Events scheduled for the same time are processed in priority order
    (urgent first), then FIFO order of scheduling.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock.  The MAC emulation uses
        microseconds; the engine itself is unit-agnostic.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = initial_time
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Optional engine monitor (e.g. ``repro.obs.profiler``); the
        #: ``is not None`` guard in :meth:`step` is the disabled fast path.
        self._monitor: Optional[Any] = None

    def __repr__(self) -> str:
        return f"<Environment(now={self._now}, queued={len(self._queue)})>"

    # -- clock ---------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- monitoring ------------------------------------------------------
    @property
    def monitor(self) -> Optional[Any]:
        """The attached engine monitor, if any."""
        return self._monitor

    def set_monitor(self, monitor: Optional[Any]) -> None:
        """Attach (or with ``None`` detach) an engine monitor.

        A monitor observes every processed event via
        ``monitor.event_begin(event)`` / ``monitor.event_end(event)``
        around the callback dispatch in :meth:`step`.  ``event_begin``
        runs while ``event.callbacks`` is still intact, so monitors can
        classify the event by its registered callbacks (see
        :class:`repro.obs.profiler.EngineProfiler`).
        """
        self._monitor = monitor

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a new, untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    # -- scheduling ------------------------------------------------------
    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Schedule ``event`` for processing after ``delay``."""
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def schedule_at(
        self, event: Event, at: float, priority: int = NORMAL
    ) -> None:
        """Schedule ``event`` at the *exact* absolute time ``at``.

        ``schedule(delay=at - now)`` re-derives the firing time as
        ``now + (at - now)``, which is not always the same float as
        ``at``.  Checkpoint restore re-creates pending timers from
        recorded absolute wake times and must reproduce the original
        firing instants bit-exactly, so it needs this exact form.
        """
        if at < self._now:
            raise ValueError(
                f"cannot schedule at {at}, before the current time "
                f"({self._now})"
            )
        self._eid += 1
        heappush(self._queue, (at, priority, self._eid, event))

    def timeout_at(self, at: float, value: Any = None) -> Event:
        """An event firing at the exact absolute time ``at``.

        The restore-side twin of :meth:`timeout`: a restarted process's
        first sleep targets the wake instant its pre-checkpoint
        incarnation had already scheduled, as an exact float.
        """
        event = Event(self)
        event._value = value
        self.schedule_at(event, at)
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else inf

    def step(self) -> None:
        """Process the next scheduled event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        try:
            self._now, _, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule("no scheduled events left") from None

        monitor = self._monitor
        if monitor is not None:
            monitor.event_begin(event)

        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)

        if monitor is not None:
            monitor.event_end(event)

        if not event._ok and not event.defused:
            # A process failed and no process waiting for it handled
            # the failure.
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the clock reaches ``until``, or until no events
        remain when ``until`` is ``None``.

        The stop instant is ``now + (until - now)``, the float the
        delay arithmetic of :meth:`timeout` gives;
        :meth:`run_until_at` stops at an exact instant instead.
        """
        if until is None:
            self._run()
        else:
            now = self._now
            self.run_until_at(now + (float(until) - now))

    def run_until_at(self, at: float) -> None:
        """Run until the clock reaches the *exact* float ``at``.

        A resumed simulation must stop at the bit-exact instant the
        original run stopped at, which the checkpoint records, rather
        than re-derive it by delay arithmetic as :meth:`run` does.
        """
        if at <= self._now:
            raise ValueError(
                f"until ({at}) must be greater than the current "
                f"simulation time ({self._now})"
            )
        stop = Event(self)
        stop._value = None
        self.schedule_at(stop, at, priority=URGENT)
        stop.callbacks.append(_stop_callback)
        self._run()

    def _run(self) -> None:
        """Step until a stop event fires or no events remain."""
        try:
            while True:
                self.step()
        except (StopSimulation, EmptySchedule):
            pass

    # -- checkpoint hooks -------------------------------------------------
    def clock_state(self) -> dict:
        """The scheduler state a checkpoint must capture.

        The pending event queue itself is *not* part of this state:
        events hold generator continuations and cannot be serialized.
        Checkpoints are only taken at safe points where every pending
        event is a timer that its owning process knows how to re-create
        (see :mod:`repro.engine.marks`).
        """
        return {"now": self._now, "eid": self._eid}

    def restore_clock_state(self, state: dict) -> None:
        """Reset the scheduler onto a checkpoint's clock.

        Discards every pending event (a freshly rebuilt simulation has
        initializer events queued that must never run) and restores the
        clock and the event-id counter, so that tie-breaking of
        same-time events stays consistent with the original run.
        """
        self._queue.clear()
        self._now = float(state["now"])
        self._eid = int(state["eid"])


def _stop_callback(event: Event) -> None:
    """Callback stopping :meth:`Environment.run` when ``event`` fires."""
    raise StopSimulation()
