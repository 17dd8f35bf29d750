"""Event primitives for the discrete-event simulation kernel.

The design follows the classic callback-driven architecture popularized
by SimPy (which is unavailable in this offline environment): an
:class:`Event` moves through three states — *pending*, *triggered*
(scheduled with a value) and *processed* (its callbacks have run).
Processes (see :mod:`repro.engine.process`) suspend by yielding events
and are resumed from the event's callback list.

The emulated testbed yields exactly two kinds of event: a
:class:`Timeout` (or an exact-instant one from
:meth:`Environment.timeout_at`) and a plain :class:`Event` that another
process succeeds (the contention coordinator's work event).  A process
is an event too, so a process can wait for another one.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

__all__ = ["PENDING", "URGENT", "NORMAL", "Event", "Timeout"]

#: Sentinel for the value of an event that has not been triggered yet.
PENDING = object()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class Event:
    """An event that may happen at some point in simulated time.

    Callbacks appended to :attr:`callbacks` are invoked with the event
    itself as sole argument when the event is processed.
    """

    def __init__(self, env: "Environment") -> None:  # noqa: F821
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        #: Set to ``True`` by a process when it handles a failed event,
        #: to acknowledge the exception (otherwise it propagates out of
        #: :meth:`Environment.step`).
        self.defused: bool = False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} object at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (valid once triggered)."""
        if not self.triggered:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time."""

    def __init__(
        self,
        env: "Environment",  # noqa: F821
        delay: float,
        value: Any = None,
    ) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._value = value
        env.schedule(self, delay=delay)
