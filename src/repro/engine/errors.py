"""Exception types raised by the discrete-event simulation kernel."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all simulation-kernel errors."""


class StopSimulation(EngineError):
    """Raised by the stop event of :meth:`Environment.run_until_at`
    (and so of ``run(until=...)``) to halt the loop at ``until``.

    Users never need to raise this directly.
    """


class EmptySchedule(EngineError):
    """Raised by :meth:`Environment.step` when no events remain."""
