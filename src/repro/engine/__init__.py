"""A small discrete-event simulation kernel (offline stand-in for SimPy).

The kernel holds what the emulated testbed runs:

- :class:`Environment` — event queue, clock, ``run``/``step``, and the
  exact-instant ``timeout_at``/``run_until_at`` a checkpoint restore
  needs;
- :class:`Event`, :class:`Timeout` — event primitives;
- :class:`Process` — generator-based coroutine processes;
- :class:`RandomStreams` — named, reproducible random substreams;
- :mod:`repro.engine.marks` — the bookmarks that make processes
  restartable from a checkpoint.

The µs-resolution MAC emulation (:mod:`repro.mac`) and the HomePlug AV
testbed emulation (:mod:`repro.hpav`) are built on this kernel.
"""

from .environment import Environment
from .errors import EmptySchedule, EngineError, StopSimulation
from .events import Event, Timeout
from .process import Process
from .randomness import RandomStreams

__all__ = [
    "EmptySchedule",
    "EngineError",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "StopSimulation",
    "Timeout",
]
