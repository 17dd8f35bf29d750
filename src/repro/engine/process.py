"""Generator-based processes for the discrete-event simulation kernel."""

from __future__ import annotations

from typing import Generator

from .events import Event, URGENT

__all__ = ["Process", "Initialize"]


class Initialize(Event):
    """Urgent event that starts a freshly created :class:`Process`."""

    def __init__(self, env: "Environment", process: "Process") -> None:  # noqa: F821
        super().__init__(env)
        self.callbacks = [process._resume]
        self._value = None
        env.schedule(self, priority=URGENT)


class Process(Event):
    """A process executing a generator function.

    The process suspends whenever the generator yields an
    :class:`Event` and resumes once that event is processed.  The
    process itself is an event that triggers when the generator
    terminates (its value is the generator's return value); a failed
    process is a failed event, thrown into every process waiting for
    it and otherwise raised out of :meth:`Environment.run`.
    """

    def __init__(self, env: "Environment", generator: Generator) -> None:  # noqa: F821
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        Initialize(env, self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", repr(self._generator))
        return f"<Process({name}) object at {id(self):#x}>"

    def _resume(self, event: Event) -> None:
        """Resume the generator with the value of ``event``."""
        env = self.env

        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed; throw its exception into the
                    # generator.  Mark it defused: the process now owns
                    # the error.
                    event.defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                # Process finished.
                self._ok = True
                self._value = stop.value
                env.schedule(self)
                break
            except BaseException as exc:
                # Process failed.
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            # Process the event the generator yielded.
            if not isinstance(next_event, Event):
                # Deliver the error into the generator on the next
                # iteration so it surfaces as a normal process failure.
                error = Event(env)
                error._ok = False
                error._value = TypeError(
                    f"process yielded a non-event: {next_event!r}"
                )
                error.callbacks = None
                event = error
                continue
            if next_event.callbacks is not None:
                # Event not yet processed: suspend until it is.
                next_event.callbacks.append(self._resume)
                break
            # Event already processed: continue immediately with its
            # value (or exception).
            event = next_event
