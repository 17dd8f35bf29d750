"""Graceful-shutdown signal handling for the service and the CLI.

Two consumers, two modes:

``mode="flag"`` (the ``serve`` loop)
    SIGTERM/SIGINT set a :class:`threading.Event` the orchestrator
    polls between scheduling steps.  The loop then *drains*: stops
    dispatching, lets (or makes) in-flight workers finish, journals
    ``lease_released``/``service_stop``, flushes telemetry, and exits
    0.  A second signal during the drain escalates to the default
    disposition (the operator can always double-^C their way out).

``mode="raise"`` (one-shot CLI commands: ``sweep``, ``batch``, ...)
    The handler raises :class:`ShutdownRequested` *at the interrupted
    frame*, so the runner's ``finally`` blocks run — open spans close
    with ``status="interrupted"``, trace JSONL flushes, checkpoints
    stay valid — instead of the process dying with truncated telemetry.
    :class:`ShutdownRequested` subclasses ``BaseException`` (like
    ``KeyboardInterrupt``) precisely so the runner's ``except
    Exception`` retry machinery cannot mistake an operator's ^C for a
    failing task and burn retry attempts on it.  A frame whose
    exceptions Python only prints (a finalizer, a fork hook) swallows
    the raise; the context then raises again when its body ends.  The
    CLI converts it to the conventional ``128 + signum`` exit status.

Handlers are only installable from the main thread (a CPython
constraint); :func:`handle_signals` degrades to a no-op elsewhere so
library callers can use it unconditionally.
"""

from __future__ import annotations

import contextlib
import signal
import threading
from typing import Iterator, Optional, Tuple

__all__ = ["ShutdownRequested", "ShutdownFlag", "handle_signals"]

#: Signals that mean "stop cleanly".
SHUTDOWN_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class ShutdownRequested(BaseException):
    """An operator asked this process to stop (SIGTERM/SIGINT).

    ``BaseException`` on purpose — see the module docstring.
    """

    def __init__(self, signum: int) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = str(signum)
        super().__init__(f"shutdown requested ({name})")
        self.signum = signum

    @property
    def exit_status(self) -> int:
        """The conventional fatal-signal exit status."""
        return 128 + self.signum


class ShutdownFlag:
    """What ``mode="flag"`` hands back: an event plus the signal seen."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.signum: Optional[int] = None

    def set(self, signum: int) -> None:
        if self.signum is None:
            self.signum = signum
        self._event.set()

    def is_set(self) -> bool:
        return self._event.is_set()


@contextlib.contextmanager
def handle_signals(
    mode: str = "raise",
    signals: Tuple[int, ...] = SHUTDOWN_SIGNALS,
) -> Iterator[ShutdownFlag]:
    """Install shutdown handlers for the ``with`` body; restore after.

    Yields a :class:`ShutdownFlag`.  In ``"flag"`` mode the *first*
    signal sets the flag and the handler uninstalls itself for that
    signal, so a repeat signal gets the default (hard) disposition.  In
    ``"raise"`` mode the flag is set and :class:`ShutdownRequested` is
    raised into the interrupted frame.
    """
    if mode not in ("raise", "flag"):
        raise ValueError(f"unknown signal mode {mode!r}")
    flag = ShutdownFlag()
    if threading.current_thread() is not threading.main_thread():
        yield flag
        return

    def _handler(signum, frame):
        flag.set(signum)
        if mode == "flag":
            # Second signal of this kind → default disposition.
            signal.signal(signum, signal.SIG_DFL)
            return
        raise ShutdownRequested(signum)

    previous = {}
    try:
        for signum in signals:
            try:
                previous[signum] = signal.signal(signum, _handler)
            except (OSError, ValueError):
                continue
        yield flag
        if mode == "raise" and flag.is_set():
            # The handler's raise landed where Python ignores exceptions
            # (a fork hook, a finalizer) and the body ran on: the stop
            # request still decides how it ends.
            raise ShutdownRequested(flag.signum)
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (OSError, ValueError):
                pass
