"""A stop request whose raise Python swallowed still ends the command.

``handle_signals(mode="raise")`` raises at whatever frame the signal
interrupts.  When that frame is one whose exceptions Python only
prints — a finalizer, a fork hook such as the ``logging`` lock release
a process pool triggers — the body runs on, so the request must
surface when the body ends.
"""

import os
import signal
import time

import pytest

from repro.service.signals import ShutdownRequested, handle_signals


class _SignalledFinalizer:
    def __del__(self):
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(5)  # the handler raises in here, and Python ignores it


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)
def test_swallowed_raise_surfaces_when_the_body_ends():
    ran_on = []
    with pytest.raises(ShutdownRequested) as info:
        with handle_signals(mode="raise"):
            _SignalledFinalizer()
            ran_on.append(True)
    assert ran_on == [True]
    assert info.value.signum == signal.SIGTERM
    assert info.value.exit_status == 128 + signal.SIGTERM
