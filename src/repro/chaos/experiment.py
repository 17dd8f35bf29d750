"""Chaos-instrumented collision tests.

:func:`chaos_collision_test` is the fault-injected sibling of
:func:`repro.obs.capture.observed_collision_test`: it builds a §3.2
testbed, installs a :class:`~repro.chaos.plan.ChaosPlan` through a
:class:`~repro.chaos.injector.ChaosInjector`, runs the invariant
checker over the whole run, and returns the measurement together with
the chaos report (injection ledger + checker summary + optional obs
capture).

The checkpointed and resumed drivers of :mod:`repro.checkpoint.testbed`
share :func:`attach_chaos`, :func:`chaos_span` and :func:`chaos_report`:
every chaos test records the same span and reports the same dict.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Any, Dict, Optional, Tuple, Union

from ..obs.probe import MacProbe, instrument_testbed
from .injector import ChaosInjector
from .invariants import InvariantChecker
from .plan import ChaosPlan

__all__ = ["chaos_collision_test", "attach_chaos", "chaos_report", "chaos_span"]


def chaos_span(plan, num_stations: int):
    """The ``chaos_test`` telemetry span of a test under ``plan`` (a
    :class:`ChaosPlan` or its dict) — or a no-op scope without a plan.

    Gated through ``sys.modules`` like every other telemetry touch
    point: a process that never loaded :mod:`repro.telemetry.context`,
    or has no active run, pays one dict lookup and nothing else.
    """
    module = sys.modules.get("repro.telemetry.context")
    if plan is None or module is None or module.current() is None:
        return contextlib.nullcontext()
    return module.span(
        "chaos_test",
        stations=num_stations,
        plan_seed=ChaosPlan.from_jsonable(plan).seed,
    )


def chaos_report(
    injector: ChaosInjector, checker: InvariantChecker
) -> Dict[str, Any]:
    """A finished chaos test's report: the plan, the injection ledger
    and the invariant-checker summary."""
    injector.flush()
    return {
        "plan": injector.plan.as_jsonable(),
        "injection": injector.report(),
        "invariants": checker.finalize(),
    }


def attach_chaos(
    testbed,
    plan: Union[ChaosPlan, Dict[str, Any]],
    probe: Optional[MacProbe] = None,
    deep_every: int = 256,
    registry=None,
) -> Tuple[ChaosInjector, InvariantChecker, MacProbe]:
    """Wire a plan + invariant checker into a built testbed.

    Returns ``(injector, checker, probe)`` — the injector already
    installed, the checker subscribed to the (possibly fresh) probe.
    Callers that already hold a probe (an obs capture session) pass it
    in so chaos and capture share one event stream.
    """
    plan = ChaosPlan.from_jsonable(plan)
    if probe is None:
        probe = instrument_testbed(testbed)
    checker = InvariantChecker(
        policy=plan.invariants, deep_every=deep_every, registry=registry
    )
    checker.watch_testbed(testbed)
    probe.subscribe(checker)
    injector = ChaosInjector(testbed, plan, checker=checker).install()
    return injector, checker, probe


def chaos_collision_test(
    num_stations: int,
    plan: Union[ChaosPlan, Dict[str, Any]],
    duration_us: Optional[float] = None,
    warmup_us: Optional[float] = None,
    seed: int = 1,
    obs=None,
    deep_every: int = 256,
    **testbed_kwargs,
):
    """One §3.2 collision test under a chaos plan.

    Returns ``(test, report)``: the usual
    :class:`~repro.experiments.procedures.CollisionTest` plus a report
    dict with the injection ledger (``report["injection"]``), the
    invariant-checker summary (``report["invariants"]``) and — when an
    :class:`~repro.obs.capture.ObsConfig` is given via ``obs`` — the
    capture summary (``report["capture"]``).

    With the plan's ``raise`` policy an invariant violation aborts the
    run by raising :class:`~repro.chaos.invariants.InvariantViolation`.
    """
    from ..experiments.procedures import (
        DEFAULT_TEST_DURATION_US,
        DEFAULT_WARMUP_US,
        run_collision_test,
    )
    from ..experiments.testbed import build_testbed

    if duration_us is None:
        duration_us = DEFAULT_TEST_DURATION_US
    if warmup_us is None:
        warmup_us = DEFAULT_WARMUP_US

    plan = ChaosPlan.from_jsonable(plan)
    with chaos_span(plan, num_stations):
        testbed = build_testbed(num_stations, seed=seed, **testbed_kwargs)
        session = None
        probe = None
        if obs is not None:
            from ..obs.capture import ObsSession

            session = ObsSession(testbed, obs)
            probe = session.probe
        injector, checker, probe = attach_chaos(
            testbed, plan, probe=probe, deep_every=deep_every
        )
        test = run_collision_test(
            num_stations,
            duration_us=duration_us,
            warmup_us=warmup_us,
            seed=seed,
            testbed=testbed,
        )
        report = chaos_report(injector, checker)
        if session is not None:
            # Persist the injection event log next to the capture
            # artifacts, one line per fault fired (run_id-stamped when
            # a telemetry run is active).
            ledger_path = session.config.chaos_ledger_path
            if injector.flush_ledger_jsonl(ledger_path):
                report["injection"]["ledger_path"] = str(ledger_path)
            report["capture"] = session.finalize()
    return test, report
