"""In-simulation chaos layer: fault injection + runtime invariants.

Three parts (see ``docs/robustness.md`` for the full taxonomy):

- **channel impairments** (:mod:`repro.chaos.impairments`) — bursty
  Gilbert–Elliott errors, impulsive-noise windows, per-station link
  asymmetry, all as time-varying PB error models for the power strip;
- **device/MAC fault injection** (:mod:`repro.chaos.plan`,
  :mod:`repro.chaos.injector`) — a JSON-able, seedable
  :class:`~repro.chaos.plan.ChaosPlan` of SACK loss/corruption,
  station churn, firmware counter glitches and sniffer-path faults,
  executed against a testbed by
  :class:`~repro.chaos.injector.ChaosInjector`;
- **invariant checking + recovery** (:mod:`repro.chaos.invariants`,
  :mod:`repro.chaos.recovery`) — a runtime
  :class:`~repro.chaos.invariants.InvariantChecker` on the probe bus
  asserting the 1901 FSM stays legal under fault load, and
  :func:`~repro.chaos.recovery.run_recovery_experiment` verifying the
  MAC re-converges once faults clear.

This layer is *in-simulation*: it breaks the emulated network.  The
*process-level* counterpart (worker crashes, hangs) is the fault
points of :mod:`repro.faults`; the two compose freely.
"""

from .experiment import attach_chaos, chaos_collision_test
from .impairments import (
    AsymmetricLinkQuality,
    ComposedErrorModel,
    GilbertElliottPbErrors,
    ImpulsiveNoiseBursts,
)
from .injector import ChaosInjector
from .invariants import InvariantChecker, InvariantViolation
from .plan import FAULT_IDS, PRESETS, ChaosPlan, preset_plan
from .recovery import (
    RecoveryResult,
    default_recovery_plan,
    run_recovery_experiment,
)

__all__ = [
    "AsymmetricLinkQuality",
    "ChaosInjector",
    "ChaosPlan",
    "ComposedErrorModel",
    "FAULT_IDS",
    "GilbertElliottPbErrors",
    "ImpulsiveNoiseBursts",
    "InvariantChecker",
    "InvariantViolation",
    "PRESETS",
    "RecoveryResult",
    "attach_chaos",
    "chaos_collision_test",
    "default_recovery_plan",
    "preset_plan",
    "run_recovery_experiment",
]
