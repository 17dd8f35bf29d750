"""MAC re-convergence after fault clearance (the recovery harness).

The point of injecting faults is to show the MAC *recovers* from them:
after a burst-error episode ends and a churning station leaves, the
collision probability — the paper's headline §3.2 metric — must return
to its fault-free level, because the 1901 backoff state that the fault
perturbed (inflated BPC stages, retransmission queues) drains within a
few contention rounds.

:func:`run_recovery_experiment` measures that on one testbed with three
consecutive measurement windows:

1. **baseline** — fault-free, right after warm-up;
2. **faulty** — a fault episode (by default: one extra station joins
   *and* a Gilbert–Elliott burst channel switches on, both of which
   push the collision probability up);
3. **recovered** — after the faults clear and a settle gap elapses.

Each window is the §3.2 procedure's measurement window
(:func:`~repro.experiments.procedures.open_window` →
:func:`~repro.experiments.procedures.close_window`), after its
:func:`~repro.experiments.procedures.warm_up`.  Recovery holds when the
recovered window's collision probability is back within ``tolerance``
(relative, with an absolute ``floor`` for near-zero baselines) of the
baseline.

With a checkpoint store the experiment arms the checkpointed collision
test's snapshot hook (:func:`~repro.checkpoint.testbed
.arm_snapshot_hook`) once, for the settle gap;
:func:`resume_recovery_experiment` rebuilds from that snapshot with the
same :func:`~repro.checkpoint.testbed.rebuild_from_snapshot` and runs
the same tail (settle, recovered window) as the straight run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Any, Dict, Optional

from .experiment import attach_chaos
from .plan import ChaosPlan

__all__ = [
    "RecoveryResult",
    "run_recovery_experiment",
    "resume_recovery_experiment",
    "default_recovery_plan",
]


def default_recovery_plan(
    fault_start_us: float,
    fault_end_us: float,
    seed: int = 0,
    invariants: str = "raise",
) -> ChaosPlan:
    """The standard recovery episode: +1 station (crash-leave at the
    end) and a Gilbert–Elliott burst channel over the fault window."""
    return ChaosPlan(
        seed=seed,
        gilbert_elliott={
            "p_good_to_bad": 0.05,
            "p_bad_to_good": 0.4,
            "error_good": 0.0,
            "error_bad": 0.6,
            "start_us": fault_start_us,
            "end_us": fault_end_us,
        },
        churn=(
            {
                "time_us": fault_start_us,
                "action": "join",
                "crash": True,
                "leave_at_us": fault_end_us,
            },
        ),
        invariants=invariants,
    )


@dataclasses.dataclass(frozen=True)
class RecoveryResult:
    """Collision probabilities of the three windows + the verdict."""

    num_stations: int
    window_us: float
    baseline: float
    faulty: float
    recovered: float
    tolerance: float
    floor: float
    #: Invariant-checker summary over the whole experiment.
    invariants: Dict[str, Any]
    #: Injection ledger.
    injection: Dict[str, Any]

    @property
    def deviation(self) -> float:
        """|recovered − baseline|."""
        return abs(self.recovered - self.baseline)

    @property
    def allowed_deviation(self) -> float:
        return max(self.tolerance * self.baseline, self.floor)

    @property
    def converged(self) -> bool:
        """Did the MAC return to its fault-free operating point?"""
        return self.deviation <= self.allowed_deviation

    def as_dict(self) -> Dict[str, Any]:
        return {
            "num_stations": self.num_stations,
            "window_us": self.window_us,
            "baseline": self.baseline,
            "faulty": self.faulty,
            "recovered": self.recovered,
            "deviation": self.deviation,
            "allowed_deviation": self.allowed_deviation,
            "converged": self.converged,
            "invariants": dict(self.invariants),
            "injection": dict(self.injection),
        }


def _window_collision_probability(
    testbed, num_stations: int, window_us: float
) -> float:
    """One §3.2 measurement window on a running testbed."""
    from ..experiments.procedures import close_window, open_window

    window = open_window(testbed, window_us)
    return close_window(testbed, window, num_stations).collision_probability


def run_recovery_experiment(
    num_stations: int = 3,
    seed: int = 1,
    plan: Optional[ChaosPlan] = None,
    window_us: float = 20e6,
    settle_us: float = 5e6,
    warmup_us: float = 2e6,
    tolerance: float = 0.05,
    floor: float = 0.02,
    plan_seed: int = 0,
    checkpoint_store=None,
    **testbed_kwargs,
) -> RecoveryResult:
    """Measure baseline → fault → recovery on one testbed.

    ``plan=None`` uses :func:`default_recovery_plan` timed to the
    window layout; a custom plan must schedule its faults inside
    ``[warmup_us + window_us, warmup_us + 2·window_us)`` to line up
    with the faulty window.

    ``floor`` is the absolute deviation always tolerated: collision
    probability is a ratio of two counters with O(1/√n) noise per
    window, so a purely relative tolerance would make short windows
    flaky at small baselines.

    ``checkpoint_store`` (a
    :class:`~repro.checkpoint.CheckpointStore`) snapshots the full
    testbed + chaos state at the first contention-round boundary of
    the settle gap — i.e. just after the fault episode clears.
    :func:`resume_recovery_experiment` re-enters the experiment from
    that snapshot and re-measures only the recovery window, producing
    a :class:`RecoveryResult` bit-identical to this one; it requires
    JSON-serializable ``testbed_kwargs``.
    """
    from ..experiments.procedures import warm_up
    from ..experiments.testbed import build_testbed

    fault_start_us = warmup_us + window_us
    fault_end_us = fault_start_us + window_us
    if plan is None:
        plan = default_recovery_plan(
            fault_start_us, fault_end_us, seed=plan_seed
        )

    testbed = build_testbed(num_stations, seed=seed, **testbed_kwargs)
    injector, checker, _probe = attach_chaos(testbed, plan)
    warm_up(testbed, warmup_us)
    baseline = _window_collision_probability(testbed, num_stations, window_us)
    faulty = _window_collision_probability(testbed, num_stations, window_us)

    # Environment.run's stop arithmetic for the settle gap, so the
    # resumed experiment reaches the same instant with run_until_at.
    settle_start = testbed.env.now
    settle_stop = settle_start + ((settle_start + settle_us) - settle_start)
    meta = {
        "experiment": "recovery",
        "num_stations": num_stations,
        "seed": seed,
        "testbed_kwargs": testbed_kwargs,
        "plan": plan.as_jsonable()
        if isinstance(plan, ChaosPlan)
        else dict(plan),
        "window_us": window_us,
        "settle_us": settle_us,
        "warmup_us": warmup_us,
        "tolerance": tolerance,
        "floor": floor,
        "baseline": baseline,
        "faulty": faulty,
        "settle_stop_us": settle_stop,
        "recovered_stop_us": settle_stop
        + ((settle_stop + window_us) - settle_stop),
    }
    if checkpoint_store is not None:
        from ..checkpoint.testbed import arm_snapshot_hook

        try:
            json.dumps(testbed_kwargs)
        except TypeError as exc:
            raise ValueError(
                "checkpointed recovery requires JSON-serializable "
                f"testbed_kwargs: {exc}"
            ) from None
        # One snapshot, at the first safe point of the settle gap: the
        # resume must re-enter *before* the recovered window's reset.
        arm_snapshot_hook(
            testbed,
            checkpoint_store,
            meta,
            first_due_us=settle_start,
            stop_us=settle_stop,
            every_us=math.inf,
            injector=injector,
            checker=checker,
        )
    return _settle_and_recover(testbed, injector, checker, meta)


def _settle_and_recover(
    testbed, injector, checker, meta: Dict[str, Any]
) -> RecoveryResult:
    """The experiment's tail, straight or resumed from its snapshot's
    ``meta``: let the faults clear and the backoff state drain until
    the settle gap's stop, then measure the recovered window."""
    try:
        testbed.env.run_until_at(meta["settle_stop_us"])
    finally:
        testbed.avln.coordinator.checkpoint_hook = None
    recovered = _window_collision_probability(
        testbed, meta["num_stations"], meta["window_us"]
    )
    injector.flush()
    return RecoveryResult(
        num_stations=meta["num_stations"],
        window_us=meta["window_us"],
        baseline=meta["baseline"],
        faulty=meta["faulty"],
        recovered=recovered,
        tolerance=meta["tolerance"],
        floor=meta["floor"],
        invariants=checker.finalize(),
        injection=injector.report(),
    )


def resume_recovery_experiment(store, checkpoint=None) -> RecoveryResult:
    """Re-enter a recovery experiment from its settle-gap snapshot.

    Rebuilds the testbed and chaos stack from the checkpoint's meta,
    restores the captured state, and re-runs only the tail of the
    settle gap plus the recovery window.  The returned
    :class:`RecoveryResult` — recovered collision probability,
    invariant summary and injection ledger included — is bit-identical
    to the one :func:`run_recovery_experiment` produced (or would have
    produced, had it not crashed after the snapshot).
    """
    from ..checkpoint.format import CheckpointError
    from ..checkpoint.testbed import load_snapshot, rebuild_from_snapshot

    checkpoint = load_snapshot(store, checkpoint)
    meta = checkpoint.meta
    if meta.get("experiment") != "recovery":
        raise CheckpointError(
            "checkpoint is not a recovery-experiment snapshot "
            f"(experiment={meta.get('experiment')!r})"
        )
    return _settle_and_recover(*rebuild_from_snapshot(checkpoint), meta)
