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

Each window uses the §3.2 procedure (reset stats → run → read ΣC/ΣA).
Recovery holds when the recovered window's collision probability is
back within ``tolerance`` (relative, with an absolute ``floor`` for
near-zero baselines) of the baseline.
"""

from __future__ import annotations

import dataclasses
import json
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


def _window_collision_probability(testbed, window_us: float) -> float:
    """One §3.2 measurement window on a running testbed."""
    testbed.reset_data_stats()
    testbed.run_until(testbed.env.now + window_us)
    rows = testbed.read_data_stats()
    acked = sum(row[1] for row in rows)
    collided = sum(row[2] for row in rows)
    return collided / acked if acked else 0.0


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
    from ..experiments.testbed import build_testbed

    fault_start_us = warmup_us + window_us
    fault_end_us = fault_start_us + window_us
    if plan is None:
        plan = default_recovery_plan(
            fault_start_us, fault_end_us, seed=plan_seed
        )

    testbed = build_testbed(num_stations, seed=seed, **testbed_kwargs)
    injector, checker, _probe = attach_chaos(testbed, plan)

    testbed.run_until(warmup_us)
    if not testbed.avln.all_associated:
        testbed.run_until(warmup_us + 1e6)
    if not testbed.avln.all_associated:
        raise RuntimeError("stations failed to associate during warm-up")

    baseline = _window_collision_probability(testbed, window_us)
    faulty = _window_collision_probability(testbed, window_us)
    if checkpoint_store is not None:
        # Mirror Environment.run's stop arithmetic for the two runs
        # that remain, so the resumed experiment can reproduce the
        # exact stop instants with run_until_at.
        settle_start = testbed.env.now
        settle_stop = settle_start + (
            (settle_start + settle_us) - settle_start
        )
        recovered_stop = settle_stop + (
            (settle_stop + window_us) - settle_stop
        )
        try:
            json.dumps(testbed_kwargs)
        except TypeError as exc:
            raise ValueError(
                "checkpointed recovery requires JSON-serializable "
                f"testbed_kwargs: {exc}"
            ) from None
        _arm_gap_checkpoint(
            testbed,
            injector,
            checker,
            checkpoint_store,
            settle_stop=settle_stop,
            meta={
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
                "recovered_stop_us": recovered_stop,
            },
        )
    # Let the faults clear and the backoff state drain before the
    # recovery window.
    try:
        testbed.run_until(testbed.env.now + settle_us)
    finally:
        if checkpoint_store is not None:
            testbed.avln.coordinator.checkpoint_hook = None
    recovered = _window_collision_probability(testbed, window_us)

    injector.flush()
    return RecoveryResult(
        num_stations=num_stations,
        window_us=window_us,
        baseline=baseline,
        faulty=faulty,
        recovered=recovered,
        tolerance=tolerance,
        floor=floor,
        invariants=checker.finalize(),
        injection=injector.report(),
    )


def _arm_gap_checkpoint(
    testbed, injector, checker, store, settle_stop: float, meta: Dict[str, Any]
) -> None:
    """One-shot snapshot at the first safe point of the settle gap.

    Fires at a contention-round boundary (the coordinator's checkpoint
    hook), skips instants with another event pending at the same time
    (relative order would not be reconstructible), and never fires
    inside the recovery measurement window — the resume must re-enter
    *before* the window's stat reset.
    """
    done = []

    def hook() -> None:
        env = testbed.env
        if done or env.now >= settle_stop or env.peek() == env.now:
            return
        from ..checkpoint.format import Checkpoint
        from ..checkpoint.testbed import capture_testbed

        store.write(
            Checkpoint(
                kind="testbed",
                seq=store.next_seq(),
                sim_time_us=env.now,
                meta=dict(meta),
                state=capture_testbed(
                    testbed, injector=injector, checker=checker
                ),
            )
        )
        done.append(True)

    testbed.avln.coordinator.checkpoint_hook = hook


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
    from ..checkpoint.testbed import restore_testbed_state
    from ..experiments.testbed import build_testbed

    if checkpoint is None:
        checkpoint = store.latest_valid()
        if checkpoint is None:
            raise CheckpointError(
                f"no valid checkpoint in {store.directory}"
            )
    meta = checkpoint.meta
    if checkpoint.kind != "testbed" or meta.get("experiment") != "recovery":
        raise CheckpointError(
            "checkpoint is not a recovery-experiment snapshot "
            f"(kind={checkpoint.kind!r}, "
            f"experiment={meta.get('experiment')!r})"
        )

    testbed = build_testbed(
        meta["num_stations"],
        seed=meta["seed"],
        **(meta.get("testbed_kwargs") or {}),
    )
    injector, checker, _probe = attach_chaos(testbed, meta["plan"])
    restore_testbed_state(
        testbed, checkpoint.state, injector=injector, checker=checker
    )

    testbed.env.run_until_at(meta["settle_stop_us"])
    testbed.reset_data_stats()
    testbed.env.run_until_at(meta["recovered_stop_us"])
    rows = testbed.read_data_stats()
    acked = sum(row[1] for row in rows)
    collided = sum(row[2] for row in rows)
    recovered = collided / acked if acked else 0.0

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
