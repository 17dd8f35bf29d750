"""Safe-point checkpoint/restore for the event-driven §3 testbed.

The event MAC runs on generator processes, which cannot be pickled.
Checkpointing therefore happens at the coordinator's *round boundary*
(the one instant with no contention state in flight) and captures,
instead of the generators themselves, everything needed to rebuild an
observably identical simulation:

- the engine clock (:meth:`~repro.engine.environment.Environment
  .clock_state`) — the pending event heap is *not* captured;
- the state of every RNG substream in the
  :class:`~repro.engine.randomness.RandomStreams` tree (plus the chaos
  injector's own named generators);
- the mutable state of every device: MAC node counters, per-priority
  queues (the queued frames and MMEs are plain picklable dataclasses),
  in-flight bursts, retransmission lists, backoff FSMs, firmware
  counters, address tables and keys;
- the coordinator's :class:`~repro.mac.coordinator.RoundLog`, the
  strip's wire counters, the AVLN beacon sequence, the global MPDU/
  frame-id counters, traffic-source counters, sniffer captures, and —
  under chaos — the injector ledger, error-model Markov states and the
  invariant checker's accumulators;
- one :class:`~repro.engine.marks.ProcMark` per sleeping process
  (sources, beacon, association, channel estimation, churn, firmware
  glitches), from which restore restarts fresh generators that wake at
  the exact recorded instants, in the exact original order.

Restore rebuilds the testbed structurally (:func:`~repro.experiments
.testbed.build_testbed` + chaos membership replay), overlays the
captured state, restarts the marked processes in
:func:`~repro.engine.marks.restart_order`, and finally restarts the
coordinator — reproducing the original event heap's relative ordering,
which is what makes resumed runs *bit-identical* to uninterrupted ones.

:func:`checkpointed_collision_test` composes the §3.2 procedure's steps
(:mod:`repro.experiments.procedures`) with :func:`arm_snapshot_hook`;
:func:`resume_collision_test` runs the same tail on a testbed
:func:`rebuild_from_snapshot` restored.  The runner and the CLI drive
those; the recovery harness arms the same hook and rebuilds the same way.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from ..core.parameters import PriorityClass
from ..engine.marks import ProcMark, restart_order
from ..phy.framing import mpdu_sequence_state, restore_mpdu_sequence
from ..traffic.packets import frame_id_state, restore_frame_ids
from .format import Checkpoint, CheckpointError, CheckpointStore

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY_US",
    "arm_snapshot_hook",
    "capture_testbed",
    "load_snapshot",
    "rebuild_from_snapshot",
    "restore_testbed_state",
    "checkpointed_collision_test",
    "resume_collision_test",
]

#: Default snapshot interval for testbed runs, in simulated µs.  At the
#: paper's 240 s test duration this yields ~24 snapshots per test; the
#: checkpoint benchmark pins the overhead of this default under 10 %.
DEFAULT_CHECKPOINT_EVERY_US = 10e6

_STATION_FIELDS = (
    "state",
    "bpc",
    "bc",
    "dc",
    "cw",
    "attempts_this_frame",
    "successes",
    "collisions",
    "drops",
    "jumps",
    "_attempting",
)


# -- capture -----------------------------------------------------------------
def _capture_node(node) -> Dict[str, Any]:
    queues = node.queues
    return {
        "tei": node.tei,
        "data": {
            int(p): list(q) for p, q in queues._data.items() if q
        },
        "management": {
            int(p): list(q) for p, q in queues._management.items() if q
        },
        "queue_drops": queues.drops,
        "current_bursts": {
            int(p): burst for p, burst in node._current_bursts.items()
        },
        "contending_priority": (
            None
            if node._contending_priority is None
            else int(node._contending_priority)
        ),
        "retransmit": {
            int(p): list(mpdus)
            for p, mpdus in node._retransmit.items()
            if mpdus
        },
        "tx_bursts": node.tx_bursts,
        "tx_collisions": node.tx_collisions,
        "phy_retransmissions": node.phy_retransmissions,
        "stations": {
            int(p): {
                field: getattr(station, field)
                for field in _STATION_FIELDS
            }
            for p, station in node._stations.items()
        },
    }


def _restore_node(node, state: Dict[str, Any]) -> None:
    node.tei = state["tei"]
    queues = node.queues
    for priority in PriorityClass:
        queues._data[priority] = deque(state["data"].get(int(priority), ()))
        queues._management[priority] = deque(
            state["management"].get(int(priority), ())
        )
    queues.drops = state["queue_drops"]
    node._current_bursts = {
        PriorityClass(p): burst
        for p, burst in state["current_bursts"].items()
    }
    node._contending_priority = (
        None
        if state["contending_priority"] is None
        else PriorityClass(state["contending_priority"])
    )
    node._retransmit = {
        PriorityClass(p): list(mpdus)
        for p, mpdus in state["retransmit"].items()
    }
    node.tx_bursts = state["tx_bursts"]
    node.tx_collisions = state["tx_collisions"]
    node.phy_retransmissions = state["phy_retransmissions"]
    for p, fields in state["stations"].items():
        station = node.station_for(PriorityClass(p))
        for field, value in fields.items():
            setattr(station, field, value)


def _capture_device(device) -> Dict[str, Any]:
    state = {
        "node": _capture_node(device.node),
        "address_table": dict(device.address_table),
        "nek": device.keys.nek,
        "received_frames": device.received_frames,
        "received_bytes": device.received_bytes,
        "received_frame_log": list(device.received_frame_log),
        "unresolved_drops": device.unresolved_drops,
        "beacons_seen": device.beacons_seen,
        "channel_est_seen": device.channel_est_seen,
        "mmes_sent": device.mmes_sent,
        "firmware": {
            "links": {
                key: (stats.acked, stats.collided)
                for key, stats in device.firmware._links.items()
            },
            "phy_errors": device.firmware.phy_errors,
        },
    }
    if device.is_cco:
        state["next_tei"] = device._next_tei
    return state


def _restore_device(device, state: Dict[str, Any]) -> None:
    _restore_node(device.node, state["node"])
    device.address_table = dict(state["address_table"])
    device.keys.nek = state["nek"]
    device.received_frames = state["received_frames"]
    device.received_bytes = state["received_bytes"]
    device.received_frame_log = list(state["received_frame_log"])
    device.unresolved_drops = state["unresolved_drops"]
    device.beacons_seen = state["beacons_seen"]
    device.channel_est_seen = state["channel_est_seen"]
    device.mmes_sent = state["mmes_sent"]
    firmware = device.firmware
    firmware._links.clear()
    for key, (acked, collided) in state["firmware"]["links"].items():
        stats = firmware.link(*key)
        stats.acked = acked
        stats.collided = collided
    firmware.phy_errors = state["firmware"]["phy_errors"]
    if device.is_cco:
        device._next_tei = state["next_tei"]


def _capture_checker(checker) -> Dict[str, Any]:
    return {
        "airtime_seen": dict(checker._airtime_seen),
        "airtime_baseline": dict(checker._airtime_baseline),
        "events_seen": checker.events_seen,
        "deep_sweeps": checker.deep_sweeps,
        "violation_count": checker.violation_count,
        "violations": list(checker.violations),
        "last_time_us": checker._last_time_us,
    }


def _restore_checker(checker, state: Dict[str, Any]) -> None:
    checker._airtime_seen = dict(state["airtime_seen"])
    checker._airtime_baseline = dict(state["airtime_baseline"])
    checker.events_seen = state["events_seen"]
    checker.deep_sweeps = state["deep_sweeps"]
    checker.violation_count = state["violation_count"]
    checker.violations = list(state["violations"])
    checker._last_time_us = state["last_time_us"]


def capture_testbed(
    testbed, injector=None, checker=None
) -> Dict[str, Any]:
    """The picklable state of a testbed paused at a safe point.

    Must be called at a coordinator round boundary (the
    ``checkpoint_hook``) with no other event pending at the current
    instant; :func:`checkpointed_collision_test` enforces both.
    """
    avln = testbed.avln
    coordinator = avln.coordinator
    state: Dict[str, Any] = {
        "clock": testbed.env.clock_state(),
        "streams": {
            key: rng.bit_generator.state
            for key, rng in testbed.streams._streams.items()
        },
        "mpdu_sequence": mpdu_sequence_state(),
        "frame_ids": frame_id_state(),
        "round_log": coordinator.log.as_dict(),
        "strip": {
            "sof_count": avln.strip.sof_count,
            "delivered_mpdus": avln.strip.delivered_mpdus,
        },
        "beacon_sequence": avln._beacon_sequence,
        "devices": {
            device.mac_addr: _capture_device(device)
            for device in avln.devices
        },
        "sources": [
            {
                "offered": source.offered,
                "accepted": source.accepted,
                "stopped": source.stopped,
                "mark": source.mark.as_state(),
            }
            for source in testbed.sources
        ],
        "avln_marks": [
            mark.as_state() for mark in avln._proc_marks.values()
        ],
        "faifa_captures": (
            list(testbed.faifa.captures)
            if testbed.faifa is not None
            else None
        ),
    }
    if injector is not None:
        state["injector"] = injector.capture_state()
        state["injector_marks"] = [
            mark.as_state() for mark in injector._proc_marks.values()
        ]
    if checker is not None:
        state["checker"] = _capture_checker(checker)
    return state


# -- restore -----------------------------------------------------------------
def restore_testbed_state(
    testbed, state: Dict[str, Any], injector=None, checker=None
) -> None:
    """Overlay a captured state onto a freshly built testbed.

    ``testbed`` must come from :func:`~repro.experiments.testbed
    .build_testbed` with the *same* configuration the snapshot was taken
    under; under chaos, ``injector``/``checker`` must come from
    :func:`~repro.chaos.experiment.attach_chaos` with the same plan.
    The order below is load-bearing — membership replay before the
    clock reset (its processes land on the discarded heap), state
    overlay before process restarts (restarted generators read it), and
    the coordinator last (its next event was, in the original run, the
    last one created at the safe point).
    """
    env = testbed.env
    avln = testbed.avln

    # 1. Structural membership replay (chaos churn joins/leaves).
    if injector is not None:
        injector.replay_membership(state["injector"]["membership_log"])
    captured_macs = set(state["devices"])
    roster_macs = {device.mac_addr for device in avln.devices}
    if captured_macs != roster_macs:
        raise CheckpointError(
            f"device roster mismatch: checkpoint has "
            f"{sorted(captured_macs)}, rebuilt testbed has "
            f"{sorted(roster_macs)} — wrong configuration or plan?"
        )
    if len(state["sources"]) != len(testbed.sources):
        raise CheckpointError(
            f"traffic source count mismatch: checkpoint has "
            f"{len(state['sources'])}, rebuilt testbed has "
            f"{len(testbed.sources)}"
        )

    # 2. Clock reset discards the build-time event heap wholesale; the
    # marked processes below re-create every pending timer.
    env.restore_clock_state(state["clock"])

    # 3. RNG streams and global sequence counters.
    for key, rng_state in state["streams"].items():
        testbed.streams.stream(*key).bit_generator.state = rng_state
    restore_mpdu_sequence(state["mpdu_sequence"])
    restore_frame_ids(state["frame_ids"])

    # 4. Aggregate ledgers.
    log = avln.coordinator.log
    round_log = state["round_log"]
    log.rounds = round_log["rounds"]
    log.idle_slots = round_log["idle_slots"]
    log.successes = round_log["successes"]
    log.collisions = round_log["collisions"]
    log.prs_phases = round_log["prs_phases"]
    log.mpdus_on_wire = round_log["mpdus_on_wire"]
    log.airtime_by_source = dict(round_log["airtime_by_source"])
    avln.strip.sof_count = state["strip"]["sof_count"]
    avln.strip.delivered_mpdus = state["strip"]["delivered_mpdus"]
    avln._beacon_sequence = state["beacon_sequence"]

    # 5. Per-device state (nodes, queues, FSMs, firmware, keys).
    for mac, device_state in state["devices"].items():
        _restore_device(avln.find_device(mac), device_state)

    # 6. Traffic sources (matched by position: build + membership
    # replay recreate the list in the original order).
    for source, source_state in zip(testbed.sources, state["sources"]):
        source.offered = source_state["offered"]
        source.accepted = source_state["accepted"]
        source.stopped = source_state["stopped"]
        source.mark = ProcMark.from_state(source_state["mark"])

    # 7. Observability surfaces.
    if testbed.faifa is not None and state["faifa_captures"] is not None:
        testbed.faifa.captures = list(state["faifa_captures"])
    if injector is not None:
        injector.restore_state(state["injector"])
    if checker is not None and "checker" in state:
        _restore_checker(checker, state["checker"])

    # 8. Adopt every captured mark (done ones included: they overwrite
    # the stale marks the rebuild stamped), then restart the live ones
    # in the original timer-creation order.
    restarts: List[Tuple[ProcMark, Any]] = []
    for source in testbed.sources:
        restarts.append(
            (source.mark, lambda m, s=source: s.restart(env))
        )
    for mark_state in state["avln_marks"]:
        mark = ProcMark.from_state(mark_state)
        avln.adopt_mark(mark)
        restarts.append((mark, avln.restart_marked))
    if injector is not None:
        for mark_state in state.get("injector_marks", ()):
            mark = ProcMark.from_state(mark_state)
            injector.adopt_mark(mark)
            restarts.append((mark, injector.restart_marked))
    handler_of = {id(mark): handler for mark, handler in restarts}
    for mark in restart_order(mark for mark, _handler in restarts):
        handler_of[id(mark)](mark)

    # 9. The coordinator's next event is always the last created at a
    # safe point, so its process restarts after everything else.
    avln.coordinator.restart()


# -- the §3.2 procedure, checkpointed ----------------------------------------
def arm_snapshot_hook(
    testbed,
    store: CheckpointStore,
    meta: Dict[str, Any],
    first_due_us: float,
    stop_us: float,
    every_us: float,
    injector=None,
    checker=None,
) -> None:
    """Arm the coordinator's round-boundary snapshot hook.

    Snapshots go to ``store`` from ``first_due_us`` on, every
    ``every_us`` (``math.inf``: once), never at or past ``stop_us``.
    The caller disarms it (``checkpoint_hook = None``) after the run.
    """
    env = testbed.env
    next_due = [first_due_us]

    def hook() -> None:
        now = env.now
        if now < next_due[0] or now >= stop_us:
            return
        if env.peek() == now:
            # Another event fires at this exact instant: its relative
            # order against restarted processes is not reconstructible,
            # so defer to the next round boundary.
            return
        store.write(
            Checkpoint(
                kind="testbed",
                seq=store.next_seq(),
                sim_time_us=now,
                meta=dict(meta),
                state=capture_testbed(
                    testbed, injector=injector, checker=checker
                ),
            )
        )
        next_due[0] = now + every_us

    testbed.avln.coordinator.checkpoint_hook = hook


def load_snapshot(
    store: CheckpointStore, checkpoint: Optional[Checkpoint] = None
) -> Checkpoint:
    """``checkpoint``, or the newest valid one in ``store``; it must be a
    ``testbed`` snapshot."""
    if checkpoint is None:
        checkpoint = store.latest_valid()
    if checkpoint is None:
        raise CheckpointError(
            f"no valid checkpoint under {store.directory}"
        )
    if checkpoint.kind != "testbed":
        raise CheckpointError(
            f"expected a 'testbed' checkpoint, got {checkpoint.kind!r}"
        )
    return checkpoint


def rebuild_from_snapshot(checkpoint: Checkpoint):
    """The testbed a snapshot was taken on, rebuilt from its metadata
    with the captured state restored: ``(testbed, injector, checker)``,
    the last two ``None`` without a chaos plan."""
    from ..chaos.experiment import attach_chaos
    from ..experiments.testbed import build_testbed

    meta = checkpoint.meta
    tb = build_testbed(
        meta["num_stations"], seed=meta["seed"], **meta["testbed_kwargs"]
    )
    injector = checker = None
    if meta["plan"] is not None:
        # Recovery snapshots carry no ``deep_every``: they ran on
        # attach_chaos's default.
        injector, checker, _probe = attach_chaos(
            tb, meta["plan"], deep_every=meta.get("deep_every", 256)
        )
    restore_testbed_state(
        tb, checkpoint.state, injector=injector, checker=checker
    )
    return tb, injector, checker


def _measure(tb, store, meta, first_due_us, injector, checker):
    """The checkpointed measurement tail, fresh or resumed: snapshot
    through the window ``meta`` records, close it, and report a chaos
    run inside its ``chaos_test`` span."""
    from ..chaos.experiment import chaos_report, chaos_span
    from ..experiments.procedures import MeasurementWindow, close_window

    window = MeasurementWindow(
        start_us=meta["start_us"],
        stop_us=meta["run_stop_us"],
        rx_bytes_before=meta["rx_bytes_before"],
    )
    with chaos_span(meta["plan"], meta["num_stations"]):
        arm_snapshot_hook(
            tb,
            store,
            meta,
            first_due_us=first_due_us,
            stop_us=window.stop_us,
            every_us=meta["checkpoint_every_us"],
            injector=injector,
            checker=checker,
        )
        try:
            test = close_window(tb, window, meta["num_stations"])
        finally:
            tb.avln.coordinator.checkpoint_hook = None
        if injector is None:
            return test
        return test, chaos_report(injector, checker)


def checkpointed_collision_test(
    num_stations: int,
    store: CheckpointStore,
    duration_us: Optional[float] = None,
    warmup_us: Optional[float] = None,
    seed: Optional[int] = 1,
    checkpoint_every_us: Optional[float] = None,
    plan=None,
    deep_every: int = 256,
    **testbed_kwargs,
):
    """One §3.2 collision test, snapshotting into ``store`` as it runs.

    The procedure's steps (:mod:`repro.experiments.procedures`) with
    one addition — the round-boundary snapshot hook, armed for the
    measurement window — which observes the simulation without
    perturbing it: the result is bit-identical to
    :func:`~repro.experiments.procedures.run_collision_test` (and, with
    ``plan``, to :func:`~repro.chaos.experiment.chaos_collision_test`,
    inside the same ``chaos_test`` span).

    Returns a :class:`~repro.experiments.procedures.CollisionTest`, or
    ``(test, report)`` when a chaos ``plan`` is given.  Checkpoints are
    only taken inside the measurement window (warm-up state is cheap to
    recompute); ``testbed_kwargs`` must be JSON-serializable so a
    resume can rebuild the identical testbed from the checkpoint alone.
    """
    from ..chaos.experiment import attach_chaos
    from ..chaos.plan import ChaosPlan
    from ..experiments.procedures import (
        DEFAULT_TEST_DURATION_US,
        DEFAULT_WARMUP_US,
        open_window,
        warm_up,
    )
    from ..experiments.testbed import build_testbed

    if duration_us is None:
        duration_us = DEFAULT_TEST_DURATION_US
    if warmup_us is None:
        warmup_us = DEFAULT_WARMUP_US
    if checkpoint_every_us is None:
        checkpoint_every_us = DEFAULT_CHECKPOINT_EVERY_US
    if checkpoint_every_us <= 0:
        raise ValueError(
            f"checkpoint_every_us must be > 0, got {checkpoint_every_us}"
        )
    try:
        json.dumps(testbed_kwargs)
    except TypeError as exc:
        raise ValueError(
            "checkpointed tests require JSON-serializable testbed_kwargs "
            f"(resume rebuilds the testbed from the checkpoint): {exc}"
        ) from None
    if plan is not None:
        plan = ChaosPlan.from_jsonable(plan)

    tb = build_testbed(num_stations, seed=seed, **testbed_kwargs)
    injector = checker = None
    if plan is not None:
        injector, checker, _probe = attach_chaos(
            tb, plan, deep_every=deep_every
        )
    warm_up(tb, warmup_us)
    window = open_window(tb, duration_us)
    meta = {
        "num_stations": num_stations,
        "duration_us": duration_us,
        "warmup_us": warmup_us,
        "seed": seed,
        "testbed_kwargs": testbed_kwargs,
        "plan": None if plan is None else plan.as_jsonable(),
        "deep_every": deep_every,
        "start_us": window.start_us,
        "rx_bytes_before": window.rx_bytes_before,
        "run_stop_us": window.stop_us,
        "checkpoint_every_us": checkpoint_every_us,
    }
    return _measure(
        tb,
        store,
        meta,
        window.start_us + checkpoint_every_us,
        injector,
        checker,
    )


def resume_collision_test(
    store: CheckpointStore,
    checkpoint: Optional[Checkpoint] = None,
):
    """Finish a :func:`checkpointed_collision_test` from its snapshot.

    Loads the newest valid checkpoint in ``store`` (or the given one),
    rebuilds the identical testbed from its metadata, restores the
    captured state, re-arms the snapshot hook and runs the remainder of
    the measurement window.  The result — rows, goodput, round log,
    traces — is bit-identical to the uninterrupted run's.
    """
    checkpoint = load_snapshot(store, checkpoint)
    tb, injector, checker = rebuild_from_snapshot(checkpoint)
    return _measure(
        tb,
        store,
        checkpoint.meta,
        checkpoint.sim_time_us + checkpoint.meta["checkpoint_every_us"],
        injector,
        checker,
    )
