"""Skipping idle runs changes no result.

Both slot engines take a run of idle slot events in one step when no
station can attempt inside it (``Station.quiet_slots``).  These tests
hold the skip to the slot-by-slot run, which both engines still take
wherever something observes slots:

- ``SlotSimulator`` with ``record_slots=True`` steps every slot, so a
  plain run must equal it field for field, ``duration_us`` included,
  and so must a run paused at arbitrary instants;
- the testbed's coordinator steps every slot while a probe is
  attached, so a bare testbed must equal a probed one: the same
  ``RoundLog``, counters, clock and round-boundary instants.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScenarioConfig, SlotSimulator
from repro.core.config import CsmaConfig, StationConfig
from repro.core.parameters import PriorityClass
from repro.core.station import Station
from repro.engine import Environment, RandomStreams
from repro.experiments.procedures import run_collision_test
from repro.experiments.testbed import build_testbed
from repro.mac.coordinator import ContentionCoordinator
from repro.mac.node import MacNode
from repro.obs import instrument_testbed
from repro.obs.probe import MacProbe, instrument
from repro.phy.channel import PowerStrip
from repro.phy.timing import PhyTiming
from repro.traffic.packets import udp_frame

#: The station types a scenario mixes: 1901 CA1 and CA3, and 802.11.
CSMA_KINDS = {
    "ca1": lambda limit: CsmaConfig.for_priority(PriorityClass.CA1, limit),
    "ca3": lambda limit: CsmaConfig.for_priority(PriorityClass.CA3, limit),
    "80211": lambda limit: CsmaConfig.ieee80211(retry_limit=limit),
}


@st.composite
def scenarios(draw):
    """N = 1..10 stations of one or mixed types, with or without a retry
    limit; unsaturated stations on short queues go dormant."""
    n = draw(st.integers(1, 10))
    kinds = draw(
        st.one_of(
            st.sampled_from(sorted(CSMA_KINDS)).map(lambda k: [k] * n),
            st.lists(
                st.sampled_from(sorted(CSMA_KINDS)), min_size=n, max_size=n
            ),
        )
    )
    limit = draw(st.one_of(st.none(), st.integers(1, 4)))
    rates = draw(
        st.lists(
            st.one_of(st.none(), st.floats(5.0, 3000.0)),
            min_size=n,
            max_size=n,
        )
    )
    capacity = draw(st.integers(1, 4))
    stations = tuple(
        StationConfig(
            csma=CSMA_KINDS[kind](limit),
            arrival_rate_pps=rate,
            queue_capacity=capacity,
        )
        for kind, rate in zip(kinds, rates)
    )
    return ScenarioConfig(
        stations=stations,
        sim_time_us=float(draw(st.integers(1_000, 150_000))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


def _slot_by_slot(scenario):
    """The reference run: ``record_slots`` steps every slot event."""
    result = SlotSimulator(
        scenario, record_slots=True, record_delays=True
    ).run()
    return dataclasses.replace(result, trace=None)


def _same(result, reference):
    """Field for field, the delay arrays compared element-wise."""
    assert np.array_equal(result.delays_us, reference.delays_us)
    assert dataclasses.replace(
        result, trace=None, delays_us=None
    ) == dataclasses.replace(reference, delays_us=None)


@settings(deadline=None, max_examples=80)
@given(scenarios())
def test_run_equals_slot_by_slot_run(scenario):
    _same(SlotSimulator(scenario, record_delays=True).run(),
          _slot_by_slot(scenario))


@settings(deadline=None, max_examples=60)
@given(
    scenarios(),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
)
def test_paused_run_equals_unpaused_run(scenario, fractions):
    sim = SlotSimulator(scenario, record_delays=True)
    for fraction in sorted(fractions):
        if sim.advance(fraction * scenario.sim_time_us):
            break
    sim.advance(None)
    _same(sim.result(), _slot_by_slot(scenario))


def test_skip_is_taken(monkeypatch):
    """A saturated CA1 run really skips: it steps the stations far less
    often than the slot-by-slot run, for the same result."""
    scenario = ScenarioConfig.homogeneous(
        num_stations=2, sim_time_us=1e6, seed=3
    )
    steps = []
    step = Station.step
    monkeypatch.setattr(
        Station, "step", lambda self: steps.append(1) or step(self)
    )
    skipped = SlotSimulator(scenario).run()
    skipped_steps = len(steps)
    steps.clear()
    stepped = SlotSimulator(scenario, record_slots=True).run()
    assert dataclasses.replace(stepped, trace=None) == skipped
    assert skipped_steps < 0.75 * len(steps)


# -- the §3 testbed --------------------------------------------------------
def _round_recorder(env, log):
    """A round-boundary hook recording the exact instant and counters."""
    rounds = []

    def hook():
        rounds.append(
            (env.now, log.idle_slots, log.successes, log.collisions)
        )

    return rounds, hook


def _testbed_run(num_stations, probed):
    testbed = build_testbed(num_stations, seed=5)
    coordinator = testbed.avln.coordinator
    rounds, coordinator.checkpoint_hook = _round_recorder(
        testbed.env, coordinator.log
    )
    if probed:
        instrument_testbed(testbed)
    test = run_collision_test(
        num_stations, duration_us=1e6, seed=5, testbed=testbed
    )
    fsm = [
        (
            device.mac_addr,
            device.node.tx_bursts,
            device.node.tx_collisions,
            sorted(
                (int(p), s.successes, s.collisions, s.jumps, s.bpc, s.bc)
                for p, s in device.node.stations().items()
            ),
        )
        for device in testbed.avln.devices
    ]
    return {
        "test": test,
        "round_log": coordinator.log.as_dict(),
        "now": testbed.env.now,
        "fsm": fsm,
        "rounds": rounds,
    }, testbed.env.clock_state()["eid"]


@pytest.mark.parametrize("num_stations", [1, 2, 7])
def test_bare_testbed_equals_probed_testbed(num_stations):
    bare, bare_events = _testbed_run(num_stations, probed=False)
    probed, probed_events = _testbed_run(num_stations, probed=True)
    assert bare == probed
    # The probe turned the skip off; without it fewer events ran.
    assert bare_events < probed_events


def _idle_guard_run(probed):
    """One CA1 node with a wide window behind a 10-slot idle guard."""
    env = Environment()
    strip = PowerStrip()
    strip.attach(lambda mpdu, time_us: None)
    coordinator = ContentionCoordinator(
        env, strip, PhyTiming(), max_idle_slots_between_prs=10
    )
    node = MacNode(
        "wide",
        RandomStreams(2),
        configs={PriorityClass.CA1: CsmaConfig(cw=(256, 512), dc=(0, 1))},
    )
    node.tei = 2
    node.dest_tei_of = lambda mac: 1
    coordinator.add_node(node)
    for _ in range(40):
        node.submit_data(
            udp_frame(dst_mac="02:00:00:00:00:00", src_mac="02:00:00:00:00:02")
        )
    rounds, coordinator.checkpoint_hook = _round_recorder(
        env, coordinator.log
    )
    if probed:
        instrument(
            MacProbe(clock=lambda: env.now),
            coordinator=coordinator,
            nodes=[node],
        )
    env.run(until=2e5)
    return rounds, coordinator.log.as_dict(), env.clock_state()["eid"]


def test_idle_guard_still_bounds_a_round():
    rounds, log, events = _idle_guard_run(probed=False)
    probed_rounds, probed_log, probed_events = _idle_guard_run(probed=True)
    assert (rounds, log) == (probed_rounds, probed_log)
    idle = [0] + [idle_slots for _t, idle_slots, *_ in rounds]
    per_round = [after - before for before, after in zip(idle, idle[1:])]
    assert max(per_round) == 10  # the guard ended some rounds...
    assert all(slots <= 10 for slots in per_round)  # ...and bounded all
    assert events < probed_events
