"""The support-matrix property: every scenario runs on the kernel.

:class:`~repro.runner.batch.BatchRunner` sends every uncached point to
the kernel, so every scenario ``ScenarioConfig`` can express must run
there *bit-exactly* against ``SlotSimulator`` — including the
retry-limit and unsaturated-arrival families.  This suite holds the
kernel to that, so a scenario family it cannot run fails loudly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import (
    batch_simulate,
    compare_round_records,
    kernel_round_records,
    slotsim_round_records,
)
from repro.core import ScenarioConfig, SlotSimulator
from repro.core.config import CsmaConfig, StationConfig


@st.composite
def admitted_scenarios(draw):
    """Random scenarios drawn from the full ScenarioConfig space.

    Spans every scenario family: saturated/unsaturated
    (homogeneous and mixed), finite/infinite retry limits,
    single/multi-stage schedules.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    stations = []
    for _ in range(n):
        stages = draw(st.integers(min_value=1, max_value=3))
        cw = tuple(
            draw(st.integers(min_value=1, max_value=32))
            for _ in range(stages)
        )
        dc = tuple(
            draw(st.integers(min_value=0, max_value=7))
            for _ in range(stages)
        )
        retry_limit = draw(
            st.one_of(st.none(), st.integers(min_value=1, max_value=3))
        )
        rate = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=20.0, max_value=1_500.0),
            )
        )
        stations.append(
            StationConfig(
                csma=CsmaConfig(cw=cw, dc=dc, retry_limit=retry_limit),
                arrival_rate_pps=rate,
                queue_capacity=draw(st.integers(min_value=1, max_value=3)),
            )
        )
    sim_time_us = float(
        draw(st.integers(min_value=2_000, max_value=25_000))
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return ScenarioConfig(
        stations=tuple(stations), sim_time_us=sim_time_us, seed=seed
    )


@settings(deadline=None, max_examples=30)
@given(admitted_scenarios())
def test_every_admitted_scenario_is_bit_exact(scenario):
    """Every scenario is per-round bit-exact between kernel and FSM."""
    scalar_records, _ = slotsim_round_records(scenario)
    batch_records, batch_results = kernel_round_records([scenario])
    assert compare_round_records(scalar_records, batch_records[0]) == []


@settings(deadline=None, max_examples=10)
@given(st.lists(admitted_scenarios(), min_size=2, max_size=4))
def test_admitted_mixed_batches_match_standalone_runs(scenarios):
    """Mixed support-matrix families in one batch stay independent."""
    batch = batch_simulate(scenarios)
    for scenario, got in zip(scenarios, batch):
        assert got == SlotSimulator(scenario).run()


def test_gate_admits_the_documented_matrix():
    """The docs' support-matrix rows, as executable claims: each runs
    on the kernel bit-exactly against ``SlotSimulator``."""
    rows = [
        # saturated, 1901 defaults
        ScenarioConfig.homogeneous(3, sim_time_us=1e5),
        # 802.11 schedule
        ScenarioConfig.homogeneous(
            2,
            csma=CsmaConfig.ieee80211(cw_min=16, max_stage=3),
            sim_time_us=1e5,
        ),
        # unsaturated Poisson arrivals
        ScenarioConfig.homogeneous(
            2, sim_time_us=1e5, arrival_rate_pps=100.0
        ),
        # finite retry limit
        ScenarioConfig.homogeneous(
            2, csma=CsmaConfig(retry_limit=3), sim_time_us=1e5
        ),
        # heterogeneous mix of all of the above
        ScenarioConfig(
            stations=(
                StationConfig(),
                StationConfig(
                    csma=CsmaConfig(retry_limit=2),
                    arrival_rate_pps=250.0,
                ),
            ),
            sim_time_us=1e5,
        ),
    ]
    for scenario in rows:
        assert batch_simulate([scenario])[0] == SlotSimulator(scenario).run()
