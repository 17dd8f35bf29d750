"""Batch kernel: support matrix, lifecycle, and FSM equivalence."""

import pytest

from repro.batch import BatchSlotKernel, batch_simulate
from repro.core import ScenarioConfig, SlotSimulator
from repro.core.config import CsmaConfig, StationConfig, TimingConfig
from repro.engine import RandomStreams

SIM_TIME_US = 2e5


def _grid():
    """A deliberately heterogeneous scenario mix (see tests below)."""
    return [
        ScenarioConfig.homogeneous(2, sim_time_us=SIM_TIME_US, seed=3),
        ScenarioConfig.homogeneous(5, sim_time_us=SIM_TIME_US, seed=4),
        # The boosted (CW, DC) shape from the paper's Table 2 regime.
        ScenarioConfig.homogeneous(
            3,
            csma=CsmaConfig(cw=(8, 16, 16, 32), dc=(0, 1, 3, 15)),
            sim_time_us=SIM_TIME_US,
            seed=5,
        ),
        # Single-stage schedule (constant CW).
        ScenarioConfig.homogeneous(
            4,
            csma=CsmaConfig(cw=(32,), dc=(0,)),
            sim_time_us=SIM_TIME_US,
            seed=6,
        ),
        # 802.11-style BEB without deferral expiry.
        ScenarioConfig.homogeneous(
            3,
            csma=CsmaConfig.ieee80211(cw_min=16, max_stage=4),
            sim_time_us=SIM_TIME_US,
            seed=7,
        ),
        # Different timing and a shorter horizon.
        ScenarioConfig.homogeneous(
            2,
            timing=TimingConfig(ts=1500.0, tc=1200.0, frame=1000.0),
            sim_time_us=SIM_TIME_US / 2,
            seed=8,
        ),
        # Unsaturated Poisson arrivals (PR 7's opened support matrix).
        ScenarioConfig.homogeneous(
            3,
            sim_time_us=SIM_TIME_US,
            seed=9,
            arrival_rate_pps=150.0,
        ),
        # Finite retry limit, and a mixed saturated/unsaturated point.
        ScenarioConfig.homogeneous(
            2,
            csma=CsmaConfig(retry_limit=1),
            sim_time_us=SIM_TIME_US,
            seed=10,
        ),
        ScenarioConfig(
            stations=(
                StationConfig(),
                StationConfig(
                    csma=CsmaConfig(retry_limit=2),
                    arrival_rate_pps=400.0,
                    queue_capacity=2,
                ),
            ),
            sim_time_us=SIM_TIME_US,
            seed=11,
        ),
    ]


# -- support matrix ---------------------------------------------------------
def test_unsaturated_station_is_supported():
    """PR 7 opened the gate: arrivals run on the kernel, bit-exactly."""
    scenario = ScenarioConfig(
        stations=(
            StationConfig(),
            StationConfig(arrival_rate_pps=100.0),
        ),
        sim_time_us=1e5,
    )
    assert batch_simulate([scenario])[0] == SlotSimulator(scenario).run()


def test_retry_limit_is_supported():
    scenario = ScenarioConfig.homogeneous(
        2, csma=CsmaConfig(retry_limit=5), sim_time_us=1e5
    )
    assert batch_simulate([scenario])[0] == SlotSimulator(scenario).run()


def test_saturated_default_is_supported():
    scenario = ScenarioConfig.homogeneous(3, sim_time_us=1e5)
    assert batch_simulate([scenario])[0] == SlotSimulator(scenario).run()


# -- constructor validation -------------------------------------------------
def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="at least one"):
        BatchSlotKernel([])


def test_stream_count_mismatch_rejected():
    scenarios = _grid()[:2]
    with pytest.raises(ValueError, match="stream trees"):
        BatchSlotKernel(scenarios, streams=[RandomStreams(1)])


def test_results_before_completion_raises():
    kernel = BatchSlotKernel(_grid()[:1])
    with pytest.raises(RuntimeError, match="completion"):
        kernel.results()
    kernel.advance(3)
    with pytest.raises(RuntimeError):
        kernel.results()


# -- equivalence ------------------------------------------------------------
def test_batch_matches_slot_simulator_bit_exact():
    scenarios = _grid()
    batch = batch_simulate(scenarios)
    for scenario, got in zip(scenarios, batch):
        want = SlotSimulator(scenario).run()
        assert got == want


def test_mixed_station_counts_in_one_batch():
    """Points narrower than the widest lane array stay exact."""
    scenarios = [
        ScenarioConfig.homogeneous(1, sim_time_us=1e5, seed=21),
        ScenarioConfig.homogeneous(7, sim_time_us=1e5, seed=22),
        ScenarioConfig.homogeneous(3, sim_time_us=1e5, seed=23),
    ]
    batch = batch_simulate(scenarios)
    for scenario, got in zip(scenarios, batch):
        assert got == SlotSimulator(scenario).run()
        assert len(got.stations) == scenario.num_stations


def test_explicit_streams_match_slot_simulator():
    scenario = ScenarioConfig.homogeneous(3, sim_time_us=1e5, seed=None)
    streams = RandomStreams(99)
    got = batch_simulate([scenario], streams=[streams.clone()])[0]
    want = SlotSimulator(scenario, streams=streams.clone()).run()
    assert got == want


def test_scalar_draw_fallback_is_bit_exact(monkeypatch):
    """REPRO_BATCH_SCALAR_DRAWS=1 changes speed, never numbers."""
    monkeypatch.setenv("REPRO_BATCH_SCALAR_DRAWS", "1")
    scenarios = _grid()[:3]
    batch = batch_simulate(scenarios)
    for scenario, got in zip(scenarios, batch):
        assert got == SlotSimulator(scenario).run()


# -- lifecycle --------------------------------------------------------------
def test_advance_in_slices_equals_single_run():
    scenarios = _grid()[:3]
    sliced = BatchSlotKernel(scenarios)
    while not sliced.advance(17):
        pass
    plain = BatchSlotKernel(scenarios)
    assert plain.advance(None)
    assert sliced.results() == plain.results()
    assert sliced.rounds == plain.rounds


def test_advance_reports_completion():
    kernel = BatchSlotKernel(
        [ScenarioConfig.homogeneous(2, sim_time_us=5e4, seed=1)]
    )
    assert kernel.advance(0) is False
    assert kernel.advance(None) is True
    assert kernel.finished
    # Advancing a finished kernel is a no-op.
    rounds = kernel.rounds
    assert kernel.advance(10) is True
    assert kernel.rounds == rounds


def test_shorter_points_finish_early_and_go_inert():
    short = ScenarioConfig.homogeneous(2, sim_time_us=2e4, seed=31)
    long = ScenarioConfig.homogeneous(2, sim_time_us=2e5, seed=32)
    kernel = BatchSlotKernel([short, long])
    kernel.advance(None)
    results = kernel.results()
    assert results[0] == SlotSimulator(short).run()
    assert results[1] == SlotSimulator(long).run()
    assert results[0].duration_us < results[1].duration_us
