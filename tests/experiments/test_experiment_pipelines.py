"""Tests for the Figure 2 / Table 2 / overhead / fairness pipelines."""

import math

import pytest

from repro.experiments.collision_probability import figure2_data, table2_data
from repro.experiments.fairness import (
    fairness_by_simulation,
    fairness_by_testbed,
)
from repro.experiments.mme_overhead import measure_mme_overhead
from repro.experiments.sweeps import standard_protocol_sweep


class TestFigure2:
    def test_three_curves_consistent_shape(self):
        points = figure2_data(
            station_counts=(1, 3, 5),
            test_duration_us=6e6,
            test_repetitions=1,
            sim_time_us=1e7,
            sim_repetitions=1,
        )
        assert [p.num_stations for p in points] == [1, 3, 5]
        # All three estimates grow with N.
        for attr in ("measured", "simulated", "analytical"):
            series = [getattr(p, attr) for p in points]
            assert series[0] < series[1] < series[2] or series[0] == 0.0

    def test_measurement_close_to_simulation(self):
        points = figure2_data(
            station_counts=(3,),
            test_duration_us=20e6,
            test_repetitions=2,
            sim_time_us=2e7,
            sim_repetitions=2,
        )
        p = points[0]
        assert p.measured == pytest.approx(p.simulated, abs=0.03)

    def test_n1_is_zero_everywhere(self):
        points = figure2_data(
            station_counts=(1,),
            test_duration_us=4e6,
            test_repetitions=1,
            sim_time_us=4e6,
        )
        assert points[0].measured == 0.0
        assert points[0].simulated == 0.0
        assert points[0].analytical == 0.0


class TestTable2:
    def test_rows_have_paper_magnitudes_when_scaled(self):
        rows = table2_data(station_counts=(2,), duration_us=24e6, seed=1)
        row = rows[0]
        # Scaled to the paper's 240 s this is ~160k acked MPDUs.
        assert row.sum_acked * 10 == pytest.approx(162020, rel=0.10)
        assert 0.05 < row.collision_probability < 0.12


class TestMmeOverhead:
    def test_result_fields(self):
        result = measure_mme_overhead(2, duration_us=6e6, seed=1)
        assert result.data_bursts > 0
        assert result.management_bursts > 0
        assert result.overhead == pytest.approx(
            result.management_bursts / result.data_bursts
        )
        assert 2 in result.burst_size_histogram  # §3.1's burst size
        assert len(result.bursts_per_source) == 2

    def test_overhead_is_small(self):
        result = measure_mme_overhead(3, duration_us=10e6, seed=1)
        assert result.overhead < 0.2


class TestFairness:
    def test_1901_less_short_term_fair_than_80211(self):
        results = fairness_by_simulation(
            station_counts=(2,), sim_time_us=1e7
        )
        plc = next(r for r in results if r.label.startswith("1901"))
        wifi = next(r for r in results if r.label.startswith("802.11"))
        assert plc.short_term_jain < wifi.short_term_jain
        assert plc.capture_probability > wifi.capture_probability
        assert plc.mean_run_length > wifi.mean_run_length

    def test_long_term_fairness_high_for_both(self):
        results = fairness_by_simulation(
            station_counts=(2,), sim_time_us=1e7
        )
        for result in results:
            assert result.long_term_jain > 0.99

    def test_testbed_fairness_matches_simulation_trend(self):
        result = fairness_by_testbed(2, duration_us=10e6, seed=1)
        assert result.num_stations == 2
        assert result.long_term_jain > 0.95
        assert result.capture_probability > 0.5  # 1901 channel capture


class TestShortWarmUp:
    """Stations associate between 10 and 50 ms in, so a 10 ms warm-up
    ends before association; the §3.2 warm-up extends it, and only the
    stations' TEIs (D, the CCo, is TEI 1) are scored — never the
    unassociated TEI 0."""

    def test_fairness_scores_only_the_stations(self):
        result = fairness_by_testbed(
            3, duration_us=2e6, warmup_us=1e4, seed=1
        )
        assert result.num_stations == 3

    def test_mme_overhead_counts_only_the_stations(self):
        result = measure_mme_overhead(
            3, duration_us=2e6, warmup_us=1e4, seed=1
        )
        assert sorted(result.bursts_per_source) == [2, 3, 4]


class TestProtocolSweep:
    def test_sweep_labels(self):
        series = standard_protocol_sweep(
            station_counts=(1, 5), sim_time_us=2e6, repetitions=1
        )
        assert set(series) == {"1901 CA1", "1901 CA3", "802.11 DCF"}

    def test_1901_beats_80211_at_small_n(self):
        """The paper's motivation: 1901's small CW0 wins at low N."""
        series = standard_protocol_sweep(
            station_counts=(2,), sim_time_us=5e6, repetitions=2
        )
        plc = series["1901 CA1"][0]
        wifi = series["802.11 DCF"][0]
        assert plc.sim_throughput > wifi.sim_throughput

    def test_model_tracks_simulation(self):
        series = standard_protocol_sweep(
            station_counts=(5,), sim_time_us=5e6, repetitions=2
        )
        for label, points in series.items():
            point = points[0]
            assert point.model_throughput == pytest.approx(
                point.sim_throughput, rel=0.08
            ), label


class TestJainVsWindow:
    def test_curves_rise_to_one(self):
        from repro.experiments.fairness import jain_vs_window

        curves = jain_vs_window(
            num_stations=2, windows=(2, 10, 50, 200), sim_time_us=2e7
        )
        for label, points in curves.items():
            values = [v for _w, v in points]
            # Non-decreasing towards long-term fairness.
            assert values[-1] > 0.95, label
            assert values[-1] >= values[0], label

    def test_1901_needs_larger_window_to_look_fair(self):
        from repro.experiments.fairness import jain_vs_window

        curves = jain_vs_window(
            num_stations=2, windows=(5, 10, 20), sim_time_us=2e7
        )
        plc = dict(curves["1901 CA1"])
        wifi = dict(curves["802.11 DCF"])
        for window in (5, 10, 20):
            assert plc[window] < wifi[window]
