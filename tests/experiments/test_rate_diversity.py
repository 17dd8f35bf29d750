"""Tests for the rate-diversity (CSMA airtime anomaly) experiment."""

import pytest

from repro.experiments.rate_diversity import (
    anomaly_sweep,
    rate_diversity_experiment,
)


def test_baseline_homogeneous_and_fair():
    result = rate_diversity_experiment(
        num_stations=3, slow_snr_db=None, duration_us=6e6
    )
    counts = list(result.frames_per_station.values())
    assert min(counts) / max(counts) > 0.8
    assert result.goodput_mbps > 15.0
    assert result.slow_link_rate_mbps is None


def test_slow_outlet_drags_everyone():
    baseline = rate_diversity_experiment(3, None, duration_us=6e6)
    degraded = rate_diversity_experiment(3, 3.0, duration_us=6e6)
    # Aggregate goodput drops...
    assert degraded.goodput_mbps < baseline.goodput_mbps * 0.8
    # ...while transmission opportunities stay roughly equal (the
    # anomaly: equal frames, unequal airtime).
    counts = list(degraded.frames_per_station.values())
    assert min(counts) / max(counts) > 0.75
    assert degraded.slow_link_rate_mbps == pytest.approx(13.43, abs=0.1)


def test_fast_stations_also_lose():
    """The defining symptom: *other* stations' frame counts drop too."""
    baseline = rate_diversity_experiment(3, None, duration_us=6e6)
    degraded = rate_diversity_experiment(3, 3.0, duration_us=6e6)
    fast_macs = list(baseline.frames_per_station)[1:]
    for mac in fast_macs:
        assert (
            degraded.frames_per_station[mac]
            < baseline.frames_per_station[mac]
        )


def test_anomaly_sweep_monotone():
    results = anomaly_sweep(snrs=(None, 12.0, 3.0), duration_us=6e6)
    goodputs = [r.goodput_mbps for r in results]
    assert goodputs[0] > goodputs[1] > goodputs[2]


def test_airtime_share_exposes_the_anomaly():
    """Equal opportunities, unequal airtime: the slow station's share
    of busy airtime far exceeds 1/N while its frame share stays ~1/N."""
    degraded = rate_diversity_experiment(3, 3.0, duration_us=6e6)
    slow_mac = list(degraded.frames_per_station)[0]
    slow_airtime = degraded.airtime_share[slow_mac]
    others = [
        share for mac, share in degraded.airtime_share.items()
        if mac != slow_mac
    ]
    assert slow_airtime > 2 * max(others)
    assert slow_airtime > 0.5  # one of three stations takes most airtime
    # Frame share stays near 1/3 nonetheless.
    total_frames = sum(degraded.frames_per_station.values())
    assert degraded.frames_per_station[slow_mac] / total_frames < 0.45


def test_baseline_airtime_split_evenly():
    baseline = rate_diversity_experiment(3, None, duration_us=6e6)
    shares = list(baseline.airtime_share.values())
    assert max(shares) - min(shares) < 0.1


def test_airtime_share_is_of_the_window_only():
    """Airtime shares cover the test window, as frames and goodput do.

    Station 0's outlet degrades after the warm-up, so counting the
    warm-up's airtime (the coordinator's cumulative log) dilutes its
    share: 0.618 instead of the window's 0.723.
    """
    degraded = rate_diversity_experiment(3, 3.0, duration_us=4e6)
    shares = list(degraded.airtime_share.values())
    assert shares[0] == pytest.approx(0.7226, abs=1e-3)
    assert shares[1:] == pytest.approx([0.1407, 0.1314], abs=1e-3)
