"""Golden regression: Table 2 and ``sim_1901`` pinned bit-for-bit.

The values below were generated from the seed implementation (serial,
pre-runner) at fixed seeds.  The parallel runner, its seeding layer and
the on-disk cache must reproduce them exactly — any drift means the
physics changed, which the reproduction cannot silently absorb.  Every
execution path is held to them by ``test_conformance.py``.

Tolerances are ≤1e-9; the counter columns are exact integers.
"""

import pytest

from repro.batch import batch_simulate
from repro.core.config import CsmaConfig, ScenarioConfig, TimingConfig
from repro.core.simulator import sim_1901
from repro.experiments.collision_probability import table2_data

#: table2_data(station_counts=(1, 2, 3), duration_us=4e6, seed=7) from
#: the seed implementation: (N, ΣC_i, ΣA_i).
GOLDEN_TABLE2 = [
    (1, 0, 2546),
    (2, 248, 2700),
    (3, 384, 2790),
]
GOLDEN_COLLISION_PROBS = [0.0, 0.09185185185185185, 0.13763440860215054]

#: sim_1901(n, 2e6, 2542.64, 2920.64, 2050.0, [8,16,32,64],
#: [0,1,3,15], seed=11) -> (collision_pr, norm_throughput).
GOLDEN_SIM_1901 = {
    2: (0.08658008658008658, 0.648701746668117),
    5: (0.24093264248704663, 0.6000256852749772),
}


def _assert_table2(rows):
    assert [
        (row.num_stations, row.sum_collided, row.sum_acked) for row in rows
    ] == GOLDEN_TABLE2
    for row, expected in zip(rows, GOLDEN_COLLISION_PROBS):
        assert row.collision_probability == pytest.approx(
            expected, abs=1e-9
        )


def test_table2_serial_matches_golden():
    _assert_table2(table2_data(station_counts=(1, 2, 3), duration_us=4e6,
                               seed=7))


@pytest.mark.parametrize("n", sorted(GOLDEN_SIM_1901))
def test_sim_1901_matches_golden(n):
    collision_pr, throughput = sim_1901(
        n, 2e6, 2542.64, 2920.64, 2050.0, [8, 16, 32, 64], [0, 1, 3, 15],
        seed=11,
    )
    golden_p, golden_s = GOLDEN_SIM_1901[n]
    assert collision_pr == pytest.approx(golden_p, abs=1e-9)
    assert throughput == pytest.approx(golden_s, abs=1e-9)


def _sim_1901_scenario(n):
    """The exact scenario ``sim_1901`` builds for the golden pins."""
    return ScenarioConfig.homogeneous(
        num_stations=n,
        csma=CsmaConfig(cw=(8, 16, 32, 64), dc=(0, 1, 3, 15)),
        timing=TimingConfig(ts=2920.64, tc=2542.64, frame=2050.0),
        sim_time_us=2e6,
        seed=11,
    )


def test_batch_kernel_matches_sim_1901_golden():
    """The batch kernel reproduces the ``sim_1901`` pins *bit-exactly*.

    The kernel defaults to the same ``RandomStreams(scenario.seed)``
    trees the slot simulator uses, so the golden values must come out
    identical — not just within tolerance — and both points ride in a
    single mixed-N batch.
    """
    counts = sorted(GOLDEN_SIM_1901)
    results = batch_simulate([_sim_1901_scenario(n) for n in counts])
    for n, result in zip(counts, results):
        golden_p, golden_s = GOLDEN_SIM_1901[n]
        assert result.collision_probability == pytest.approx(
            golden_p, abs=1e-9
        )
        assert result.normalized_throughput == pytest.approx(
            golden_s, abs=1e-9
        )


def test_batch_kernel_agrees_with_table2_testbed_pins():
    """Kernel distributions vs the event-driven §3.2 testbed goldens.

    The testbed is a different engine (MMEs, bursts, SACKs) with a
    different draw order, so the comparison is distributional: the
    slot-model collision probability must land near the pinned testbed
    estimate at every Table 2 point, exactly at the degenerate N=1
    point, and the saturated symmetric scenarios must stay fair.
    """
    counts = [1, 2, 3]
    results = batch_simulate(
        [
            ScenarioConfig.homogeneous(
                num_stations=n, sim_time_us=4e6, seed=7
            )
            for n in counts
        ]
    )
    for result, golden_p in zip(results, GOLDEN_COLLISION_PROBS):
        if golden_p == 0.0:
            assert result.collision_probability == 0.0
        else:
            assert result.collision_probability == pytest.approx(
                golden_p, abs=0.05
            )
        assert result.successes > 1000
        assert result.jain_fairness() > 0.97
