"""Fairness experiments: 1901 vs. 802.11, long- and short-term ([4]).

Two measurement paths, mirroring the paper's toolchain:

- **simulator traces** — the slot simulator's winner sequence scored
  with Jain's index over sliding windows (short-term) and over the
  whole run (long-term), plus the channel-capture probability that
  Figure 1 illustrates;
- **testbed traces** — faifa's burst-level source trace captured at D
  (§3.3's method, used by [4]).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..core.config import CsmaConfig, ScenarioConfig, TimingConfig
from ..core.metrics import (
    capture_probability,
    jain_index,
    short_term_fairness,
    win_run_lengths,
)
from ..core.simulator import SlotSimulator

__all__ = [
    "FairnessResult",
    "fairness_by_simulation",
    "fairness_by_testbed",
    "jain_vs_window",
]


@dataclasses.dataclass(frozen=True)
class FairnessResult:
    """Fairness metrics of one protocol at one network size."""

    label: str
    num_stations: int
    long_term_jain: float
    short_term_jain: float
    capture_probability: float
    mean_run_length: float
    max_run_length: int


def _result_from_winners(
    label: str, num_stations: int, winners: Sequence[int], counts: Sequence[int]
) -> FairnessResult:
    runs = win_run_lengths(winners)
    return FairnessResult(
        label=label,
        num_stations=num_stations,
        long_term_jain=jain_index(counts),
        short_term_jain=short_term_fairness(winners, num_stations),
        capture_probability=capture_probability(winners),
        mean_run_length=(sum(runs) / len(runs)) if runs else float("nan"),
        max_run_length=max(runs) if runs else 0,
    )


def fairness_by_simulation(
    station_counts: Sequence[int] = (2, 3, 5, 10),
    sim_time_us: float = 5e7,
    seed: int = 1,
    timing: Optional[TimingConfig] = None,
    runner=None,
) -> List[FairnessResult]:
    """1901 default vs. 802.11 DCF fairness from simulator traces.

    All ``(N, protocol)`` scenarios run through a
    :class:`repro.runner.ExperimentRunner` as one batch with the winner
    sequences recorded, so the fairness study parallelizes and caches
    like every other experiment family.  Seeds derive from ``(seed,
    scenario position, 0)`` per the runner's determinism contract.
    """
    from ..runner import ExperimentRunner

    timing = timing if timing is not None else TimingConfig()
    runner = runner if runner is not None else ExperimentRunner()
    protocols = [
        ("1901 CA1", CsmaConfig.default_1901()),
        ("802.11 DCF", CsmaConfig.ieee80211()),
    ]
    labeled = [
        (label, n, config)
        for n in station_counts
        for label, config in protocols
    ]
    scenarios = [
        ScenarioConfig.homogeneous(
            num_stations=n,
            csma=config,
            timing=timing,
            sim_time_us=sim_time_us,
            seed=seed,
        )
        for _label, n, config in labeled
    ]
    grouped = runner.run_scenarios(
        scenarios, root_seed=seed, repetitions=1, record_winners=True
    )
    results = []
    for (label, n, _config), group in zip(labeled, grouped):
        point = group[0]
        counts = [s.successes for s in point.result.stations]
        results.append(
            _result_from_winners(label, n, list(point.winners), counts)
        )
    return results


def jain_vs_window(
    num_stations: int = 2,
    windows: Sequence[int] = (2, 5, 10, 20, 50, 100, 200),
    sim_time_us: float = 5e7,
    seed: int = 1,
) -> dict:
    """[4]'s signature plot: sliding-window Jain index vs window size.

    Returns ``{protocol label: [(window, mean Jain), ...]}``.  Both
    protocols converge to 1 for large windows (long-term fairness);
    1901's curve rises much more slowly — its unfairness horizon (the
    window needed to look fair) is an order of magnitude longer.
    """
    from ..core.metrics import windowed_jain

    curves = {}
    for label, config in (
        ("1901 CA1", CsmaConfig.default_1901()),
        ("802.11 DCF", CsmaConfig.ieee80211()),
    ):
        scenario = ScenarioConfig.homogeneous(
            num_stations=num_stations,
            csma=config,
            sim_time_us=sim_time_us,
            seed=seed,
        )
        result = SlotSimulator(scenario, record_trace=True).run()
        winners = result.trace.winners()
        points = []
        for window in windows:
            values = windowed_jain(winners, num_stations, window)
            if values.size:
                points.append((window, float(values.mean())))
        curves[label] = points
    return curves


def fairness_by_testbed(
    num_stations: int,
    duration_us: float = 24e6,
    warmup_us: float = 2e6,
    seed: int = 1,
) -> FairnessResult:
    """Burst-level fairness from the emulated testbed's sniffer trace.

    This is exactly the [4] methodology: capture SoF delimiters at D,
    rebuild bursts, and score the time-ordered sequence of burst
    sources.
    """
    from .procedures import warm_up
    from .testbed import build_testbed

    tb = build_testbed(num_stations, seed=seed, enable_sniffer=True)
    warm_up(tb, warmup_us)
    assert tb.faifa is not None
    tb.faifa.clear()
    tb.run_until(tb.env.now + duration_us)
    winners = [tei for _t, tei in tb.faifa.source_trace()]
    station_teis = sorted(set(winners))
    index_of = {tei: i for i, tei in enumerate(station_teis)}
    winner_idx = [index_of[tei] for tei in winners]
    counts = [0] * len(station_teis)
    for w in winner_idx:
        counts[w] += 1
    return _result_from_winners(
        f"testbed N={num_stations}", len(station_teis), winner_idx, counts
    )
