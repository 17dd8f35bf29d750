"""§3.3: management-message overhead and burst-size measurements.

Runs the testbed with the destination's sniffer enabled and lets
``faifa`` do its three jobs: classify captures by Link ID, rebuild
bursts from ``MPDUCnt`` and divide management bursts by data bursts.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from .procedures import warm_up
from .testbed import build_testbed

__all__ = ["MmeOverheadResult", "measure_mme_overhead"]


@dataclasses.dataclass(frozen=True)
class MmeOverheadResult:
    """Sniffer-derived per-test measurements (§3.3)."""

    num_stations: int
    duration_us: float
    data_bursts: int
    management_bursts: int
    overhead: float
    burst_size_histogram: Dict[int, int]
    #: Per-source burst counts (the fairness trace's raw material).
    bursts_per_source: Dict[int, int]


def measure_mme_overhead(
    num_stations: int,
    duration_us: float = 24e6,
    warmup_us: float = 2e6,
    seed: Optional[int] = 1,
    **testbed_kwargs,
) -> MmeOverheadResult:
    """One sniffer test: capture at D, compute the §3.3 metrics."""
    tb = build_testbed(
        num_stations, seed=seed, enable_sniffer=True, **testbed_kwargs
    )
    warm_up(tb, warmup_us)
    assert tb.faifa is not None
    tb.faifa.clear()  # §3.2-style reset at the start of the test
    start = tb.env.now
    tb.run_until(start + duration_us)

    data = tb.faifa.data_bursts()
    management = tb.faifa.management_bursts()
    per_source: Dict[int, int] = {}
    for record in data:
        if not record.collided:
            per_source[record.source_tei] = (
                per_source.get(record.source_tei, 0) + 1
            )
    return MmeOverheadResult(
        num_stations=num_stations,
        duration_us=tb.env.now - start,
        data_bursts=len(data),
        management_bursts=len(management),
        overhead=tb.faifa.mme_overhead(),
        burst_size_histogram=tb.faifa.burst_size_histogram(),
        bursts_per_source=per_source,
    )


def overhead_vs_n(
    station_counts: Sequence[int] = (1, 2, 4, 7),
    duration_us: float = 24e6,
    seed: int = 1,
) -> List[MmeOverheadResult]:
    """MME overhead across network sizes."""
    return [
        measure_mme_overhead(n, duration_us=duration_us, seed=seed)
        for n in station_counts
    ]
