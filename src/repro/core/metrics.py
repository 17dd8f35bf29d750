"""Performance metrics computed from simulation results and traces.

Covers the quantities the paper and its companion studies report:

- collision probability and normalized throughput (definitions match
  the reference simulator; exposed on ``SimulationResult`` and
  recomputable here from raw counters);
- Jain's fairness index, long- and short-term (the short-term variant
  over sliding windows of transmission opportunities exposes the
  1901 unfairness shown in Figure 1);
- run lengths of consecutive wins by the same station (channel-capture
  bursts);
- inter-success times and access-delay statistics.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

__all__ = [
    "RunnerCounters",
    "collision_probability",
    "normalized_throughput",
    "jain_index",
    "windowed_jain",
    "short_term_fairness",
    "win_run_lengths",
    "capture_probability",
    "inter_success_times",
    "DelayStats",
    "delay_stats",
]


@dataclasses.dataclass
class RunnerCounters:
    """Progress/timing counters of an experiment runner.

    Updated by :class:`repro.runner.ExperimentRunner` across its
    lifetime; the cache-effectiveness counters are what the
    reproducibility tests assert on (a warm second run must show
    ``executed == 0``).  The fault counters (``retried``, ``failed``,
    ``timeouts``, ``pool_rebuilds``) stay truthful even when a run
    aborts mid-sweep — finalization happens in the runner's
    ``finally`` block.
    """

    #: Points requested across all ``run()`` calls.
    points_total: int = 0
    #: Points actually executed (i.e. `simulate()`/model/testbed calls
    #: that ran, instead of being served from the cache).
    executed: int = 0
    #: Points answered from the on-disk cache.
    cache_hits: int = 0
    #: Points not found in the cache (== executed when caching is on).
    cache_misses: int = 0
    #: Cache entries found corrupted/truncated and recomputed.
    cache_corrupt: int = 0
    #: Task attempts retried after a failure, crash, or timeout.
    retried: int = 0
    #: Tasks that failed permanently (retries exhausted).
    failed: int = 0
    #: Task attempts killed by the per-task wall-clock timeout.
    timeouts: int = 0
    #: Workers replaced after one exited or overran ``task_timeout_s``
    #: (the name predates per-worker replacement).
    pool_rebuilds: int = 0
    #: Times a remote sweep fell back to local execution because every
    #: service host was unreachable (the HTTP client's graceful path).
    degraded_local: int = 0
    #: Wall-clock seconds spent inside ``run()`` calls.
    wall_time_s: float = 0.0
    #: Worker processes used by the most recent ``run()`` call.
    workers: int = 1

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)

    def reset(self) -> None:
        """Zero every counter (e.g. between cold/warm cache phases)."""
        fresh = RunnerCounters()
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(fresh, field.name))


def collision_probability(collided: float, acknowledged: float) -> float:
    """ΣC / ΣA as in §3.2 (``acknowledged`` includes collided frames).

    The denominator convention follows the testbed: HomePlug AV
    destinations acknowledge collided frames with an all-errored
    indication, so the acknowledgment count ΣA already contains the
    collided frames and the ratio is C / (C + S).
    """
    if acknowledged <= 0:
        return 0.0
    return collided / acknowledged


def normalized_throughput(
    successes: int, frame_us: float, duration_us: float
) -> float:
    """Fraction of airtime carrying useful frame payload."""
    if duration_us <= 0:
        return 0.0
    return successes * frame_us / duration_us


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index: (Σx)² / (n · Σx²); 1 means perfectly fair."""
    x = np.asarray(list(shares), dtype=float)
    if x.size == 0:
        raise ValueError("jain_index needs at least one share")
    if np.any(x < 0):
        raise ValueError("shares must be non-negative")
    peak = x.max()
    if peak == 0:
        return 1.0
    # Normalize by the largest share first: the index is scale
    # invariant and this keeps x**2 away from under/overflow.
    x = x / peak
    total = x.sum()
    return float(total**2 / (x.size * (x**2).sum()))


def windowed_jain(
    winners: Sequence[int], num_stations: int, window: int
) -> np.ndarray:
    """Jain index over sliding windows of the winner sequence.

    Each window of ``window`` consecutive successful transmissions is
    scored by how evenly the wins are spread across stations.  This is
    the standard short-term fairness measure used in [4].
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    seq = np.asarray(list(winners), dtype=int)
    if seq.size < window:
        return np.empty(0)
    values = np.empty(seq.size - window + 1)
    counts = np.bincount(seq[:window], minlength=num_stations).astype(float)
    values[0] = jain_index(counts)
    for start in range(1, seq.size - window + 1):
        counts[seq[start - 1]] -= 1
        counts[seq[start + window - 1]] += 1
        values[start] = jain_index(counts)
    return values


def short_term_fairness(
    winners: Sequence[int], num_stations: int, window: Optional[int] = None
) -> float:
    """Mean sliding-window Jain index (window defaults to ``10 * N``)."""
    if window is None:
        window = 10 * num_stations
    values = windowed_jain(winners, num_stations, window)
    if values.size == 0:
        return float("nan")
    return float(values.mean())


def win_run_lengths(winners: Sequence[int]) -> List[int]:
    """Lengths of runs of consecutive wins by the same station.

    Long runs are the signature of 1901's short-term unfairness: the
    winner restarts at stage 0 (CW=8) while losers climb to larger CWs
    (Figure 1's caption).
    """
    runs: List[int] = []
    current = None
    length = 0
    for winner in winners:
        if winner == current:
            length += 1
        else:
            if current is not None:
                runs.append(length)
            current = winner
            length = 1
    if current is not None:
        runs.append(length)
    return runs


def capture_probability(winners: Sequence[int]) -> float:
    """P(next success is by the same station as the previous one)."""
    seq = list(winners)
    if len(seq) < 2:
        return float("nan")
    repeats = sum(1 for a, b in zip(seq, seq[1:]) if a == b)
    return repeats / (len(seq) - 1)


def inter_success_times(
    success_times_us: Sequence[float],
) -> np.ndarray:
    """Gaps between consecutive successes (µs) — service regularity.

    For a single station's timestamps this is its inter-service time
    (whose spread quantifies the capture effect: long droughts while
    another station holds the channel); for the network-wide sequence
    it is the channel's inter-departure time.

    >>> inter_success_times([0.0, 10.0, 25.0]).tolist()
    [10.0, 15.0]
    """
    times = np.asarray(list(success_times_us), dtype=float)
    if times.size < 2:
        return np.empty(0)
    if np.any(np.diff(times) < 0):
        raise ValueError("success times must be non-decreasing")
    return np.diff(times)


@dataclasses.dataclass(frozen=True)
class DelayStats:
    """Summary statistics of MAC access delays (µs)."""

    mean: float
    std: float
    median: float
    p95: float
    p99: float
    maximum: float
    count: int

    def as_dict(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def delay_stats(delays_us: Sequence[float]) -> DelayStats:
    """Compute :class:`DelayStats` from raw per-frame delays.

    Degenerate input yields NaN statistics with ``count=0``, consistent
    with :func:`short_term_fairness` / :func:`capture_probability`
    returning NaN rather than raising:

    >>> empty = delay_stats([])
    >>> empty.count
    0
    >>> import math
    >>> math.isnan(empty.mean) and math.isnan(empty.p99)
    True
    """
    d = np.asarray(list(delays_us), dtype=float)
    if d.size == 0:
        nan = float("nan")
        return DelayStats(
            mean=nan,
            std=nan,
            median=nan,
            p95=nan,
            p99=nan,
            maximum=nan,
            count=0,
        )
    return DelayStats(
        mean=float(d.mean()),
        std=float(d.std(ddof=0)),
        median=float(np.median(d)),
        p95=float(np.percentile(d, 95)),
        p99=float(np.percentile(d, 99)),
        maximum=float(d.max()),
        count=int(d.size),
    )
