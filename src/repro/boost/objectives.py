"""Objectives and theoretical bounds for configuration boosting.

The boosting problem: choose the CSMA/CA parameter vectors (cw, dc) so
the network's saturation throughput is maximized — either at a known
number of stations N, or robustly across a range of N (the practically
interesting case, since N is unknown to stations).

:func:`optimal_tau` gives the protocol-independent upper bound: the
attempt probability that maximizes the renewal throughput formula.  Any
(cw, dc) schedule whose fixed point lands near it is near-optimal.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import numpy as np

from ..core.config import TimingConfig
from ..analysis.throughput import network_prediction

__all__ = [
    "optimal_tau",
    "throughput_upper_bound",
    "Objective",
    "throughput_at_n",
    "worst_case_throughput",
    "mean_throughput",
]


def optimal_tau(num_stations: int, timing: TimingConfig) -> float:
    """Attempt probability maximizing normalized throughput at N.

    Found numerically; the classic approximation for large N is
    τ* ≈ sqrt(2σ/Tc)/N.
    """
    if num_stations < 1:
        raise ValueError("num_stations must be >= 1")
    from scipy.optimize import minimize_scalar

    def negative_throughput(tau: float) -> float:
        return -network_prediction(
            tau, num_stations, timing
        ).normalized_throughput

    result = minimize_scalar(
        negative_throughput, bounds=(1e-6, 1.0 - 1e-6), method="bounded"
    )
    return float(result.x)


def throughput_upper_bound(num_stations: int, timing: TimingConfig) -> float:
    """Best achievable normalized throughput at N over all protocols
    with the renewal structure (i.e. over all attempt probabilities)."""
    tau = optimal_tau(num_stations, timing)
    return network_prediction(tau, num_stations, timing).normalized_throughput


@dataclasses.dataclass(frozen=True)
class Objective:
    """A scalar score for a configuration, to be *maximized*.

    ``evaluate`` maps a per-N throughput curve (aligned with
    ``station_counts``) to a score.
    """

    name: str
    station_counts: Sequence[int]
    evaluate: Callable[[np.ndarray], float]


def throughput_at_n(num_stations: int) -> Objective:
    """Maximize throughput at one known network size."""
    return Objective(
        name=f"throughput@N={num_stations}",
        station_counts=(num_stations,),
        evaluate=lambda curve: float(curve[0]),
    )


def worst_case_throughput(station_counts: Sequence[int]) -> Objective:
    """Maximize the minimum throughput over a range of N (robust)."""
    counts = tuple(station_counts)
    return Objective(
        name=f"min-throughput@N∈{list(counts)}",
        station_counts=counts,
        evaluate=lambda curve: float(np.min(curve)),
    )


def mean_throughput(station_counts: Sequence[int]) -> Objective:
    """Maximize the average throughput over a range of N."""
    counts = tuple(station_counts)
    return Objective(
        name=f"mean-throughput@N∈{list(counts)}",
        station_counts=counts,
        evaluate=lambda curve: float(np.mean(curve)),
    )
