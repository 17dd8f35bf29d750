"""CW/DC tradeoff exploration (the paper's §2 motivation, quantified).

The paper's background section describes the core tradeoff: a large CW
means few collisions but wasted backoff slots; a small CW means backoff
efficiency but frequent collisions.  1901 resolves it by keeping CW
small and letting the *deferral counter* raise CW preemptively when the
medium is sensed busy often.

This module produces the ablation curves that make the argument
quantitative:

- :func:`cw_sweep` — single-stage protocols across CW (no deferral, no
  escalation): the raw tradeoff frontier;
- :func:`dc_sweep` — the standard CW ladder with scaled deferral
  counters, from hair-trigger (all zeros) to effectively disabled: how
  aggressive preemptive escalation should be;
- :func:`deferral_ablation` — 1901 default vs. the same windows with
  deferral disabled (pure-BEB), the headline ablation.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.model import Model1901
from ..core.config import CsmaConfig, TimingConfig
from ..runner import ExperimentRunner, Task, TaskKind
from ..runner.serialize import csma_to_jsonable, timing_to_jsonable

__all__ = [
    "TradeoffPoint",
    "cw_sweep",
    "dc_sweep",
    "deferral_ablation",
    "scale_deferral",
    "disable_deferral",
]


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    """Model outputs for one configuration at one network size."""

    label: str
    config: CsmaConfig
    num_stations: int
    collision_probability: float
    normalized_throughput: float
    tau: float


def _point(
    label: str, config: CsmaConfig, n: int, timing: TimingConfig
) -> TradeoffPoint:
    prediction = Model1901(config, timing, method="recursive").solve(n)
    return TradeoffPoint(
        label=label,
        config=config,
        num_stations=n,
        collision_probability=prediction.collision_probability,
        normalized_throughput=prediction.normalized_throughput,
        tau=prediction.tau,
    )


def _model_curves(
    labeled: Sequence[Tuple[str, CsmaConfig]],
    station_counts: Sequence[int],
    timing: TimingConfig,
    runner: Optional[ExperimentRunner],
) -> Dict[int, List[TradeoffPoint]]:
    """One ``model_curve`` task per configuration, through the runner.

    Returns ``{config position: [TradeoffPoint per N]}`` so callers can
    reassemble their historical point orderings.
    """
    runner = runner if runner is not None else ExperimentRunner()
    counts = [int(n) for n in station_counts]
    tasks = [
        Task(
            kind=TaskKind.MODEL_CURVE,
            payload={
                "csma": csma_to_jsonable(config),
                "timing": timing_to_jsonable(timing),
                "station_counts": counts,
            },
        )
        for _label, config in labeled
    ]
    curves = {}
    for i, ((label, config), curve) in enumerate(
        zip(labeled, runner.run(tasks))
    ):
        curves[i] = [
            TradeoffPoint(
                label=label,
                config=config,
                num_stations=p["num_stations"],
                collision_probability=p["collision_probability"],
                normalized_throughput=p["normalized_throughput"],
                tau=p["tau"],
            )
            for p in curve["points"]
        ]
    return curves


def scale_deferral(config: CsmaConfig, factor: float) -> CsmaConfig:
    """Scale all deferral counters by ``factor`` (rounded down)."""
    if factor < 0:
        raise ValueError("factor must be >= 0")
    return CsmaConfig(
        cw=config.cw,
        dc=tuple(int(d * factor) for d in config.dc),
        protocol=config.protocol,
        retry_limit=config.retry_limit,
    )


def disable_deferral(config: CsmaConfig) -> CsmaConfig:
    """Make every deferral counter non-expiring (pure BEB behaviour).

    A deferral counter equal to the stage's window can never be
    exhausted before the backoff counter (at most ``cw − 1`` busy slots
    can precede expiry), so jumps never fire.
    """
    return CsmaConfig(
        cw=config.cw,
        dc=tuple(config.cw),
        protocol=config.protocol,
        retry_limit=config.retry_limit,
    )


def cw_sweep(
    station_counts: Sequence[int],
    cw_values: Sequence[int] = (4, 8, 16, 32, 64, 128, 256),
    timing: Optional[TimingConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[TradeoffPoint]:
    """Single-stage fixed-CW protocols: the raw CW tradeoff."""
    timing = timing if timing is not None else TimingConfig()
    labeled = [
        (f"CW={w}", CsmaConfig(cw=(w,), dc=(0,))) for w in cw_values
    ]
    curves = _model_curves(labeled, station_counts, timing, runner)
    return [p for i in range(len(labeled)) for p in curves[i]]


def dc_sweep(
    station_counts: Sequence[int],
    factors: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    base: Optional[CsmaConfig] = None,
    timing: Optional[TimingConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[TradeoffPoint]:
    """Scale the default deferral ladder up and down."""
    timing = timing if timing is not None else TimingConfig()
    base = base if base is not None else CsmaConfig.default_1901()
    labeled = [
        (f"dc×{factor:g}", scale_deferral(base, factor))
        for factor in factors
    ]
    curves = _model_curves(labeled, station_counts, timing, runner)
    return [p for i in range(len(labeled)) for p in curves[i]]


def deferral_ablation(
    station_counts: Sequence[int],
    timing: Optional[TimingConfig] = None,
    runner: Optional[ExperimentRunner] = None,
) -> List[TradeoffPoint]:
    """1901 default vs. identical windows with deferral disabled."""
    timing = timing if timing is not None else TimingConfig()
    default = CsmaConfig.default_1901()
    beb = disable_deferral(default)
    labeled = [
        ("1901 (with DC)", default),
        ("same CWs, no DC", beb),
    ]
    curves = _model_curves(labeled, station_counts, timing, runner)
    # Historical point order: N-major, default before BEB at each N.
    points = []
    for j in range(len(station_counts)):
        points.append(curves[0][j])
        points.append(curves[1][j])
    return points
