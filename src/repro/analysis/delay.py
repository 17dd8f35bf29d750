"""MAC access-delay analysis under the decoupling approximation.

Beyond the mean delay in :mod:`repro.analysis.throughput`, this module
derives the *distribution* of the head-of-line access delay of a
saturated 1901 station:

- per stage visit, the number of slot events is a mixture (transmit
  after ``b`` backoff events, or jump at the (d+1)-th busy event); the
  stage recursion gives its first two moments;
- a frame's service completes after a geometric-like number of stage
  visits (success with probability ``x_s (1-γ)`` per visit);
- slot events convert to time with the renewal event-duration mix
  (idle slot σ w.p. 1-P_tr, success Ts, collision Tc).

The model returns mean, standard deviation and percentile estimates
(via a Gamma fit to the first two moments — the event-count
distribution is a geometric compound, well approximated by a Gamma for
the percentile range the paper's delay discussions care about), and a
Monte-Carlo path for exact validation in tests.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ..core.config import CsmaConfig, TimingConfig
from .fixed_point import (
    ConvergenceError,
    gamma_from_tau,
    solve_fixed_point,
)
from .recursive import RecursiveModel, jump_pmf, stage_quantities
from .throughput import network_prediction

__all__ = ["DelayPrediction", "DelayModel"]


@dataclasses.dataclass(frozen=True)
class DelayPrediction:
    """Access-delay statistics of one saturated station (µs)."""

    num_stations: int
    mean_us: float
    std_us: float
    p50_us: float
    p95_us: float
    p99_us: float
    #: Mean number of slot events from head-of-line to success.
    mean_events: float
    #: Mean duration of one slot event (µs).
    event_duration_us: float


def _stage_event_moments(
    window: int, deferral: int, busy_probability: float
) -> Tuple[float, float]:
    """(E[K], E[K²]) of the slot events K spent in one stage visit."""
    w, d, p = window, deferral, busy_probability
    if p < 1e-12:
        ks = np.arange(w) + 1.0  # b + 1 events, b uniform
        return float(ks.mean()), float((ks**2).mean())
    bs = np.arange(w)
    q = jump_pmf(w, d, p)
    jump_cdf = np.cumsum(q)
    attempt_given_b = 1.0 - jump_cdf[bs]
    first = (bs + 1.0) * attempt_given_b + np.cumsum(np.arange(w) * q)[bs]
    second = (bs + 1.0) ** 2 * attempt_given_b + np.cumsum(
        np.arange(w) ** 2.0 * q
    )[bs]
    return float(first.mean()), float(second.mean())


class DelayModel:
    """Access-delay model for N saturated homogeneous 1901 stations."""

    def __init__(
        self,
        config: Optional[CsmaConfig] = None,
        timing: Optional[TimingConfig] = None,
    ) -> None:
        self.config = config if config is not None else CsmaConfig.default_1901()
        self.timing = timing if timing is not None else TimingConfig()
        self._recursive = RecursiveModel(self.config)

    # -- event-count moments ---------------------------------------------
    def service_event_moments(self, gamma: float) -> Tuple[float, float]:
        """(mean, variance) of slot events until a frame's success.

        Computed by absorbing-chain first/second moments over the stage
        process: from stage ``s`` a visit consumes K_s events, then
        moves to stage 0' (absorbed: success) w.p. x_s(1-γ), else to
        min(s+1, m-1).
        """
        m = self.config.num_stages
        table = [
            stage_quantities(w, d, gamma)
            for w, d in zip(self.config.cw, self.config.dc)
        ]
        moments = [
            _stage_event_moments(w, d, gamma)
            for w, d in zip(self.config.cw, self.config.dc)
        ]
        # E_s = E[K_s] + (1 - a_s) E_next,   a_s = x_s (1-γ)
        # Second moments via E[(K_s + T_next·1{go on})²].
        means = [0.0] * m
        seconds = [0.0] * m
        # Solve backwards; the last stage is self-referential.
        for s in reversed(range(m)):
            x = table[s].attempt_probability
            absorb = x * (1.0 - gamma)
            ek, ek2 = moments[s]
            nxt = min(s + 1, m - 1)
            if nxt == s:
                # T = K + B·T' with B ~ Bernoulli(1-absorb), T' iid T.
                if absorb <= 0:
                    means[s] = float("inf")
                    seconds[s] = float("inf")
                    continue
                mean_s = ek / absorb
                # E[T²] = E[K²] + 2(1-a)E[K]E[T] + (1-a)E[T²]
                seconds[s] = (
                    ek2 + 2 * (1 - absorb) * ek * mean_s
                ) / absorb
                means[s] = mean_s
            else:
                mean_next = means[nxt]
                second_next = seconds[nxt]
                means[s] = ek + (1 - absorb) * mean_next
                seconds[s] = (
                    ek2
                    + 2 * (1 - absorb) * ek * mean_next
                    + (1 - absorb) * second_next
                )
        mean = means[0]
        variance = max(seconds[0] - mean**2, 0.0)
        return mean, variance

    # -- the public prediction ---------------------------------------------
    def solve(self, num_stations: int) -> DelayPrediction:
        """Delay statistics at the decoupling operating point.

        Raises :class:`ConvergenceError` (annotated with the model and
        ``N``) if the solver cannot find the operating point.
        """
        try:
            tau = solve_fixed_point(self._recursive.tau, num_stations)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"1901 delay model failed for N={num_stations}",
                last_iterate=exc.last_iterate,
                residual=exc.residual,
                iterations=exc.iterations,
            ) from exc
        gamma = gamma_from_tau(tau, num_stations)
        prediction = network_prediction(tau, num_stations, self.timing)
        mean_events, var_events = self.service_event_moments(gamma)
        event_us = prediction.expected_event_duration_us

        # Structure of a service period: the final event is the
        # station's own successful transmission (Ts); every one of the
        # preceding K−1 events is, from the tagged station's view,
        # idle w.p. 1−γ (slot σ) or busy w.p. γ.  A busy event carries
        # one other station's success — Ts — unless two or more others
        # overlap (or the event is one of the station's own collided
        # attempts): Tc.
        t = self.timing
        n = num_stations
        if n >= 2 and gamma > 0:
            # P(exactly one of the other n−1 transmits | ≥1 does).
            p_single = (
                (n - 1) * tau * (1.0 - tau) ** (n - 2)
            ) / (1.0 - (1.0 - tau) ** (n - 1))
        else:
            p_single = 1.0
        mean_busy = p_single * t.ts + (1 - p_single) * t.tc
        second_busy = p_single * t.ts**2 + (1 - p_single) * t.tc**2
        mean_wait = (1 - gamma) * t.slot + gamma * mean_busy
        second_wait = (1 - gamma) * t.slot**2 + gamma * second_busy
        var_wait = max(second_wait - mean_wait**2, 0.0)

        waits_mean = max(mean_events - 1.0, 0.0)  # K − 1 waiting events
        mean_us = t.ts + waits_mean * mean_wait
        # Wald: Var(Σ_{i<K-1} D_i) = E[M]Var(D) + Var(M)E[D]².
        var_us = waits_mean * var_wait + var_events * mean_wait**2
        std_us = math.sqrt(max(var_us, 0.0))

        # Gamma fit to (mean, std) for percentiles.
        if std_us > 0:
            from scipy import stats

            shape = (mean_us / std_us) ** 2
            scale = std_us**2 / mean_us
            dist = stats.gamma(a=shape, scale=scale)
            p50, p95, p99 = (float(dist.ppf(q)) for q in (0.5, 0.95, 0.99))
        else:
            p50 = p95 = p99 = mean_us
        return DelayPrediction(
            num_stations=num_stations,
            mean_us=mean_us,
            std_us=std_us,
            p50_us=p50,
            p95_us=p95,
            p99_us=p99,
            mean_events=mean_events,
            event_duration_us=event_us,
        )
