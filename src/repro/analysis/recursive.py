"""Closed-form stage recursion for the 1901 backoff process ([5]).

This is the analytical counterpart of :mod:`repro.analysis.markov`:
instead of enumerating every (BC, DC) state it exploits the structure
of a backoff stage.  Within stage ``s`` (window ``w_s``, deferral
``d_s``), given a drawn backoff counter ``b`` and per-event busy
probability ``p``:

- the station *attempts* iff at most ``d_s`` of the first ``b`` slot
  events are busy (the deferral jump fires on the (d_s+1)-th busy
  event, before BC can expire), so

      P(attempt | b) = BinomialCDF(d_s; b, p);

- the jump, when it happens, happens at the event carrying the
  (d_s+1)-th busy, i.e. after a negative-binomially distributed number
  of events.

Averaging over ``b ~ U{0, …, w_s − 1}`` gives the per-stage attempt
probability ``x_s`` and expected number of slot events ``n_s``; a tiny
Markov chain over stages then yields the attempt probability

    τ = Σ_s v_s · x_s / Σ_s v_s · n_s

by renewal-reward, where ``v_s`` are the stage visit frequencies.

The module is deliberately implemented independently from the exact
chain so the two can cross-validate each other in tests.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..core.config import CsmaConfig

__all__ = [
    "StageQuantities",
    "jump_pmf",
    "stage_quantities",
    "RecursiveModel",
]


def jump_pmf(window: int, deferral: int, busy_probability: float) -> np.ndarray:
    """q[j] = P(the deferral jump fires at slot event j), j = 0..w−1.

    The (d+1)-th busy event falls on event j, i.e. j−1−d idle events
    precede it: ``nbinom.pmf(j − 1 − d; d + 1, p)``, the probability of
    k failures before the r-th success.  q[0] = 0: a jump needs at
    least one event.

    Bit-identical to ``scipy.stats.nbinom.pmf``, which evaluates the
    ``scipy.special`` ufunc called here and clips it to [0, 1]; calling
    the ufunc directly loads ``scipy.special`` (on the first call)
    instead of all of ``scipy.stats``.
    """
    w, d, p = window, deferral, busy_probability
    q = np.zeros(w)
    jv = np.arange(d + 1, w)  # the events a jump can fall on
    if jv.size:
        try:
            from scipy.special._ufuncs import _nbinom_pmf
        except ImportError:  # the private ufunc moved: pay for stats
            from scipy import stats

            q[jv] = stats.nbinom.pmf(jv - 1 - d, d + 1, p)
        else:
            q[jv] = np.clip(_nbinom_pmf(jv - 1 - d, d + 1, p), 0.0, 1.0)
    return q


@dataclasses.dataclass(frozen=True)
class StageQuantities:
    """Per-visit quantities of one backoff stage at busy probability p."""

    #: Probability the visit ends with a transmission attempt.
    attempt_probability: float
    #: Expected number of slot events consumed by the visit (the
    #: attempt event included, the jump event included).
    expected_events: float


def stage_quantities(
    window: int, deferral: int, busy_probability: float
) -> StageQuantities:
    """Compute x_s and n_s for one stage.

    >>> q = stage_quantities(8, 0, 0.0)
    >>> q.attempt_probability
    1.0
    >>> q.expected_events  # (w+1)/2 = mean(b)+1
    4.5
    """
    w, d, p = window, deferral, busy_probability
    if w < 1:
        raise ValueError("window must be >= 1")
    if d < 0:
        raise ValueError("deferral must be >= 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"busy probability must be in [0, 1], got {p}")

    if p < 1e-12:
        # Never (or negligibly often) busy: always transmit, after b
        # backoff events.  The cutoff also guards :func:`jump_pmf`
        # against denormal probabilities.
        return StageQuantities(1.0, (w + 1) / 2.0)

    bs = np.arange(w)  # drawn BC values 0..w-1

    # P(jump exactly at event j) does not depend on the drawn b (only
    # j <= b is required).
    q = jump_pmf(w, d, p)

    # P(attempt | b) = P(no jump within the first b events)
    #               = 1 - sum_{j<=b} q[j]  (cumulative sums, O(w)).
    jump_cdf = np.cumsum(q)
    attempt_given_b = 1.0 - jump_cdf[bs]
    x = float(attempt_given_b.mean())

    # Events if attempting: b + 1 (the attempt event itself).
    events_attempt = (bs + 1.0) * attempt_given_b
    # Events if jumping: sum_{j<=b} j*q[j].
    events_jump = np.cumsum(np.arange(w) * q)[bs]

    n = float((events_attempt + events_jump).mean())
    return StageQuantities(x, n)


class RecursiveModel:
    """τ(γ) via the stage recursion, for any (cw, dc) schedule."""

    def __init__(self, config: CsmaConfig) -> None:
        self.config = config

    def stage_table(self, gamma: float) -> Tuple[StageQuantities, ...]:
        """Per-stage (x_s, n_s) at busy probability γ."""
        return tuple(
            stage_quantities(w, d, gamma)
            for w, d in zip(self.config.cw, self.config.dc)
        )

    def visit_frequencies(self, gamma: float) -> np.ndarray:
        """Stationary visit frequencies of the stage chain.

        Stage transitions per visit: attempt+success → stage 0;
        attempt+collision or deferral jump → next stage (the last stage
        re-enters itself).
        """
        m = self.config.num_stages
        table = self.stage_table(gamma)
        matrix = np.zeros((m, m))
        for s, q in enumerate(table):
            x = q.attempt_probability
            up = x * gamma + (1.0 - x)  # move towards higher stage
            matrix[s, 0] += x * (1.0 - gamma)
            matrix[s, min(s + 1, m - 1)] += up
        # Stationary distribution of the (small) stage chain.
        a = matrix.T - np.eye(m)
        a[-1, :] = 1.0
        rhs = np.zeros(m)
        rhs[-1] = 1.0
        v = np.linalg.solve(a, rhs)
        v = np.clip(v, 0.0, None)
        return v / v.sum()

    def tau(self, gamma: float) -> float:
        """Attempt probability per slot event at busy probability γ."""
        table = self.stage_table(gamma)
        v = self.visit_frequencies(gamma)
        attempts = sum(
            vi * q.attempt_probability for vi, q in zip(v, table)
        )
        events = sum(vi * q.expected_events for vi, q in zip(v, table))
        return float(attempts / events)

    def expected_backoff_events_per_frame(self, gamma: float) -> float:
        """Mean slot events from frame head-of-line to its success."""
        # Events per visit over visits until success; by renewal
        # arguments this is (Σ v_s n_s) / (Σ v_s x_s (1-γ)).
        table = self.stage_table(gamma)
        v = self.visit_frequencies(gamma)
        events = sum(vi * q.expected_events for vi, q in zip(v, table))
        succ = sum(
            vi * q.attempt_probability * (1.0 - gamma)
            for vi, q in zip(v, table)
        )
        if succ <= 0:
            return float("inf")
        return float(events / succ)
