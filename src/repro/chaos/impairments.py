"""Time-varying channel impairments (the chaos layer's PHY faults).

The paper's measurements run over real power strips whose channels are
bursty and time-varying (§3), while the emulated medium defaults to
:class:`repro.phy.channel.IdealChannel` and i.i.d.
:class:`~repro.phy.channel.BernoulliPbErrors`.  This module supplies
the missing realism as error models that read the wire time
:meth:`repro.phy.channel.PowerStrip.deliver_mpdu` passes to every
:class:`~repro.phy.channel.ErrorModel`:

- :class:`GilbertElliottPbErrors` — the classic two-state Markov burst
  model: a good state with rare PB errors and a bad state with
  frequent ones, state transitions drawn per physical block;
- :class:`ImpulsiveNoiseBursts` — scheduled high-error windows
  (appliance switching, dimmer spikes: impulsive noise is the
  dominant PLC impairment class);
- :class:`AsymmetricLinkQuality` — per-source extra error probability
  (heterogeneous links: some outlets are simply worse);
- :class:`ComposedErrorModel` — OR-composition of any of the above
  with each other or the stock models.

All models draw from a caller-supplied ``numpy`` generator, so a
:class:`~repro.chaos.plan.ChaosPlan` can hand each one its own
``SeedSequence`` child stream and keep runs bit-reproducible.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..phy.framing import Mpdu

__all__ = [
    "GilbertElliottPbErrors",
    "ImpulsiveNoiseBursts",
    "AsymmetricLinkQuality",
    "ComposedErrorModel",
]


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return float(value)


class GilbertElliottPbErrors:
    """Two-state Markov (Gilbert–Elliott) per-PB error model.

    The channel is either *good* (PB error probability ``error_good``)
    or *bad* (``error_bad``).  Before each physical block the state
    transitions with probability ``p_good_to_bad`` /
    ``p_bad_to_good``; runs of bad-state blocks produce the error
    bursts that i.i.d. models cannot.

    The model is only active inside ``[start_us, end_us)`` (the chaos
    plan's fault window); outside it no errors are produced and the
    state is frozen, so fault clearance is abrupt and the recovery
    harness can measure re-convergence.

    >>> rng = np.random.default_rng(0)
    >>> model = GilbertElliottPbErrors(0.1, 0.3, 0.0, 1.0, rng)
    >>> abs(model.stationary_error_rate - 0.25) < 1e-12
    True
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        error_good: float,
        error_bad: float,
        rng: np.random.Generator,
        start_us: float = 0.0,
        end_us: Optional[float] = None,
    ) -> None:
        self.p_good_to_bad = _check_probability("p_good_to_bad", p_good_to_bad)
        self.p_bad_to_good = _check_probability("p_bad_to_good", p_bad_to_good)
        if self.p_good_to_bad + self.p_bad_to_good <= 0.0:
            raise ValueError(
                "p_good_to_bad + p_bad_to_good must be > 0 "
                "(an absorbing chain has no stationary error rate)"
            )
        self.error_good = _check_probability("error_good", error_good)
        self.error_bad = _check_probability("error_bad", error_bad)
        self.rng = rng
        self.start_us = float(start_us)
        self.end_us = None if end_us is None else float(end_us)
        #: Current state: False = good, True = bad (starts good).
        self.in_bad_state = False
        #: Diagnostics: PBs seen / errored while the model was active.
        self.pbs_seen = 0
        self.pbs_errored = 0

    # -- analysis helpers (the hypothesis property test pins these) ------
    @property
    def stationary_bad_probability(self) -> float:
        """π_bad of the two-state chain."""
        return self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)

    @property
    def stationary_error_rate(self) -> float:
        """Long-run PB error rate: π_g·e_g + π_b·e_b."""
        pi_bad = self.stationary_bad_probability
        return (1.0 - pi_bad) * self.error_good + pi_bad * self.error_bad

    @property
    def correlation(self) -> float:
        """Lag-1 state correlation ρ = 1 − p_gb − p_bg.

        The empirical error rate over ``n`` blocks has variance
        ≈ r(1−r)·(1+ρ)/(1−ρ)/n — the burstiness inflates it by the
        factor (1+ρ)/(1−ρ) relative to i.i.d. sampling.
        """
        return 1.0 - self.p_good_to_bad - self.p_bad_to_good

    def _step(self) -> bool:
        """Advance the state one block and draw that block's error."""
        if self.in_bad_state:
            if self.rng.random() < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if self.rng.random() < self.p_good_to_bad:
                self.in_bad_state = True
        error_probability = (
            self.error_bad if self.in_bad_state else self.error_good
        )
        errored = bool(self.rng.random() < error_probability)
        self.pbs_seen += 1
        if errored:
            self.pbs_errored += 1
        return errored

    def sample_flags(self, count: int) -> List[bool]:
        """Draw ``count`` consecutive PB flags (for statistical tests)."""
        return [self._step() for _ in range(count)]

    def active(self, time_us: float) -> bool:
        if time_us < self.start_us:
            return False
        return self.end_us is None or time_us < self.end_us

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        n = max(mpdu.num_blocks, 1)
        if not self.active(time_us):
            return [False] * n
        return [self._step() for _ in range(n)]


class ImpulsiveNoiseBursts:
    """Scheduled impulsive-noise windows.

    ``windows`` is a sequence of ``(start_us, duration_us,
    error_probability)`` triples; inside a window every PB is errored
    independently with that window's probability, outside all windows
    the channel is clean.  Overlapping windows combine by taking the
    maximum error probability.
    """

    def __init__(
        self,
        windows: Sequence[Tuple[float, float, float]],
        rng: np.random.Generator,
    ) -> None:
        checked = []
        for start_us, duration_us, probability in windows:
            if duration_us <= 0:
                raise ValueError(
                    f"impulse window duration must be > 0, got {duration_us}"
                )
            checked.append(
                (
                    float(start_us),
                    float(duration_us),
                    _check_probability("impulse error_probability", probability),
                )
            )
        self.windows = tuple(checked)
        self.rng = rng
        self.pbs_errored = 0

    def error_probability_at(self, time_us: float) -> float:
        probability = 0.0
        for start_us, duration_us, window_probability in self.windows:
            if start_us <= time_us < start_us + duration_us:
                probability = max(probability, window_probability)
        return probability

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        n = max(mpdu.num_blocks, 1)
        probability = self.error_probability_at(time_us)
        if probability <= 0.0:
            return [False] * n
        flags = [bool(f) for f in self.rng.random(n) < probability]
        self.pbs_errored += sum(flags)
        return flags


class AsymmetricLinkQuality:
    """Per-source extra PB error probability (heterogeneous outlets).

    ``probabilities`` maps a source TEI to that station's extra error
    probability; alternatively pass a callable ``tei -> probability``
    (the chaos injector uses one, because TEIs are only assigned at
    association time while the plan is keyed by MAC address).
    """

    def __init__(
        self,
        probabilities: Union[Mapping[int, float], Callable[[int], float]],
        rng: np.random.Generator,
    ) -> None:
        if callable(probabilities):
            self._probability_of = probabilities
        else:
            table = {
                int(tei): _check_probability("link error probability", p)
                for tei, p in probabilities.items()
            }
            self._probability_of = lambda tei: table.get(tei, 0.0)
        self.rng = rng
        self.pbs_errored = 0

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        n = max(mpdu.num_blocks, 1)
        probability = _check_probability(
            "link error probability", self._probability_of(mpdu.source_tei)
        )
        if probability <= 0.0:
            return [False] * n
        flags = [bool(f) for f in self.rng.random(n) < probability]
        self.pbs_errored += sum(flags)
        return flags


class ComposedErrorModel:
    """OR-composition of several error models (independent causes).

    A PB is errored if *any* component flags it.  Every component is
    consulted on every MPDU, with the wire time, so stateful models
    (Gilbert–Elliott) keep evolving consistently.
    """

    def __init__(self, models: Sequence[object]) -> None:
        if not models:
            raise ValueError("ComposedErrorModel needs at least one model")
        self.models = tuple(models)

    def pb_error_flags(self, mpdu: Mpdu, time_us: float = 0.0) -> List[bool]:
        combined: Optional[List[bool]] = None
        for model in self.models:
            flags = model.pb_error_flags(mpdu, time_us)
            if combined is None:
                combined = list(flags)
            else:
                combined = [a or b for a, b in zip(combined, flags)]
        assert combined is not None
        return combined
