"""The chaos plan: a JSON-able, seedable schedule of fault injections.

A :class:`ChaosPlan` describes *what* to break and *when*, in a form
that rides inside runner task payloads (``payload["chaos"]``) exactly
like :class:`~repro.obs.capture.ObsConfig` rides in ``payload["obs"]``
— so the plan participates in the result-cache key and identical
``(scenario, plan, seed)`` triples are bit-identical across the serial
and parallel runner paths.

Determinism contract
--------------------
Every fault family draws from its own ``numpy`` generator derived as
``SeedSequence(entropy=plan.seed, spawn_key=(FAULT_ID,))`` — a fixed
id per family (:data:`FAULT_IDS`), independent of installation order
and of the experiment's own :class:`~repro.engine.randomness
.RandomStreams` tree.  Adding one fault family to a plan therefore
never perturbs the draws of another, and none of them perturb the
backoff/traffic draws of the simulation under test.

This is the *in-simulation* counterpart of the process-level
:mod:`repro.faults` (which kills/hangs worker processes); see
``docs/robustness.md`` for how the two layers compose.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

__all__ = ["ChaosPlan", "FAULT_IDS", "preset_plan", "PRESETS"]

#: Fixed spawn-key ids, one per fault family (append-only: reordering
#: or reusing an id silently changes every existing plan's draws).
FAULT_IDS: Dict[str, int] = {
    "gilbert_elliott": 1,
    "impulse_noise": 2,
    "link_quality": 3,
    "sack_loss": 4,
    "sack_corruption": 5,
    "churn": 6,
    "firmware_glitches": 7,
    "sniffer": 8,
}

_CHURN_ACTIONS = ("join", "leave", "crash_leave")
_GLITCH_KINDS = ("zero", "inflate_acked", "corrupt_collided")
_INVARIANT_POLICIES = ("raise", "log", "count")


def _probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def _as_tuple_of_dicts(value) -> Tuple[Dict[str, Any], ...]:
    return tuple(dict(item) for item in (value or ()))


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """What to break, when, and how violations are policed.

    All fields are JSON-able; :meth:`as_jsonable` /
    :meth:`from_jsonable` round-trip exactly (tuples become lists on
    disk and come back as tuples).

    >>> plan = ChaosPlan(seed=7, sack_loss={"probability": 0.1})
    >>> ChaosPlan.from_jsonable(plan.as_jsonable()) == plan
    True
    """

    #: Root seed of the per-fault substreams (independent of the
    #: experiment seed on purpose: the same fault schedule can be
    #: replayed against different scenario seeds).
    seed: int = 0
    #: Gilbert–Elliott burst-error channel: keys ``p_good_to_bad``,
    #: ``p_bad_to_good``, ``error_good``, ``error_bad`` and optional
    #: ``start_us`` / ``end_us`` fault window.
    gilbert_elliott: Optional[Dict[str, float]] = None
    #: Impulsive-noise windows: dicts with ``start_us``,
    #: ``duration_us``, ``error_probability``.
    impulse_noise: Tuple[Dict[str, float], ...] = ()
    #: Station MAC address → extra per-PB error probability.
    link_quality: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Drop a station's SACKs: ``probability`` plus optional
    #: ``start_us`` / ``end_us``.
    sack_loss: Optional[Dict[str, float]] = None
    #: Corrupt (bit-flip the PB error map of) delivered SACKs.
    sack_corruption: Optional[Dict[str, float]] = None
    #: Timed membership changes: dicts with ``time_us``, ``action``
    #: (``join`` / ``leave`` / ``crash_leave``), optional ``mac`` and —
    #: for joins — optional ``leave_at_us`` / ``crash`` scheduling the
    #: paired departure.
    churn: Tuple[Dict[str, Any], ...] = ()
    #: Firmware counter glitches: dicts with ``time_us``, optional
    #: ``mac`` and ``kind`` (``zero`` / ``inflate_acked`` /
    #: ``corrupt_collided``).
    firmware_glitches: Tuple[Dict[str, Any], ...] = ()
    #: Sniffer-path faults: ``drop_probability`` and/or
    #: ``reorder_probability`` applied to host sniffer indications.
    sniffer: Optional[Dict[str, float]] = None
    #: Invariant-checker violation policy: ``raise`` / ``log`` /
    #: ``count``.
    invariants: str = "raise"

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "impulse_noise", _as_tuple_of_dicts(self.impulse_noise)
        )
        object.__setattr__(self, "churn", _as_tuple_of_dicts(self.churn))
        object.__setattr__(
            self,
            "firmware_glitches",
            _as_tuple_of_dicts(self.firmware_glitches),
        )
        object.__setattr__(self, "link_quality", dict(self.link_quality))
        self.validate()

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        if self.invariants not in _INVARIANT_POLICIES:
            raise ValueError(
                f"invariants policy must be one of {_INVARIANT_POLICIES}, "
                f"got {self.invariants!r}"
            )
        if self.gilbert_elliott is not None:
            ge = self.gilbert_elliott
            for key in ("p_good_to_bad", "p_bad_to_good"):
                if key not in ge:
                    raise ValueError(f"gilbert_elliott needs {key!r}")
                _probability(f"gilbert_elliott.{key}", ge[key])
            for key in ("error_good", "error_bad"):
                _probability(f"gilbert_elliott.{key}", ge.get(key, 0.0))
        for window in self.impulse_noise:
            if float(window.get("duration_us", 0.0)) <= 0:
                raise ValueError("impulse_noise window needs duration_us > 0")
            _probability(
                "impulse_noise.error_probability",
                window.get("error_probability", 0.0),
            )
        for mac, probability in self.link_quality.items():
            _probability(f"link_quality[{mac!r}]", probability)
        for name, spec in (
            ("sack_loss", self.sack_loss),
            ("sack_corruption", self.sack_corruption),
        ):
            if spec is not None:
                _probability(
                    f"{name}.probability", spec.get("probability", 0.0)
                )
        for event in self.churn:
            action = event.get("action")
            if action not in _CHURN_ACTIONS:
                raise ValueError(
                    f"churn action must be one of {_CHURN_ACTIONS}, "
                    f"got {action!r}"
                )
            if "time_us" not in event:
                raise ValueError("churn event needs time_us")
        for glitch in self.firmware_glitches:
            kind = glitch.get("kind", "zero")
            if kind not in _GLITCH_KINDS:
                raise ValueError(
                    f"firmware glitch kind must be one of {_GLITCH_KINDS}, "
                    f"got {kind!r}"
                )
            if "time_us" not in glitch:
                raise ValueError("firmware glitch needs time_us")
        if self.sniffer is not None:
            _probability(
                "sniffer.drop_probability",
                self.sniffer.get("drop_probability", 0.0),
            )
            _probability(
                "sniffer.reorder_probability",
                self.sniffer.get("reorder_probability", 0.0),
            )

    # -- deterministic per-fault randomness ------------------------------
    def stream(self, fault: str) -> np.random.Generator:
        """The dedicated generator of one fault family.

        >>> plan = ChaosPlan(seed=3)
        >>> a = plan.stream("churn").random()
        >>> b = plan.stream("churn").random()
        >>> a == b  # fresh generator per call, same substream
        True
        """
        try:
            fault_id = FAULT_IDS[fault]
        except KeyError:
            raise ValueError(
                f"unknown fault family {fault!r}; "
                f"expected one of {sorted(FAULT_IDS)}"
            ) from None
        sequence = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(fault_id,)
        )
        return np.random.default_rng(sequence)

    # -- codec -----------------------------------------------------------
    def as_jsonable(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["impulse_noise"] = [dict(w) for w in self.impulse_noise]
        data["churn"] = [dict(e) for e in self.churn]
        data["firmware_glitches"] = [dict(g) for g in self.firmware_glitches]
        return data

    @classmethod
    def from_jsonable(
        cls, data: Union["ChaosPlan", Mapping[str, Any]]
    ) -> "ChaosPlan":
        if isinstance(data, cls):
            return data
        return cls(**dict(data))

    @property
    def any_channel_impairment(self) -> bool:
        return bool(
            self.gilbert_elliott or self.impulse_noise or self.link_quality
        )


#: Named preset plans (CLI ``--preset`` and the CI chaos-smoke job).
PRESETS = ("ge", "churn", "full")


def preset_plan(
    name: str,
    duration_us: float,
    seed: int = 0,
    invariants: str = "raise",
) -> ChaosPlan:
    """A ready-made plan scaled to an experiment of ``duration_us``.

    ``ge``
        Gilbert–Elliott bursts over the middle half of the run.
    ``churn``
        One station joins a quarter in and crash-leaves at three
        quarters, plus mild SACK loss while it is present.
    ``full``
        Both of the above plus an impulsive-noise window, a firmware
        glitch and sniffer drop/reorder.
    """
    quarter = float(duration_us) / 4.0
    ge = {
        "p_good_to_bad": 0.05,
        "p_bad_to_good": 0.4,
        "error_good": 0.0,
        "error_bad": 0.6,
        "start_us": quarter,
        "end_us": 3.0 * quarter,
    }
    churn = (
        {
            "time_us": quarter,
            "action": "join",
            "crash": True,
            "leave_at_us": 3.0 * quarter,
        },
    )
    if name == "ge":
        return ChaosPlan(seed=seed, gilbert_elliott=ge, invariants=invariants)
    if name == "churn":
        return ChaosPlan(
            seed=seed,
            churn=churn,
            sack_loss={
                "probability": 0.05,
                "start_us": quarter,
                "end_us": 3.0 * quarter,
            },
            invariants=invariants,
        )
    if name == "full":
        return ChaosPlan(
            seed=seed,
            gilbert_elliott=ge,
            impulse_noise=(
                {
                    "start_us": 1.5 * quarter,
                    "duration_us": 0.5 * quarter,
                    "error_probability": 0.8,
                },
            ),
            churn=churn,
            sack_loss={
                "probability": 0.05,
                "start_us": quarter,
                "end_us": 3.0 * quarter,
            },
            sack_corruption={
                "probability": 0.02,
                "start_us": quarter,
                "end_us": 3.0 * quarter,
            },
            firmware_glitches=(
                {"time_us": 2.0 * quarter, "kind": "inflate_acked"},
            ),
            sniffer={"drop_probability": 0.1, "reorder_probability": 0.1},
            invariants=invariants,
        )
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")
