"""Seeded random-number streams for reproducible simulations.

Every stochastic component of the simulator (each station's backoff
draws, each traffic source, the management-message scheduler, ...)
pulls from its own independent substream derived from a single root
seed, so results are reproducible and adding a component never
perturbs the draws of another.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """A tree of named, independent random substreams.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` draws OS entropy (non-reproducible).

    Examples
    --------
    >>> streams = RandomStreams(7)
    >>> rng = streams.stream("station", 0)
    >>> int(rng.integers(0, 8)) in range(8)
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self._streams: Dict[tuple, np.random.Generator] = {}
        self.seed = seed

    def stream(self, *key: object) -> np.random.Generator:
        """Return the generator for ``key``, creating it on first use.

        The same key always maps to the same substream for a given root
        seed, regardless of creation order.
        """
        k = tuple(key)
        if k not in self._streams:
            # Derive a child deterministically from the key's hash-free
            # representation: spawn keys must be integers, so fold the
            # repr of the key into words appended to the root's own
            # spawn key (preserving any `spawn` lineage).
            words = [w % (2**32) for w in _key_words(k)]
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=tuple(self._root.spawn_key) + tuple(words),
            )
            self._streams[k] = np.random.default_rng(child)
        return self._streams[k]

    @classmethod
    def from_seed_sequence(
        cls,
        sequence: np.random.SeedSequence,
        seed: Optional[int] = None,
    ) -> "RandomStreams":
        """A tree rooted at an externally derived ``SeedSequence``.

        Used by :mod:`repro.runner` to hand each experiment point a
        root spawned from ``(root_seed, point_index, repetition)``
        while keeping the named-substream layout (``stream("station",
        i)`` etc.) identical to the serial code paths.  ``seed`` is
        only bookkeeping (the :attr:`seed` attribute); the draws are
        fully determined by ``sequence``.
        """
        streams = cls.__new__(cls)
        streams._root = sequence
        streams._streams = {}
        streams.seed = seed
        return streams

    def clone(self) -> "RandomStreams":
        """A same-derivation tree with *fresh* generators.

        ``stream(...)`` generators are stateful and cached, so handing
        one tree to two simulators makes them consume each other's
        draws — a silently-shared-RNG hazard that would let a
        differential comparison "pass" by comparing a simulator
        against its own perturbation.  A clone derives the exact same
        substreams from the same root (each starting at the beginning
        of its stream, regardless of what the original has already
        consumed), with no state shared with the original:

        >>> a = RandomStreams(3)
        >>> _ = a.stream("station", 0).integers(0, 8, size=5)
        >>> b = a.clone()  # unaffected by a's consumed draws
        >>> c = RandomStreams(3)
        >>> list(b.stream("station", 0).integers(0, 8, size=2)) == list(
        ...     c.stream("station", 0).integers(0, 8, size=2)
        ... )
        True
        """
        clone = RandomStreams.__new__(RandomStreams)
        clone._root = self._root
        clone._streams = {}
        clone.seed = self.seed
        return clone

    def spawn(self, *key: object) -> "RandomStreams":
        """Create an independent child tree (e.g. per repetition)."""
        child = RandomStreams.__new__(RandomStreams)
        words = [w % (2**32) for w in _key_words(tuple(key))]
        child._root = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=tuple(self._root.spawn_key)
            + tuple(words)
            + (0xC0FFEE,),
        )
        child._streams = {}
        child.seed = self.seed
        return child


def _key_words(key: tuple) -> list:
    """Map an arbitrary key tuple to a deterministic list of ints."""
    words = []
    for part in key:
        if isinstance(part, (int, np.integer)):
            words.append(int(part) & 0xFFFFFFFF)
        else:
            # Stable across processes (unlike hash()): fold UTF-8 bytes.
            acc = 2166136261
            for byte in str(part).encode("utf-8"):
                acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
            words.append(acc)
    return words or [0]

