"""Vectorized per-lane RNG: batched, bit-exact ``Generator.integers``.

The batch kernel's equivalence contract requires every ``(point,
station)`` lane to draw backoffs from its *own*
:class:`numpy.random.Generator` substream, in FSM order — which naively
costs one Python-level ``Generator.integers`` call per redraw (~1 µs
each) and dominates the kernel's runtime.

:class:`LaneRngs` removes that bottleneck by advancing all lanes'
generators *as arrays*: it lifts each lane's PCG64 state (the 128-bit
LCG state/increment plus the buffered-uint32 half-word) into numpy
arrays and reimplements exactly the code path
``Generator.integers(0, cw)`` takes for ranges below 2**32 —
PCG64 XSL-RR 128/64 output, the low-half-first uint32 buffer, and
Lemire's bounded rejection sampling on 32-bit words (including the
no-consumption shortcut for a range of 1).  A draw through
:meth:`LaneRngs.draw` therefore consumes and produces *bit-identical*
values to calling ``integers(0, cw)`` on the lane's own generator.

Because this mirrors numpy internals, it is guarded twice:

- :func:`vector_draws_available` runs a self-test on first use —
  thousands of interleaved draws across range shapes (powers of two,
  odd ranges, range 1) compared against real ``Generator`` objects.
  Any divergence (e.g. a future numpy changing its bounded-integer
  algorithm) disables the vector path for the process and the kernel
  falls back to per-lane scalar calls — slower, never wrong.
- The differential harness in ``tests/batch/`` re-proves kernel ==
  FSM equality on every run.

``REPRO_BATCH_SCALAR_DRAWS=1`` forces the scalar fallback (used by the
tests to prove both paths agree).
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["LaneRngs", "vector_draws_available"]

_U64 = np.uint64
#: PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MULT_HI = _U64(2549297995355413924)
_MULT_LO = _U64(4865540595714422341)
_M32 = _U64(0xFFFFFFFF)
_SH32 = _U64(32)

#: Cached self-test verdict (None = not yet run).
_VECTOR_OK: Optional[bool] = None


def _mul128(ahi, alo, bhi, blo):
    """(ahi:alo) * (bhi:blo) mod 2**128, in 64-bit numpy lanes."""
    a0 = alo & _M32
    a1 = alo >> _SH32
    b0 = blo & _M32
    b1 = blo >> _SH32
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = (p00 >> _SH32) + (p01 & _M32) + (p10 & _M32)
    lo = (p00 & _M32) | ((mid & _M32) << _SH32)
    carry = (mid >> _SH32) + (p01 >> _SH32) + (p10 >> _SH32) + a1 * b1
    hi = ahi * blo + alo * bhi + carry
    return hi, lo


def _pcg64_step(shi, slo, ihi, ilo):
    """state = state * MULT + inc (the 128-bit LCG advance)."""
    hi, lo = _mul128(shi, slo, _MULT_HI, _MULT_LO)
    lo2 = lo + ilo
    hi2 = hi + ihi + (lo2 < lo).astype(_U64)
    return hi2, lo2


def _pcg64_output(shi, slo):
    """XSL-RR 128/64: rotate (hi ^ lo) right by the state's top 6 bits."""
    rot = shi >> _U64(58)
    x = shi ^ slo
    left = x << ((_U64(64) - rot) % _U64(64))
    return (x >> rot) | np.where(rot == _U64(0), _U64(0), left)


class LaneRngs:
    """A fixed set of per-lane PCG64 generators, advanced in batch.

    Parameters
    ----------
    generators:
        One ``numpy.random.Generator`` per lane (``None`` entries make
        inert lanes that must never draw).  When every real lane is
        PCG64-backed and the self-test passes, draws run vectorized;
        otherwise they fall back to per-lane scalar ``integers`` calls.

    The instance is picklable either way (arrays, or the generator
    objects themselves).
    """

    def __init__(
        self,
        generators: Sequence[Optional[np.random.Generator]],
        _force_vector: Optional[bool] = None,
    ):
        self.num_lanes = len(generators)
        if _force_vector is None:
            _force_vector = vector_draws_available()
        self.vectorized = _force_vector and all(
            g is None or isinstance(g.bit_generator, np.random.PCG64)
            for g in generators
        )
        if self.vectorized:
            n = self.num_lanes
            self.shi = np.zeros(n, dtype=_U64)
            self.slo = np.zeros(n, dtype=_U64)
            self.ihi = np.zeros(n, dtype=_U64)
            self.ilo = np.zeros(n, dtype=_U64)
            self.has_uint32 = np.zeros(n, dtype=bool)
            self.uinteger = np.zeros(n, dtype=_U64)
            mask = _M32 | (_M32 << _SH32)  # 2**64 - 1 as a python int
            for j, gen in enumerate(generators):
                if gen is None:
                    continue
                raw = gen.bit_generator.state
                state = raw["state"]["state"]
                inc = raw["state"]["inc"]
                self.shi[j] = (state >> 64) & int(mask)
                self.slo[j] = state & int(mask)
                self.ihi[j] = (inc >> 64) & int(mask)
                self.ilo[j] = inc & int(mask)
                self.has_uint32[j] = bool(raw["has_uint32"])
                self.uinteger[j] = raw["uinteger"]
            self._gens: Optional[List] = None
        else:
            self._gens = list(generators)

    # -- draws -------------------------------------------------------------
    def draw(self, rows: np.ndarray, cw: np.ndarray) -> np.ndarray:
        """``integers(0, cw[k])`` on each lane ``rows[k]``, batched.

        ``rows`` are lane indices (each at most once per call, FSM
        order is per-lane so intra-call order is immaterial); ``cw``
        their contention windows (``>= 1``, ``< 2**32``).  Returns the
        drawn backoff counters as int64.
        """
        if not self.vectorized:
            gens = self._gens
            return np.array(
                [
                    int(gens[j].integers(0, w))
                    for j, w in zip(rows.tolist(), cw.tolist())
                ],
                dtype=np.int64,
            )
        with np.errstate(over="ignore"):
            return self._draw_vector(rows, cw)

    def _draw_vector(self, rows, cw) -> np.ndarray:
        rng = cw.astype(_U64) - _U64(1)  # inclusive max, Lemire's "rng"
        # Gather lane state once; scatter back once at the end.
        shi = self.shi[rows]
        slo = self.slo[rows]
        has = self.has_uint32[rows]
        ui = self.uinteger[rows]

        live = rng > _U64(0)  # rng == 0 consumes nothing, returns 0
        rng_excl = (rng + _U64(1)) & _M32
        m = np.zeros(len(rows), dtype=_U64)
        if live.any():
            word = self._masked_next32(rows, shi, slo, has, ui, live)
            m = word * rng_excl
            leftover = m & _M32
            redo = live & (leftover < rng_excl)
            if redo.any():
                threshold = (_M32 - rng) % np.where(
                    rng_excl == _U64(0), _U64(1), rng_excl
                )
                while True:
                    redo &= leftover < threshold
                    if not redo.any():
                        break
                    word = self._masked_next32(rows, shi, slo, has, ui, redo)
                    m = np.where(redo, word * rng_excl, m)
                    leftover = m & _M32
        value = np.where(live, m >> _SH32, _U64(0))

        self.shi[rows] = shi
        self.slo[rows] = slo
        self.has_uint32[rows] = has
        self.uinteger[rows] = ui
        return value.astype(np.int64)

    def _masked_next32(self, rows, shi, slo, has, ui, mask):
        """``_next32`` for only the lanes selected by ``mask``."""
        out = np.where(has & mask, ui, _U64(0))
        need = mask & ~has
        if need.any():
            nhi, nlo = _pcg64_step(shi, slo, self.ihi[rows], self.ilo[rows])
            shi[need] = nhi[need]
            slo[need] = nlo[need]
            word = _pcg64_output(shi, slo)
            out = np.where(need, word & _M32, out)
            ui[need] = (word >> _SH32)[need]
        has[mask] = ~has[mask]
        return out & _M32

    # -- interop -----------------------------------------------------------
    def write_back(
        self, generators: Sequence[Optional[np.random.Generator]]
    ) -> None:
        """Sync the lanes' advanced states back into real generators.

        After this, calling ``integers`` on a lane's generator
        continues its stream exactly where the batched draws left it —
        proven by ``tests/batch/test_lanes.py`` and checked by the
        first-use self-test.  No-op in scalar mode (the generators were
        advanced directly).
        """
        if not self.vectorized:
            return
        for j, gen in enumerate(generators):
            if gen is None:
                continue
            raw = gen.bit_generator.state
            raw["state"]["state"] = (int(self.shi[j]) << 64) | int(
                self.slo[j]
            )
            raw["has_uint32"] = int(bool(self.has_uint32[j]))
            raw["uinteger"] = int(self.uinteger[j])
            gen.bit_generator.state = raw


def _selftest() -> bool:
    """Interleaved vector-vs-scalar draws across awkward range shapes."""
    widths = [1, 2, 7, 8, 16, 32, 33, 64, 100, 255, 1000, 2**16, 2**31]

    def make():
        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=20260808, spawn_key=(k,))
            )
            for k in range(len(widths))
        ]

    try:
        vec_gens, ref_gens = make(), make()
        lanes = LaneRngs(vec_gens, _force_vector=True)
        if not lanes.vectorized:
            return False
        rows = np.arange(len(widths))
        cw = np.array(widths, dtype=np.int64)
        with np.errstate(over="ignore"):
            for _ in range(512):
                got = lanes._draw_vector(rows, cw)
                want = [
                    int(g.integers(0, w)) for g, w in zip(ref_gens, widths)
                ]
                if got.tolist() != want:
                    return False
        # Writing the advanced state back must continue the streams
        # exactly where the batched draws left them.
        lanes.write_back(vec_gens)
        cont = [int(g.integers(0, w)) for g, w in zip(vec_gens, widths)]
        ref_cont = [int(g.integers(0, w)) for g, w in zip(ref_gens, widths)]
        return cont == ref_cont
    except Exception:
        return False


def vector_draws_available() -> bool:
    """Whether the vectorized draw path is proven safe on this numpy.

    The verdict is computed once per process.  Returns ``False`` when
    ``REPRO_BATCH_SCALAR_DRAWS=1`` or when the self-test finds any
    divergence from real ``Generator.integers`` draws.
    """
    global _VECTOR_OK
    if os.environ.get("REPRO_BATCH_SCALAR_DRAWS") == "1":
        return False
    if _VECTOR_OK is None:
        _VECTOR_OK = _selftest()
    return _VECTOR_OK
