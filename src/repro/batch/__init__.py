"""Vectorized batch simulation of many (scenario, seed) points.

The struct-of-arrays slot kernel (:mod:`repro.batch.kernel`) advances
thousands of independent saturated-scenario points per process in
lockstep numpy array operations — the ROADMAP's "one refactor that
makes everything else cheap" — while staying **bit-exact** against the
event-by-event :class:`~repro.core.simulator.SlotSimulator`:

- :mod:`repro.batch.lanes` batches the per-lane backoff draws by
  advancing each lane's own PCG64 substream as array state, emulating
  ``Generator.integers`` bit-for-bit (self-tested at first use of the
  vector path; falls back to scalar draws on any divergence);
- :mod:`repro.batch.adapter` makes the kernel and the scalar
  simulator emit comparable per-round records, which the differential
  harness in ``tests/batch/`` asserts equal, round by round.

The kernel runs every scenario :class:`~repro.core.simulator
.SlotSimulator` runs: saturated and unsaturated stations, finite retry
limits, 1901 and 802.11 schedules.  See ``docs/batch-kernel.md`` for
the array layout, the lockstep round algorithm and the support matrix.
"""

from .adapter import (
    KernelTraceRecorder,
    RoundRecord,
    compare_round_records,
    kernel_round_records,
    slotsim_round_records,
)
from .kernel import BatchSlotKernel, batch_simulate
from .lanes import LaneRngs, vector_draws_available

__all__ = [
    "BatchSlotKernel",
    "KernelTraceRecorder",
    "LaneRngs",
    "RoundRecord",
    "batch_simulate",
    "compare_round_records",
    "kernel_round_records",
    "slotsim_round_records",
    "vector_draws_available",
]
