"""Deterministic checkpoint/resume for long simulations.

The engine, the RNG stream tree and the station FSMs are fully
deterministic, so a simulation restored from a checkpoint can be made
*bit-identical* to the uninterrupted run — a far stronger guarantee
than approximate resumption.  This package provides:

- :mod:`repro.checkpoint.integrity` — sha256 + atomic-write helpers
  (shared with the runner's result cache);
- :mod:`repro.checkpoint.format` — the versioned, checksummed on-disk
  container and the :class:`CheckpointStore` directory layout
  (newest-valid-wins, corrupted files skipped);
- :mod:`repro.checkpoint.slotsim` — snapshot/restore for the
  slot-synchronous :class:`~repro.core.simulator.SlotSimulator`;
- :mod:`repro.checkpoint.testbed` — safe-point snapshot/restore for the
  event-driven §3.2 testbed (plain and chaos-injected), the snapshot
  hook, and the checkpointed collision-test drivers the runner and CLI
  use, composed from the procedure's steps in
  :mod:`repro.experiments.procedures`.

The batch kernel has no snapshot format: it packs only points without
a checkpoint runtime.
"""

from .format import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointStore,
    inspect_file,
    read_file,
    write_file,
)
from .integrity import FileLock, atomic_write_bytes, sha256_hex
from .slotsim import (
    restore_slot_simulator,
    run_simulate_with_checkpoints,
    snapshot_slot_simulator,
)
from .testbed import (
    DEFAULT_CHECKPOINT_EVERY_US,
    checkpointed_collision_test,
    resume_collision_test,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "DEFAULT_CHECKPOINT_EVERY_US",
    "FileLock",
    "atomic_write_bytes",
    "checkpointed_collision_test",
    "inspect_file",
    "read_file",
    "restore_slot_simulator",
    "resume_collision_test",
    "run_simulate_with_checkpoints",
    "sha256_hex",
    "snapshot_slot_simulator",
    "write_file",
]
