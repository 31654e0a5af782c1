"""Durable runs: deterministic full-state snapshots of a running simulation.

``repro.checkpoint`` makes one long single-engine run durable: the whole
simulation world — engine clock/heap, RNG streams, servers and pool
cohorts, scheduler, workload driver — is pickled as one object graph
between two events (a naturally consistent cut) and written atomically
with a schema version and a model fingerprint that refuses restore into a
run with different parameters.  See DESIGN.md ("Durable runs") for the
format and the consistency argument.
"""

from repro.checkpoint.durable import (
    DurabilityOptions,
    RunInterrupted,
    load_world,
    run_durably,
)
from repro.checkpoint.format import (
    CHECKPOINT_KIND,
    CHECKPOINT_VERSION,
    CheckpointError,
    check_restorable,
    read_checkpoint,
    scenario_fingerprint,
    write_checkpoint,
)
from repro.checkpoint.lock import FileLock, LockHeldError, try_lock

__all__ = [
    "CHECKPOINT_KIND",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "DurabilityOptions",
    "FileLock",
    "LockHeldError",
    "RunInterrupted",
    "check_restorable",
    "load_world",
    "read_checkpoint",
    "run_durably",
    "scenario_fingerprint",
    "try_lock",
    "write_checkpoint",
]
