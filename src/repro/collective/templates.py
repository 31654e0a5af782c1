"""Collective-operation job templates.

Each template builds an ordinary :class:`~repro.jobs.task.Job` DAG whose
edges carry the collective's chunked transfers, so the existing scheduler /
network path executes them with no special casing:

* :func:`ring_allreduce_job` — bucket (ring) allreduce: ``2(p-1)`` chunk
  phases of ``S/p`` bytes between fixed neighbors ``w -> (w+1) mod p``.
  ``phase_batch`` folds consecutive phases into one transfer (byte-exact,
  coarser pipelining) so 1,024-rank rings stay tractable.
* :func:`tree_allreduce_job` — binomial-tree reduce + broadcast, ``2(p-1)``
  full-buffer transfers over ``2*ceil(log2 p)`` rounds.
* :func:`all_to_all_job` — every rank exchanges ``S/p`` with every other
  rank (``p(p-1)`` transfers).
* :func:`training_step_job` — N synchronized steps of compute phase →
  collective → barrier across one worker group.

The public templates build under :func:`~repro.core.heap.settled_addition`:
a job they return lives as long as the cluster it trains on, so a large one
joins that cluster's settled heap instead of being rescanned by every full
collection of the run.

Every template attaches a :class:`CollectiveSpec` to ``job.collective``
recording the chunk accounting — total wire bytes and transfer count — that
:func:`repro.core.invariants.audit_collective` checks against what the
scheduler actually launched and the network actually delivered.

All tasks carry their worker ``rank`` and the job carries a
:class:`~repro.collective.groups.TaskGroup`, so a placement-affine policy
pins rank ``w`` to one server for the whole job; ring neighbors then reuse
the same links every phase, which is what lets the packet-train fast path
batch them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.collective.groups import TaskGroup
from repro.core.heap import settled_addition
from repro.jobs.task import Job

# Service time for bookkeeping tasks (chunk hand-off points, barriers).
# Strictly positive because Task requires it; small enough to vanish next to
# any real transfer or compute time.
EPS_SERVICE_S = 1e-9


@dataclass(frozen=True)
class CollectiveSpec:
    """Chunk accounting for one collective (or one training job's worth).

    ``wire_bytes`` is the exact sum of the DAG's transfer-edge sizes — the
    bytes that must cross the network when every rank is on its own server.
    For ring allreduce this is ``2(p-1) * S`` regardless of ``phase_batch``.
    """

    kind: str
    group_size: int
    size_bytes: float
    phases: int       # logical chunk phases (2(p-1) for ring)
    steps: int        # DAG rounds after phase batching
    n_transfers: int  # transfer edges carrying bytes
    wire_bytes: float


def _check_group(group_size: int, size_bytes: float) -> None:
    if group_size < 2:
        raise ValueError(f"collective needs >= 2 ranks, got {group_size}")
    if not 0 < size_bytes < math.inf:
        raise ValueError(f"collective buffer must be positive and finite, got {size_bytes}")


# ----------------------------------------------------------------------
# Sub-DAG appenders: wire a collective between per-rank entry tasks and
# return (exit_task_per_rank, phases, steps, n_transfers, wire_bytes).
# Used standalone by the *_job wrappers and per step by training_step_job.
# ----------------------------------------------------------------------
def _append_ring_allreduce(
    job: Job,
    entries: Sequence[int],
    size_bytes: float,
    phase_batch: int,
    reduce_s: float,
) -> Tuple[List[int], int, int, int, float]:
    p = len(entries)
    phases = 2 * (p - 1)
    chunk = size_bytes / p
    n_steps = math.ceil(phases / phase_batch)
    current = list(entries)
    edges: List[Tuple[int, int, float]] = []
    n_transfers = 0
    wire = 0.0
    for step in range(n_steps):
        batch = min(phase_batch, phases - step * phase_batch)
        payload = batch * chunk
        new = [
            job.add_task(
                reduce_s, name=f"ring-s{step}-r{w}", task_type="collective", rank=w
            ).index
            for w in range(p)
        ]
        for w in range(p):
            # Program order at rank w, plus the chunk from the ring
            # predecessor: state after this batch of phases needs both.
            edges.append((current[w], new[w], 0.0))
            edges.append((current[w], new[(w + 1) % p], payload))
            n_transfers += 1
            wire += payload
        current = new
    job.add_edges(edges)
    return current, phases, n_steps, n_transfers, wire


def _binomial_pairs(p: int) -> List[Tuple[int, int]]:
    """(sender, receiver) merges of a binomial reduce tree, in round order."""
    pairs: List[Tuple[int, int]] = []
    gap = 1
    while gap < p:
        for recv in range(0, p, 2 * gap):
            send = recv + gap
            if send < p:
                pairs.append((send, recv))
        gap *= 2
    return pairs


def _append_tree_allreduce(
    job: Job,
    entries: Sequence[int],
    size_bytes: float,
    reduce_s: float,
) -> Tuple[List[int], int, int, int, float]:
    p = len(entries)
    pairs = _binomial_pairs(p)
    rounds = max(1, math.ceil(math.log2(p)))
    current = list(entries)
    edges: List[Tuple[int, int, float]] = []
    # Reduce up the tree: each merge ships the sender's full buffer.
    for send, recv in pairs:
        t = job.add_task(
            reduce_s, name=f"reduce-r{recv}<-{send}", task_type="collective", rank=recv
        ).index
        edges.append((current[recv], t, 0.0))
        edges.append((current[send], t, size_bytes))
        current[recv] = t
    # Broadcast back down: mirror the merges in reverse order.
    for send, recv in reversed(pairs):
        t = job.add_task(
            reduce_s, name=f"bcast-r{send}<-{recv}", task_type="collective", rank=send
        ).index
        edges.append((current[send], t, 0.0))
        edges.append((current[recv], t, size_bytes))
        current[send] = t
    job.add_edges(edges)
    n_transfers = 2 * len(pairs)  # 2(p-1)
    return current, 2 * rounds, 2 * rounds, n_transfers, n_transfers * size_bytes


def _append_all_to_all(
    job: Job,
    entries: Sequence[int],
    size_bytes: float,
    reduce_s: float,
) -> Tuple[List[int], int, int, int, float]:
    p = len(entries)
    chunk = size_bytes / p
    exits = [
        job.add_task(reduce_s, name=f"a2a-r{w}", task_type="collective", rank=w).index
        for w in range(p)
    ]
    edges: List[Tuple[int, int, float]] = [
        (entries[w], exits[w], 0.0) for w in range(p)
    ]
    for w in range(p):
        for v in range(p):
            if v != w:
                edges.append((entries[w], exits[v], chunk))
    job.add_edges(edges)
    n_transfers = p * (p - 1)
    return exits, 1, 1, n_transfers, n_transfers * chunk


def _append_collective(
    algorithm: str,
    job: Job,
    entries: Sequence[int],
    size_bytes: float,
    phase_batch: int,
    reduce_s: float,
) -> Tuple[List[int], int, int, int, float]:
    if algorithm == "ring":
        return _append_ring_allreduce(job, entries, size_bytes, phase_batch, reduce_s)
    if algorithm == "tree":
        return _append_tree_allreduce(job, entries, size_bytes, reduce_s)
    if algorithm == "all_to_all":
        return _append_all_to_all(job, entries, size_bytes, reduce_s)
    raise ValueError(f"unknown collective algorithm {algorithm!r}")


def _entry_tasks(job: Job, group_size: int, service_s: float, prefix: str) -> List[int]:
    return [
        job.add_task(service_s, name=f"{prefix}-r{w}", task_type="collective", rank=w).index
        for w in range(group_size)
    ]


# ----------------------------------------------------------------------
# Public templates
# ----------------------------------------------------------------------
@settled_addition()
def ring_allreduce_job(
    group_size: int,
    size_bytes: float,
    *,
    phase_batch: int = 1,
    reduce_s: float = EPS_SERVICE_S,
    arrival_time: float = 0.0,
    job_id: Optional[int] = None,
    group: Optional[TaskGroup] = None,
) -> Job:
    """Standalone ring allreduce of an ``size_bytes`` buffer over ``p`` ranks.

    ``phase_batch=1`` is the exact bucket algorithm: ``2(p-1)`` phases, each
    moving ``S/p`` bytes from every rank to its successor.  ``phase_batch=b``
    folds ``b`` consecutive phases into one transfer of ``b*S/p`` bytes
    between the same fixed pair — total wire bytes are unchanged, only the
    pipelining granularity coarsens.
    """
    _check_group(group_size, size_bytes)
    if phase_batch < 1:
        raise ValueError(f"phase_batch must be >= 1, got {phase_batch}")
    job = Job(arrival_time=arrival_time, job_id=job_id, job_type="ring-allreduce")
    job.group = group or TaskGroup(f"ring-{job.job_id}", group_size)
    entries = _entry_tasks(job, group_size, EPS_SERVICE_S, "init")
    _, phases, steps, n_transfers, wire = _append_ring_allreduce(
        job, entries, size_bytes, phase_batch, reduce_s
    )
    job.collective = CollectiveSpec(
        "ring_allreduce", group_size, size_bytes, phases, steps, n_transfers, wire
    )
    return job


@settled_addition()
def tree_allreduce_job(
    group_size: int,
    size_bytes: float,
    *,
    reduce_s: float = EPS_SERVICE_S,
    arrival_time: float = 0.0,
    job_id: Optional[int] = None,
    group: Optional[TaskGroup] = None,
) -> Job:
    """Binomial-tree allreduce: reduce to rank 0, then broadcast back."""
    _check_group(group_size, size_bytes)
    job = Job(arrival_time=arrival_time, job_id=job_id, job_type="tree-allreduce")
    job.group = group or TaskGroup(f"tree-{job.job_id}", group_size)
    entries = _entry_tasks(job, group_size, EPS_SERVICE_S, "init")
    _, phases, steps, n_transfers, wire = _append_tree_allreduce(
        job, entries, size_bytes, reduce_s
    )
    job.collective = CollectiveSpec(
        "tree_allreduce", group_size, size_bytes, phases, steps, n_transfers, wire
    )
    return job


@settled_addition()
def all_to_all_job(
    group_size: int,
    size_bytes: float,
    *,
    reduce_s: float = EPS_SERVICE_S,
    arrival_time: float = 0.0,
    job_id: Optional[int] = None,
    group: Optional[TaskGroup] = None,
) -> Job:
    """All-to-all personalized exchange: ``S/p`` from every rank to every other."""
    _check_group(group_size, size_bytes)
    job = Job(arrival_time=arrival_time, job_id=job_id, job_type="all-to-all")
    job.group = group or TaskGroup(f"a2a-{job.job_id}", group_size)
    entries = _entry_tasks(job, group_size, EPS_SERVICE_S, "init")
    _, phases, steps, n_transfers, wire = _append_all_to_all(
        job, entries, size_bytes, reduce_s
    )
    job.collective = CollectiveSpec(
        "all_to_all", group_size, size_bytes, phases, steps, n_transfers, wire
    )
    return job


@settled_addition()
def training_step_job(
    group_size: int,
    n_steps: int,
    *,
    compute_s: float,
    size_bytes: float,
    algorithm: str = "ring",
    phase_batch: int = 1,
    reduce_s: float = EPS_SERVICE_S,
    compute_intensity: float = 1.0,
    compute_jitter: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    arrival_time: float = 0.0,
    job_id: Optional[int] = None,
    group: Optional[TaskGroup] = None,
) -> Job:
    """N synchronized training steps: compute → collective → barrier, repeated.

    Each step runs a ``compute_s`` forward/backward phase on every rank
    (optionally jittered by ``compute_jitter`` — a relative half-width, so
    service times are uniform in ``compute_s * [1-j, 1+j]`` — to model
    stragglers), then the gradient collective, then a zero-byte barrier on
    rank 0 that gates the next step.  The barrier is what makes steps
    *synchronized*: no rank starts step ``i+1`` before every rank finished
    step ``i``'s collective.
    """
    _check_group(group_size, size_bytes)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not 0 < compute_s < math.inf:
        raise ValueError(f"compute_s must be positive and finite, got {compute_s}")
    if not 0.0 <= compute_jitter < 1.0:
        raise ValueError(f"compute_jitter {compute_jitter} outside [0, 1)")
    if compute_jitter > 0.0 and rng is None:
        raise ValueError("compute_jitter > 0 requires an rng")
    job = Job(
        arrival_time=arrival_time, job_id=job_id, job_type=f"training-{algorithm}"
    )
    job.group = group or TaskGroup(f"train-{job.job_id}", group_size)
    barrier: Optional[int] = None
    phases = steps = n_transfers = 0
    wire = 0.0
    for step in range(n_steps):
        edges: List[Tuple[int, int, float]] = []
        computes: List[int] = []
        for w in range(group_size):
            service = compute_s
            if compute_jitter > 0.0:
                service *= 1.0 + compute_jitter * (2.0 * float(rng.random()) - 1.0)
            t = job.add_task(
                service,
                name=f"compute-s{step}-r{w}",
                compute_intensity=compute_intensity,
                task_type="compute",
                rank=w,
            ).index
            if barrier is not None:
                edges.append((barrier, t, 0.0))
            computes.append(t)
        job.add_edges(edges)
        exits, ph, st, ntr, wb = _append_collective(
            algorithm, job, computes, size_bytes, phase_batch, reduce_s
        )
        phases += ph
        steps += st
        n_transfers += ntr
        wire += wb
        barrier = job.add_task(
            EPS_SERVICE_S, name=f"barrier-s{step}", task_type="barrier", rank=0
        ).index
        job.add_edges([(e, barrier, 0.0) for e in exits])
    job.collective = CollectiveSpec(
        f"training/{algorithm}", group_size, size_bytes, phases, steps, n_transfers, wire
    )
    return job
