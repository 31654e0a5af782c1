"""GOAL-style application traces: parse, validate, and compile into Jobs.

ATLAHS (PAPERS.md) replays AI/HPC applications from GOAL (Group Operation
Assembly Language) traces — per-rank compute/send/recv records with explicit
dependencies.  This module implements a flat, line-oriented GOAL dialect:

.. code-block:: text

    # comment
    ranks 4
    rank 0 calc c0 0.003
    rank 0 send s0 1048576 to 1 requires c0
    rank 1 recv r0 1048576 from 0
    rank 1 calc c1 0.001 requires r0

* ``ranks N`` must appear once, before any record.
* Every record names its rank, an op id (unique per rank), and the op:
  ``calc <seconds>``, ``send <bytes> to <rank>``, ``recv <bytes> from
  <rank>``.  ``requires id [id ...]`` lists same-rank dependencies.
* Sends and recvs are matched FIFO per (src, dst) pair in file order; byte
  counts must agree and no op may go unmatched.

Compilation produces one :class:`~repro.jobs.task.Job`: calc records become
compute tasks, each matched send/recv pair becomes a transfer edge carrying
its bytes, and ``requires`` become zero-byte edges.  A dependent of a send
proceeds on the sender's *local* completion; a dependent of a recv waits for
the data to arrive — exactly GOAL's semantics under this DAG model.

Numeric fields are validated with the same attributed checker that guards
:class:`~repro.workload.trace.ArrivalTrace` loading, so malformed traces
fail with ``file:line`` at the cause.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.collective.groups import TaskGroup
from repro.collective.templates import EPS_SERVICE_S, CollectiveSpec
from repro.core.heap import settled_addition
from repro.jobs.task import Job
from repro.workload.trace import check_time_value


@dataclass(frozen=True)
class GoalOp:
    """One parsed trace record."""

    rank: int
    op_id: str
    kind: str                 # "calc" | "send" | "recv"
    seconds: float = 0.0      # calc only
    size_bytes: float = 0.0   # send/recv only
    peer: int = -1            # send: destination rank; recv: source rank
    requires: Tuple[str, ...] = field(default_factory=tuple)
    line_no: int = 0


class GoalTrace:
    """A validated GOAL trace: ``n_ranks`` plus ops in file order."""

    def __init__(self, n_ranks: int, ops: List[GoalOp], name: str = "goal"):
        if n_ranks <= 0:
            raise ValueError(f"trace needs >= 1 rank, got {n_ranks}")
        self.n_ranks = n_ranks
        self.ops = list(ops)
        self.name = name

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, source: str = "<goal>", name: str = "goal") -> "GoalTrace":
        n_ranks: Optional[int] = None
        ops: List[GoalOp] = []
        seen: Dict[Tuple[int, str], int] = {}  # (rank, op_id) -> line_no

        def fail(line_no: int, message: str) -> ValueError:
            return ValueError(f"{source}:{line_no}: {message}")

        for line_no, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if fields[0] == "ranks":
                if n_ranks is not None:
                    raise fail(line_no, "duplicate 'ranks' directive")
                if len(fields) != 2:
                    raise fail(line_no, f"expected 'ranks N', got {line!r}")
                try:
                    n_ranks = int(fields[1])
                except ValueError:
                    raise fail(line_no, f"rank count is not an integer: {fields[1]!r}")
                if n_ranks <= 0:
                    raise fail(line_no, f"rank count must be positive, got {n_ranks}")
                continue
            if n_ranks is None:
                raise fail(line_no, "'ranks N' must come before any record")
            op = cls._parse_record(fields, line, line_no, n_ranks, source)
            key = (op.rank, op.op_id)
            if key in seen:
                raise fail(
                    line_no,
                    f"duplicate op id {op.op_id!r} for rank {op.rank} "
                    f"(first defined at line {seen[key]})",
                )
            seen[key] = line_no
            ops.append(op)
        if n_ranks is None:
            raise ValueError(f"{source}: missing 'ranks N' directive")
        for op in ops:
            for dep in op.requires:
                if (op.rank, dep) not in seen:
                    raise fail(
                        op.line_no,
                        f"op {op.op_id!r} requires unknown op {dep!r} on rank {op.rank}",
                    )
        cls._check_matching(ops, source)
        return cls(n_ranks, ops, name=name)

    @staticmethod
    def _parse_record(
        fields: List[str], line: str, line_no: int, n_ranks: int, source: str
    ) -> GoalOp:
        def fail(message: str) -> ValueError:
            return ValueError(f"{source}:{line_no}: {message}")

        requires: Tuple[str, ...] = ()
        if "requires" in fields:
            split = fields.index("requires")
            deps = fields[split + 1:]
            if not deps:
                raise fail("'requires' lists no op ids")
            requires = tuple(deps)
            fields = fields[:split]
        if len(fields) < 4 or fields[0] != "rank":
            raise fail(f"expected 'rank R <calc|send|recv> ...', got {line!r}")
        try:
            rank = int(fields[1])
        except ValueError:
            raise fail(f"rank is not an integer: {fields[1]!r}")
        if not 0 <= rank < n_ranks:
            raise fail(f"rank {rank} outside [0, {n_ranks})")
        kind, op_id = fields[2], fields[3]
        where = f"{source}:{line_no}"
        if kind == "calc":
            if len(fields) != 5:
                raise fail(f"expected 'calc <id> <seconds>', got {line!r}")
            try:
                seconds = float(fields[4])
            except ValueError:
                raise fail(f"calc duration is not a number: {fields[4]!r}")
            check_time_value(seconds, where, what="calc duration")
            return GoalOp(rank, op_id, "calc", seconds=seconds,
                          requires=requires, line_no=line_no)
        if kind in ("send", "recv"):
            keyword = "to" if kind == "send" else "from"
            if len(fields) != 7 or fields[5] != keyword:
                raise fail(
                    f"expected '{kind} <id> <bytes> {keyword} <rank>', got {line!r}"
                )
            try:
                size = float(fields[4])
            except ValueError:
                raise fail(f"byte count is not a number: {fields[4]!r}")
            check_time_value(size, where, what="byte count")
            try:
                peer = int(fields[6])
            except ValueError:
                raise fail(f"peer rank is not an integer: {fields[6]!r}")
            if not 0 <= peer < n_ranks:
                raise fail(f"peer rank {peer} outside [0, {n_ranks})")
            if peer == rank:
                raise fail(f"rank {rank} cannot {kind} to itself")
            return GoalOp(rank, op_id, kind, size_bytes=size, peer=peer,
                          requires=requires, line_no=line_no)
        raise fail(f"unknown op kind {kind!r} (expected calc, send or recv)")

    @staticmethod
    def _check_matching(ops: List[GoalOp], source: str) -> None:
        """Sends and recvs must pair off FIFO per (src, dst) with equal bytes."""
        pending_sends: Dict[Tuple[int, int], Deque[GoalOp]] = {}
        pending_recvs: Dict[Tuple[int, int], Deque[GoalOp]] = {}
        for op in ops:
            if op.kind == "send":
                key = (op.rank, op.peer)
                queue = pending_recvs.get(key)
                if queue:
                    recv = queue.popleft()
                    if recv.size_bytes != op.size_bytes:
                        raise ValueError(
                            f"{source}:{op.line_no}: send of {op.size_bytes:g} B to rank "
                            f"{op.peer} matches recv of {recv.size_bytes:g} B "
                            f"(line {recv.line_no})"
                        )
                else:
                    pending_sends.setdefault(key, deque()).append(op)
            elif op.kind == "recv":
                key = (op.peer, op.rank)
                queue = pending_sends.get(key)
                if queue:
                    send = queue.popleft()
                    if send.size_bytes != op.size_bytes:
                        raise ValueError(
                            f"{source}:{op.line_no}: recv of {op.size_bytes:g} B from rank "
                            f"{op.peer} matches send of {send.size_bytes:g} B "
                            f"(line {send.line_no})"
                        )
                else:
                    pending_recvs.setdefault(key, deque()).append(op)
        for queues, what in ((pending_sends, "send"), (pending_recvs, "recv")):
            for queue in queues.values():
                if queue:
                    op = queue[0]
                    raise ValueError(
                        f"{source}:{op.line_no}: unmatched {what} "
                        f"{op.op_id!r} on rank {op.rank}"
                    )

    # ------------------------------------------------------------------
    # File I/O
    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: Union[str, Path], name: Optional[str] = None) -> "GoalTrace":
        path = Path(path)
        return cls.parse(path.read_text(), source=str(path), name=name or path.stem)

    def to_file(self, path: Union[str, Path]) -> None:
        path = Path(path)
        with open(path, "w") as handle:
            handle.write(f"# GOAL trace {self.name!r}: "
                         f"{self.n_ranks} ranks, {len(self.ops)} ops\n")
            handle.write(f"ranks {self.n_ranks}\n")
            for op in self.ops:
                if op.kind == "calc":
                    record = f"rank {op.rank} calc {op.op_id} {op.seconds:.9g}"
                else:
                    keyword = "to" if op.kind == "send" else "from"
                    record = (f"rank {op.rank} {op.kind} {op.op_id} "
                              f"{op.size_bytes:.9g} {keyword} {op.peer}")
                if op.requires:
                    record += " requires " + " ".join(op.requires)
                handle.write(record + "\n")

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @settled_addition()
    def compile_job(
        self,
        arrival_time: float = 0.0,
        job_id: Optional[int] = None,
        group: Optional[TaskGroup] = None,
    ) -> Job:
        """Compile the trace into one Job DAG.

        Calc ops become compute tasks; send/recv ops become bookkeeping
        tasks joined by a transfer edge carrying the message bytes;
        ``requires`` become zero-byte edges, and may name a later op of the
        rank (a ``requires`` cycle raises ``ValueError``).  Built under
        :func:`~repro.core.heap.settled_addition`, like the collective
        templates.
        """
        job = Job(arrival_time=arrival_time, job_id=job_id, job_type="goal")
        job.group = group or TaskGroup(self.name, self.n_ranks)
        index: Dict[Tuple[int, str], int] = {}
        edges: List[Tuple[int, int, float]] = []
        for op in self.ops:
            task = job.add_task(
                max(op.seconds, EPS_SERVICE_S) if op.kind == "calc" else EPS_SERVICE_S,
                name=f"{op.kind}-r{op.rank}-{op.op_id}",
                task_type="compute" if op.kind == "calc" else op.kind,
                rank=op.rank,
            )
            index[(op.rank, op.op_id)] = task.index
        # Wire requires only once every task exists, so one may name a later op.
        for op in self.ops:
            dst = index[(op.rank, op.op_id)]
            for dep in op.requires:
                edges.append((index[(op.rank, dep)], dst, 0.0))
        # Transfer edges: re-run the FIFO matching (validated at parse time).
        pending: Dict[Tuple[int, int], Deque[GoalOp]] = {}
        n_transfers = 0
        wire = 0.0
        for op in self.ops:
            if op.kind == "send":
                key = (op.rank, op.peer)
                waiting = pending.setdefault(key, deque())
                if waiting and waiting[0].kind == "recv":
                    recv = waiting.popleft()
                    edges.append((index[(op.rank, op.op_id)],
                                  index[(recv.rank, recv.op_id)], op.size_bytes))
                    n_transfers += 1
                    wire += op.size_bytes
                else:
                    waiting.append(op)
            elif op.kind == "recv":
                key = (op.peer, op.rank)
                waiting = pending.setdefault(key, deque())
                if waiting and waiting[0].kind == "send":
                    send = waiting.popleft()
                    edges.append((index[(send.rank, send.op_id)],
                                  index[(op.rank, op.op_id)], op.size_bytes))
                    n_transfers += 1
                    wire += op.size_bytes
                else:
                    waiting.append(op)
        job.add_edges(edges)
        job.collective = CollectiveSpec(
            "goal", self.n_ranks, size_bytes=wire, phases=0, steps=0,
            n_transfers=n_transfers, wire_bytes=wire,
        )
        return job

    def __repr__(self) -> str:
        return f"<GoalTrace {self.name!r} ranks={self.n_ranks} ops={len(self.ops)}>"


# ----------------------------------------------------------------------
# Synthetic generator + replay driver
# ----------------------------------------------------------------------
def synthesize_training_goal(
    group_size: int,
    n_steps: int,
    *,
    compute_s: float,
    size_bytes: float,
    name: str = "training-synth",
) -> GoalTrace:
    """A synthetic data-parallel training trace: compute + ring allreduce × N.

    Each step: every rank computes for ``compute_s``, then runs the bucket
    ring allreduce as explicit send/recv phases (``2(p-1)`` phases of
    ``size_bytes / p``).  The ring's data dependencies make the steps
    globally synchronized without an explicit barrier op — after a full
    ring pass every rank transitively depends on every other rank's step.
    """
    if group_size < 2:
        raise ValueError(f"training trace needs >= 2 ranks, got {group_size}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if compute_s <= 0 or size_bytes <= 0:
        raise ValueError("compute_s and size_bytes must be positive")
    p = group_size
    chunk = size_bytes / p
    phases = 2 * (p - 1)
    ops: List[GoalOp] = []
    # last[w]: op id whose completion represents rank w's current state.
    last: List[Optional[str]] = [None] * p
    for step in range(n_steps):
        for w in range(p):
            dep = (last[w],) if last[w] is not None else ()
            op_id = f"c{step}"
            ops.append(GoalOp(w, op_id, "calc", seconds=compute_s, requires=dep))
            last[w] = op_id
        for t in range(phases):
            sends = []
            for w in range(p):
                op_id = f"s{step}.{t}"
                ops.append(GoalOp(w, op_id, "send", size_bytes=chunk,
                                  peer=(w + 1) % p, requires=(last[w],)))
                sends.append(op_id)
            for w in range(p):
                op_id = f"r{step}.{t}"
                # Receiving phase t's chunk requires having finished phase
                # t-1 locally (the recv buffer is the chunk just sent on).
                ops.append(GoalOp(w, op_id, "recv", size_bytes=chunk,
                                  peer=(w - 1) % p, requires=(last[w],)))
                last[w] = op_id
    return GoalTrace(p, ops, name=name)


class GoalReplayDriver:
    """Inject jobs compiled from GOAL traces at given arrival times.

    ``traces`` is a list of ``(arrival_time, GoalTrace)``; each is compiled
    into a Job (with a deterministic ``job_id`` equal to its position, so
    replays are bit-identical across processes) and submitted to the
    scheduler at its arrival time.
    """

    def __init__(self, engine, scheduler, traces) -> None:
        self.engine = engine
        self.scheduler = scheduler
        self.traces = list(traces)
        self.jobs: List[Job] = []  # compiled jobs, in trace order
        self.jobs_injected = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            raise RuntimeError("GOAL replay driver already started")
        self._started = True
        for job_id, (when, trace) in enumerate(self.traces):
            job = trace.compile_job(arrival_time=when, job_id=job_id)
            self.jobs.append(job)
            self.engine.post_at(when, self._inject, job)

    def _inject(self, job: Job) -> None:
        self.jobs_injected += 1
        self.scheduler.submit_job(job)
