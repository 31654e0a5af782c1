"""Tasks, jobs and their DAG bookkeeping.

Formal model from the paper (§III-C): job ``j`` is a DAG ``G_j(V_j, E_j)``.
Each task ``v`` has a workload requirement ``w_v`` (execution time on a
nominal-speed core); each edge ``l`` has a data-transfer size ``D_l`` (bytes)
to move the producer's result to the consumer's server.

A job finishes when all of its tasks finish.  Job latency is measured from
the job's arrival at the data center front end to the completion of its last
task — it therefore includes queuing, wake-up, computation and network
transfer delays, which is exactly the end-to-end latency the case studies
report.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_INF = float("inf")


class TaskState(enum.Enum):
    """Lifecycle of a task inside the simulator."""

    BLOCKED = "blocked"      # waiting on parent tasks / transfers
    READY = "ready"          # dependencies met, not yet dispatched
    QUEUED = "queued"        # sitting in a global/local/core queue
    RUNNING = "running"      # occupying a core
    FINISHED = "finished"


class Task:
    """One unit of execution, served by a single core at a time.

    ``service_time_s`` is the execution-time requirement on a core running at
    nominal frequency with speed factor 1.0; the core scales it by frequency
    and heterogeneity at dispatch.  ``compute_intensity`` in [0, 1] controls
    how much of the task scales with frequency (1.0 = fully compute bound,
    0.0 = fully memory/IO bound and insensitive to DVFS), modeling the paper's
    "various types of workloads with different levels of computation
    intensiveness" (§III-A).
    """

    __slots__ = (
        "job",
        "index",
        "name",
        "service_time_s",
        "compute_intensity",
        "task_type",
        "rank",
        "state",
        "server_id",
        "ready_time",
        "start_time",
        "finish_time",
        "attempts",
        "_remaining_parents",
        "_remaining_transfers",
    )

    def __init__(
        self,
        job: "Job",
        index: int,
        service_time_s: float,
        name: Optional[str] = None,
        compute_intensity: float = 1.0,
        task_type: str = "generic",
        rank: Optional[int] = None,
    ):
        if not 0 < service_time_s < _INF:
            raise ValueError(
                f"task service time must be positive and finite, got {service_time_s}"
            )
        if not 0.0 <= compute_intensity <= 1.0:
            raise ValueError(f"compute_intensity {compute_intensity} outside [0, 1]")
        self.job = job
        self.index = index
        self.name = name or f"task-{index}"
        self.service_time_s = float(service_time_s)
        self.compute_intensity = float(compute_intensity)
        self.task_type = task_type
        # Worker rank within the job's task group (collective workloads);
        # placement-affinity policies pin equal ranks to stable servers.
        self.rank = rank
        self.state = TaskState.BLOCKED
        self.server_id: Optional[int] = None
        self.ready_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        # Dispatch attempts consumed by failure recovery (0 = never failed).
        self.attempts = 0
        self._remaining_parents = 0
        self._remaining_transfers = 0

    # -- dependency bookkeeping (driven by the global scheduler) ---------
    @property
    def remaining_parents(self) -> int:
        """Parents that have not yet finished execution."""
        return self._remaining_parents

    def parent_finished(self) -> None:
        """A parent task completed; its transfer (if any) may still be in flight."""
        if self._remaining_parents <= 0:
            raise RuntimeError(f"{self} had no pending parents")
        self._remaining_parents -= 1

    def transfer_started(self) -> None:
        """A parent's result transfer has been launched on the network."""
        self._remaining_transfers += 1

    def transfer_finished(self) -> None:
        """A parent's result transfer arrived at this task's server."""
        if self._remaining_transfers <= 0:
            raise RuntimeError(f"{self} had no pending transfers")
        self._remaining_transfers -= 1

    @property
    def dependencies_met(self) -> bool:
        """True when all parents finished and all result transfers arrived."""
        return self._remaining_parents == 0 and self._remaining_transfers == 0

    def __repr__(self) -> str:
        return f"<Task {self.job.job_id}:{self.index} {self.state.value}>"


class Job:
    """A DAG of tasks representing one user service request.

    Edges are ``(src_index, dst_index, transfer_bytes)``.  Construction
    validates indices and acyclicity; runtime dependency counters are
    initialised so the scheduler can drive the DAG without re-deriving graph
    structure on every event.

    While every edge runs from a lower task index to a higher one, index
    order is a topological order, so the graph has no cycle and adding
    another forward edge needs no check.  The first backward edge switches
    the job to a full cycle check (Kahn's algorithm) per ``add_edge`` or
    ``add_edges`` call.

    Each edge is stored once, as one ``(src, dst, transfer_bytes)`` record
    held by both the edge list and its source's child list.  Parents and
    in-degrees are derived from the edge list where only build-time or
    rare queries need them (a 1,024-rank ring job has 132K edges).
    """

    _id_counter = itertools.count()

    def __init__(
        self,
        arrival_time: float = 0.0,
        job_id: Optional[int] = None,
        job_type: str = "generic",
    ):
        self.job_id = next(Job._id_counter) if job_id is None else job_id
        self.arrival_time = float(arrival_time)
        self.job_type = job_type
        # Container-style task group (see repro.collective.TaskGroup): ranks
        # of this job's tasks index into the group's placement map.
        self.group = None
        # Chunk-accounting spec attached by collective templates; audited by
        # repro.core.invariants.audit_collective after a run.
        self.collective = None
        self.tasks: List[Task] = []
        self._edges: List[Tuple[int, int, float]] = []
        # Source index -> the records of its outgoing edges (shared with
        # _edges); the scheduler walks these on every task completion.
        self._children: Dict[int, List[Tuple[int, int, float]]] = {}
        # True while every edge runs forward (src < dst): see the class doc.
        self._forward = True
        self._finished_tasks = 0
        self.finish_time: Optional[float] = None
        # Set by the global scheduler when a task exhausts its failure-retry
        # budget; a failed job never completes and is dropped from accounting.
        self.failed = False

    # -- construction -----------------------------------------------------
    def add_task(
        self,
        service_time_s: float,
        name: Optional[str] = None,
        compute_intensity: float = 1.0,
        task_type: str = "generic",
        rank: Optional[int] = None,
    ) -> Task:
        """Append a task and return it; tasks are indexed in creation order."""
        task = Task(
            self,
            len(self.tasks),
            service_time_s,
            name=name,
            compute_intensity=compute_intensity,
            task_type=task_type,
            rank=rank,
        )
        self.tasks.append(task)
        return task

    def add_edge(self, src: int, dst: int, transfer_bytes: float = 0.0) -> None:
        """Add dependency ``src -> dst`` with a result-transfer size in bytes."""
        n = len(self.tasks)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge ({src}, {dst}) references missing tasks (n={n})")
        if src == dst:
            raise ValueError(f"self-dependency on task {src}")
        if not 0 <= transfer_bytes < _INF:
            raise ValueError(f"transfer size must be finite and >= 0, got {transfer_bytes}")
        record = (src, dst, float(transfer_bytes))
        self._edges.append(record)
        self._children.setdefault(src, []).append(record)
        self.tasks[dst]._remaining_parents += 1
        forward = self._forward
        if src > dst:
            self._forward = False
        if not self._forward and self._has_cycle():
            # Roll back so the job object stays usable after the error.
            self._edges.pop()
            self._children[src].pop()
            self.tasks[dst]._remaining_parents -= 1
            self._forward = forward
            raise ValueError(f"edge ({src}, {dst}) would create a cycle")

    def add_edges(self, edges: Iterable[Tuple[int, int, float]]) -> None:
        """Add many ``(src, dst, transfer_bytes)`` edges, validating once.

        :meth:`add_edge` checks acyclicity per edge once any edge runs
        backward — quadratic in the edge count.  This path validates indices
        and sizes per edge but checks acyclicity (when needed) once at the
        end, rolling everything back on failure.
        """
        added: List[Tuple[int, int, float]] = []
        n = len(self.tasks)
        forward = self._forward
        try:
            for edge in edges:
                src, dst, transfer_bytes = edge
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(
                        f"edge ({src}, {dst}) references missing tasks (n={n})"
                    )
                if src == dst:
                    raise ValueError(f"self-dependency on task {src}")
                if not 0 <= transfer_bytes < _INF:
                    raise ValueError(
                        f"transfer size must be finite and >= 0, got {transfer_bytes}"
                    )
                if src > dst:
                    self._forward = False
                # A caller's plain (src, dst, float) tuple already is the
                # record; keeping it spares the build a second tuple per edge.
                if type(edge) is tuple and type(transfer_bytes) is float:
                    record = edge
                else:
                    record = (src, dst, float(transfer_bytes))
                self._edges.append(record)
                self._children.setdefault(src, []).append(record)
                self.tasks[dst]._remaining_parents += 1
                added.append(record)
            if not self._forward and self._has_cycle():
                raise ValueError("edges would create a cycle")
        except ValueError:
            for src, dst, _size in reversed(added):
                self._edges.pop()
                self._children[src].pop()
                self.tasks[dst]._remaining_parents -= 1
            self._forward = forward
            raise

    # -- structure queries --------------------------------------------------
    @property
    def edges(self) -> Sequence[Tuple[int, int, float]]:
        """All edges as ``(src, dst, transfer_bytes)`` tuples."""
        return tuple(self._edges)

    def children_of(self, index: int) -> Sequence[Tuple[int, float]]:
        """Outgoing edges of a task: ``(child_index, transfer_bytes)``."""
        return tuple((dst, size) for _src, dst, size in self._children.get(index, ()))

    def parents_of(self, index: int) -> Sequence[Tuple[int, float]]:
        """Incoming edges of a task: ``(parent_index, transfer_bytes)``."""
        return tuple((src, size) for src, dst, size in self._edges if dst == index)

    def _indegrees(self) -> List[int]:
        indegree = [0] * len(self.tasks)
        for _src, dst, _size in self._edges:
            indegree[dst] += 1
        return indegree

    def root_tasks(self) -> List[Task]:
        """Tasks with no dependencies; these become READY on job arrival."""
        indegree = self._indegrees()
        return [t for t in self.tasks if not indegree[t.index]]

    def topological_order(self) -> List[int]:
        """Task indices in a valid topological order (Kahn's algorithm)."""
        indegree = self._indegrees()
        frontier = [i for i, d in enumerate(indegree) if d == 0]
        order: List[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for _src, child, _size in self._children.get(node, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        if len(order) != len(self.tasks):
            raise RuntimeError("job DAG contains a cycle")  # pragma: no cover
        return order

    def critical_path_s(self) -> float:
        """Length (in nominal service time) of the DAG's critical path.

        This is the lower bound on job latency on infinitely many
        nominal-speed cores with free communication; useful as a sanity
        baseline in tests and for slack-based policies.
        """
        # ready[i]: the longest path ending at any parent of task i seen so
        # far; each task pushes its own path length to its children.
        ready = [0.0] * len(self.tasks)
        longest = 0.0
        for index in self.topological_order():
            path = self.tasks[index].service_time_s + ready[index]
            if path > longest:
                longest = path
            for _src, child, _size in self._children.get(index, ()):
                if path > ready[child]:
                    ready[child] = path
        return longest

    def total_work_s(self) -> float:
        """Sum of all task service times (the job's total core demand)."""
        return sum(t.service_time_s for t in self.tasks)

    # -- runtime ------------------------------------------------------------
    def task_finished(self, task: Task, now: float) -> bool:
        """Record a task completion; returns True when the whole job is done."""
        if task.job is not self:
            raise ValueError("task belongs to a different job")
        self._finished_tasks += 1
        if self._finished_tasks == len(self.tasks):
            self.finish_time = now
            return True
        return False

    @property
    def finished(self) -> bool:
        """True once every task has completed."""
        return self._finished_tasks == len(self.tasks) and bool(self.tasks)

    def latency(self) -> float:
        """End-to-end job latency (finish - arrival); raises if unfinished."""
        if self.finish_time is None:
            raise RuntimeError(f"job {self.job_id} has not finished")
        return self.finish_time - self.arrival_time

    def _has_cycle(self) -> bool:
        try:
            self.topological_order()
            return False
        except RuntimeError:
            return True

    def __repr__(self) -> str:
        return (
            f"<Job {self.job_id} type={self.job_type} tasks={len(self.tasks)} "
            f"edges={len(self._edges)}>"
        )
