"""The global scheduler: DAG expansion, dispatch, transfers, completion.

Responsibilities (paper §III-C/E):

* receive job requests from the front end and construct the task DAG;
* dispatch ready tasks to servers under the configured policy, optionally
  holding unplaceable tasks in a global task queue that servers pull from;
* when a parent and child task land on different servers, launch the result
  transfer on the network and hold the child until it arrives (temporal +
  spatial dependence);
* record end-to-end job latency and track the number of in-flight jobs;
* recover tasks lost to server failures: re-dispatch with a configurable
  retry limit and exponential backoff, abandoning the job (and counting it
  as failed) once a task exhausts its budget (see :mod:`repro.faults`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import Engine
from repro.core.stats import LatencyCollector
from repro.jobs.task import Job, Task, TaskState
from repro.scheduling.policies import DispatchPolicy, LeastLoadedPolicy
from repro.telemetry import session as telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server

# Enum members bound once (each ``Enum.MEMBER`` read is a Python-level call
# in CPython 3.11; see repro.server.core_unit).
_READY, _QUEUED = TaskState.READY, TaskState.QUEUED


class _TransferDone:
    """Completion callback for one result transfer.

    A module-level class (not a closure inside the scheduler) so schedulers
    with transfers in flight live inside picklable checkpointed worlds.
    """

    __slots__ = ("scheduler", "task", "started_at")

    def __init__(self, scheduler: "GlobalScheduler", task: Task, started_at: float):
        self.scheduler = scheduler
        self.task = task
        self.started_at = started_at

    def __call__(self) -> None:
        sched = self.scheduler
        task = self.task
        sched.transfer_delay.record(sched.engine.now - self.started_at)
        task.transfer_finished()
        if task.dependencies_met:
            sched._submit(task, sched._placements[task])


class GlobalScheduler:
    """Front-end scheduler for a simulated server farm.

    Args:
        engine: the simulation engine.
        servers: all servers in the farm.
        policy: dispatch policy for ready tasks.
        network: optional network model exposing
            ``transfer(src_server_id, dst_server_id, size_bytes, callback,
            on_drop)``; when absent, cross-server transfers complete
            instantly.
        use_global_queue: hold tasks centrally when the policy returns None.
        eligible_provider: optional callable returning the servers currently
            eligible for dispatch (pool managers plug in here); defaults to
            the full farm.
        retry_limit: dispatch attempts a task lost to a failure may consume
            before its job is abandoned.
        retry_backoff_s: delay before the first re-dispatch of a lost task;
            doubles (``retry_backoff_factor``) per subsequent attempt.
        slo_latency_s: optional end-to-end latency SLO; completed jobs slower
            than this are counted in :attr:`slo_violations`.
    """

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        policy: Optional[DispatchPolicy] = None,
        network=None,
        use_global_queue: bool = False,
        eligible_provider: Optional[Callable[[], List["Server"]]] = None,
        retry_limit: int = 3,
        retry_backoff_s: float = 0.1,
        retry_backoff_factor: float = 2.0,
        slo_latency_s: Optional[float] = None,
    ):
        if retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {retry_limit}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if retry_backoff_factor < 1.0:
            raise ValueError(
                f"retry_backoff_factor must be >= 1, got {retry_backoff_factor}"
            )
        self.engine = engine
        self.servers = list(servers)
        self.policy = policy or LeastLoadedPolicy()
        self.network = network
        self.use_global_queue = use_global_queue
        self.eligible_provider = eligible_provider
        self.retry_limit = retry_limit
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_factor = retry_backoff_factor
        self.slo_latency_s = slo_latency_s
        self.global_queue: Deque[Task] = deque()

        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.active_jobs = 0
        self.jobs_failed = 0
        self.tasks_lost = 0
        self.tasks_retried = 0
        self.tasks_abandoned = 0
        self.slo_violations = 0
        self.transfers_launched = 0
        self.transfer_bytes_launched = 0.0
        self.transfers_dropped = 0
        self.job_latency = LatencyCollector("job_latency")
        self.task_queue_delay = LatencyCollector("task_queue_delay")
        self.transfer_delay = LatencyCollector("transfer_delay")
        self.on_job_complete: Optional[Callable[[Job], None]] = None
        self.on_job_failed: Optional[Callable[[Job], None]] = None

        # Pending result transfers recorded per not-yet-placed child task:
        # child -> list of (src_server_id, bytes).
        self._pending_sources: Dict[Task, List[Tuple[int, float]]] = {}
        self._placements: Dict[Task, "Server"] = {}

        # Cached alive-server list: rebuilding [s for s in servers if not
        # s.is_failed] per placement is O(n) and dominates farm-scale runs;
        # fail()/repair() invalidate it through the availability listeners.
        self._alive: Optional[List["Server"]] = None

        # Bound once and shared by every server: each read of
        # ``self._on_task_complete`` makes a new 64-byte bound method.
        on_task_complete = self._on_task_complete
        on_availability_change = self._on_availability_change
        for server in self.servers:
            server.on_task_complete = on_task_complete
            server.add_availability_listener(on_availability_change)

    # ------------------------------------------------------------------
    # Job intake
    # ------------------------------------------------------------------
    def submit_job(self, job: Job) -> None:
        """Accept a job at the front end; its root tasks become ready now."""
        if not job.tasks:
            raise ValueError(f"job {job.job_id} has no tasks")
        self.jobs_submitted += 1
        self.active_jobs += 1
        ts = telemetry.ACTIVE
        if ts is not None and ts.job is not None:
            rec = ts.job
            jid = rec.seq_id("job", job)
            rec.begin(
                "job", f"j{jid}", "jobs", self.engine.now, jid,
                args={"type": job.job_type, "tasks": len(job.tasks)},
            )
        for task in job.root_tasks():
            task.state = _READY
            self._place_task(task)

    # ------------------------------------------------------------------
    # Placement and dispatch
    # ------------------------------------------------------------------
    def _on_availability_change(self, server: "Server") -> None:
        self._alive = None

    def _candidates(self) -> List["Server"]:
        if self.eligible_provider is not None:
            eligible = self.eligible_provider()
            if eligible:
                return [s for s in eligible if not s.is_failed]
        alive = self._alive
        if alive is None:
            alive = self._alive = [s for s in self.servers if not s.is_failed]
        return alive

    def _place_task(self, task: Task) -> None:
        candidates = self._candidates()
        if not candidates:
            # Every server is down; treat as a lost dispatch so the retry
            # budget bounds how long the task keeps knocking.
            self.tasks_lost += 1
            self._recover_task(task)
            return
        server = self.policy.select_server(task, candidates)
        if server is None:
            if self.use_global_queue:
                task.state = _QUEUED
                self.global_queue.append(task)
                return
            server = LeastLoadedPolicy().select_server(task, candidates)
            assert server is not None, "no servers configured"
        self._assign(task, server)

    def _assign(self, task: Task, server: "Server") -> None:
        ts = telemetry.ACTIVE
        if ts is not None and ts.sched is not None:
            rec = ts.sched
            rec.instant(
                "sched", "dispatch", "sched", self.engine.now,
                args={
                    "job": rec.seq_id("job", task.job),
                    "task": task.name,
                    "server": server.name,
                },
            )
        self._placements[task] = server
        sources = self._pending_sources.pop(task, ())
        launched = False
        for src_server_id, size_bytes in sources:
            if size_bytes > 0 and src_server_id != server.server_id and self.network is not None:
                task.transfer_started()
                launched = True
                self.transfers_launched += 1
                self.transfer_bytes_launched += size_bytes
                started_at = self.engine.now
                done = _TransferDone(self, task, started_at)
                self.network.transfer(
                    src_server_id, server.server_id, size_bytes, done,
                    on_drop=self._transfer_dropped,
                )
        if not launched and task.dependencies_met:
            self._submit(task, server)
        # If transfers were launched, _submit happens from the last callback.

    def _transfer_dropped(self, packet) -> None:
        """A result transfer lost a packet to tail drop and will never land.

        The counter makes stranded transfers loud in reports; the task stays
        blocked (matching the network's semantics) rather than being faked
        as delivered.
        """
        self.transfers_dropped += 1

    def _submit(self, task: Task, server: "Server") -> None:
        if server.is_failed:
            # Placement went stale (the server died between placement and
            # submission, e.g. while a result transfer was in flight).
            self.tasks_lost += 1
            self._recover_task(task)
            return
        task.ready_time = self.engine.now
        server.submit_task(task)

    # ------------------------------------------------------------------
    # Failure recovery (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def on_server_failed(self, server: "Server", lost_tasks: Sequence[Task]) -> None:
        """A server crashed; re-dispatch every task it was holding."""
        for task in lost_tasks:
            self.tasks_lost += 1
            self._recover_task(task)

    def on_server_repaired(self, server: "Server") -> None:
        """A server came back; let it pull centrally queued work."""
        self._drain_global_queue(server)

    def _recover_task(self, task: Task) -> None:
        """Schedule a lost task's re-dispatch, or abandon its job."""
        job = task.job
        if job.failed:
            return
        task.attempts += 1
        task.server_id = None
        self._placements.pop(task, None)
        if task.attempts > self.retry_limit:
            self.tasks_abandoned += 1
            self._fail_job(job)
            return
        self.tasks_retried += 1
        ts = telemetry.ACTIVE
        if ts is not None and ts.sched is not None:
            rec = ts.sched
            rec.instant(
                "sched", "retry", "sched", self.engine.now,
                args={
                    "job": rec.seq_id("job", task.job),
                    "task": task.name,
                    "attempt": task.attempts,
                },
            )
        delay = self.retry_backoff_s * self.retry_backoff_factor ** (task.attempts - 1)
        self.engine.post(delay, self._redispatch, task)

    def _redispatch(self, task: Task) -> None:
        if task.job.failed:
            return
        task.state = _READY
        self._place_task(task)

    def _fail_job(self, job: Job) -> None:
        if job.failed:
            return
        job.failed = True
        self.jobs_failed += 1
        self.active_jobs -= 1
        ts = telemetry.ACTIVE
        if ts is not None and ts.job is not None:
            rec = ts.job
            jid = rec.seq_id("job", job)
            rec.end("job", f"j{jid}", "jobs", self.engine.now, jid, args={"failed": True})
        if self.on_job_failed is not None:
            self.on_job_failed(job)

    # ------------------------------------------------------------------
    # Completion handling (wired into every server)
    # ------------------------------------------------------------------
    def _on_task_complete(self, server: "Server", task: Task) -> None:
        now = self.engine.now
        # A finished task is never submitted again; dropping its placement
        # keeps completed tasks (and their jobs) from staying reachable.
        self._placements.pop(task, None)
        if task.start_time is not None and task.ready_time is not None:
            self.task_queue_delay.record(task.start_time - task.ready_time)
        job = task.job
        if job.failed:
            # A sibling exhausted its retry budget; the job is already
            # written off — don't expand children or record completion.
            if self.global_queue:
                self._drain_global_queue(server)
            return
        ts = telemetry.ACTIVE
        if (
            ts is not None
            and ts.collective is not None
            and task.task_type == "barrier"
        ):
            # One instant per synchronized training step (the barrier task
            # closing it); rank stragglers show up as widening gaps.
            rec = ts.collective
            rec.instant(
                "collective", "step", "collective/steps", now,
                args={"job": rec.seq_id("job", job), "barrier": task.name},
            )
        # The job's edge records, walked in place (no copy per completion).
        for _src, child_index, transfer_bytes in job._children.get(task.index, ()):
            child = job.tasks[child_index]
            child.parent_finished()
            self._pending_sources.setdefault(child, []).append(
                (server.server_id, transfer_bytes)
            )
            if child.remaining_parents == 0:
                child.state = _READY
                self._place_task(child)
        if job.task_finished(task, now):
            self.active_jobs -= 1
            self.jobs_completed += 1
            latency = job.latency()
            spec = getattr(job, "collective", None)
            if ts is not None and ts.collective is not None and spec is not None:
                rec = ts.collective
                rec.instant(
                    "collective", "complete", "collective/jobs", now,
                    args={
                        "job": rec.seq_id("job", job),
                        "kind": spec.kind,
                        "group_size": spec.group_size,
                        "wire_bytes": spec.wire_bytes,
                        "latency_s": latency,
                    },
                )
            if ts is not None and ts.job is not None:
                rec = ts.job
                jid = rec.seq_id("job", job)
                rec.end(
                    "job", f"j{jid}", "jobs", now, jid, args={"latency_s": latency}
                )
            self.job_latency.record(latency)
            if self.slo_latency_s is not None and latency > self.slo_latency_s:
                self.slo_violations += 1
            if self.on_job_complete is not None:
                self.on_job_complete(job)
        if self.global_queue:
            self._drain_global_queue(server)

    def _drain_global_queue(self, server: "Server") -> None:
        """A server freed capacity; let it pull from the global task queue.

        It pulls at most one task per core free when the drain starts.  A
        pulled task whose parents ran elsewhere waits for its result
        transfers and takes no core until they land, so the free-core check
        alone would let one freed core pull the whole queue.
        """
        if not self.use_global_queue or not self.global_queue:
            return
        free = server.total_cores - server.running_task_count
        while free > 0 and self.global_queue and server.can_start_task():
            free -= 1
            self._assign(self.global_queue.popleft(), server)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def global_queue_length(self) -> int:
        return len(self.global_queue)

    def total_pending_tasks(self) -> int:
        """Tasks in flight anywhere: global queue + per-server pending."""
        return len(self.global_queue) + sum(s.pending_task_count for s in self.servers)

    def __repr__(self) -> str:
        return (
            f"<GlobalScheduler servers={len(self.servers)} "
            f"active_jobs={self.active_jobs} gq={len(self.global_queue)}>"
        )
