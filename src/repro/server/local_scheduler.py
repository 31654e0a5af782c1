"""Local (within-server) task schedulers.

Prior work has shown the performance impact of local scheduler policies —
e.g. a unified task queue vs. per-core task queues (§II, citing Li et al.'s
"Tales of the Tail").  Both are implemented here:

* :class:`UnifiedQueueScheduler` — one server-wide FIFO; any free core pulls
  the head of the queue.  Work-conserving, best tail latency.
* :class:`PerCoreQueueScheduler` — arrivals are immediately bound to a core
  (join-the-shortest-queue); a task never migrates.  Exhibits the
  head-of-line blocking the paper's motivation discusses.

Both are heterogeneity-aware: free cores are offered fastest-first.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional

from repro.jobs.task import Task, TaskState
from repro.server.core_unit import Core

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server

# Bound once (each ``Enum.MEMBER`` read is a Python-level call in CPython
# 3.11; see core_unit).
_QUEUED = TaskState.QUEUED


class LocalScheduler:
    """Interface shared by local scheduling policies."""

    def __init__(self, server: "Server"):
        self.server = server

    def enqueue(self, task: Task) -> None:
        """Accept a task into the server's local queue(s)."""
        raise NotImplementedError

    def dispatch(self) -> None:
        """Start as many queued tasks as free cores allow (only while in S0)."""
        raise NotImplementedError

    def on_core_free(self, core: Core) -> None:
        """A core finished its task; give it more work if any is queued."""
        raise NotImplementedError

    @property
    def queued_count(self) -> int:
        """Tasks waiting in local queue(s), not yet on a core."""
        raise NotImplementedError

    def drain(self) -> List[Task]:
        """Remove and return all queued tasks (used when migrating work)."""
        raise NotImplementedError


class UnifiedQueueScheduler(LocalScheduler):
    """Single server-wide FIFO shared by all cores."""

    def __init__(self, server: "Server"):
        super().__init__(server)
        # Created on the first enqueue: an empty deque costs ~760 bytes, and
        # most servers of a large farm may never queue a task.
        self._queue: Optional[Deque[Task]] = None

    def enqueue(self, task: Task) -> None:
        task.state = _QUEUED
        queue = self._queue
        if queue is None:
            queue = self._queue = deque()
        queue.append(task)

    def dispatch(self) -> None:
        if not self.server.can_execute:
            return
        queue = self._queue
        while queue:
            core = self.server.find_available_core()
            if core is None:
                return
            task = queue.popleft()
            self.server.start_task_on_core(core, task)

    def on_core_free(self, core: Core) -> None:
        queue = self._queue
        if queue and self.server.can_execute and core.available:
            task = queue.popleft()
            self.server.start_task_on_core(core, task)

    @property
    def queued_count(self) -> int:
        queue = self._queue
        return len(queue) if queue else 0

    def drain(self) -> List[Task]:
        queue = self._queue
        if not queue:
            return []
        tasks = list(queue)
        queue.clear()
        return tasks


class PerCoreQueueScheduler(LocalScheduler):
    """Join-the-shortest-queue binding of arrivals to per-core FIFOs."""

    def __init__(self, server: "Server"):
        super().__init__(server)
        self._queues: Dict[Core, Deque[Task]] = {
            core: deque() for core in server.all_cores()
        }

    def enqueue(self, task: Task) -> None:
        task.state = _QUEUED
        # Prefer an idle core outright; otherwise the shortest queue, and
        # among equals the fastest core (heterogeneity awareness).
        core = min(
            self._queues,
            key=lambda c: (not c.available, len(self._queues[c]), -c.speed_factor, c.index),
        )
        self._queues[core].append(task)

    def dispatch(self) -> None:
        if not self.server.can_execute:
            return
        for core, queue in self._queues.items():
            if queue and core.available:
                self.server.start_task_on_core(core, queue.popleft())

    def on_core_free(self, core: Core) -> None:
        queue = self._queues[core]
        if queue and self.server.can_execute and core.available:
            self.server.start_task_on_core(core, queue.popleft())

    @property
    def queued_count(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def drain(self) -> List[Task]:
        tasks: List[Task] = []
        for queue in self._queues.values():
            tasks.extend(queue)
            queue.clear()
        return tasks


def make_local_scheduler(server: "Server", policy: str) -> LocalScheduler:
    """Factory keyed by :attr:`repro.core.config.ServerConfig.queue_policy`."""
    if policy == "unified":
        return UnifiedQueueScheduler(server)
    if policy == "per_core":
        return PerCoreQueueScheduler(server)
    raise ValueError(f"unknown local queue policy {policy!r}")
