"""Dispatch policies for the global scheduler.

A policy answers one question: given a ready task and the candidate servers,
where should the task go?  Returning ``None`` signals "nowhere right now";
the scheduler then either parks the task in the global task queue (if
enabled) or falls back to the least-loaded candidate.

The paper ships round-robin and load-balancing (§III-E); we add the packing
(first-fit) policy its delay-timer case studies implicitly rely on — without
packing, load balancing spreads arrivals so evenly that no server ever sees
an idle gap long enough to sleep.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.jobs.task import Task
from repro.server.server import first_startable
from repro.server.states import SystemState

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server

# Bound once (each ``Enum.MEMBER`` read is a Python-level call in CPython
# 3.11; see repro.server.core_unit).
_S0 = SystemState.S0

#: The least-loaded order: fewest pending tasks, then lowest server id.  As
#: an ``attrgetter`` the key makes no Python-level call of its own.
_by_load = attrgetter("pending_task_count", "server_id")


class DispatchPolicy:
    """Interface: pick a server for a task among candidates (or None)."""

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        raise NotImplementedError


class RoundRobinPolicy(DispatchPolicy):
    """Cycle through the candidate list, one task per server in turn."""

    def __init__(self) -> None:
        self._next = 0

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        if not candidates:
            return None
        server = candidates[self._next % len(candidates)]
        self._next += 1
        return server


class LeastLoadedPolicy(DispatchPolicy):
    """Load balancing: the server with the fewest pending tasks wins."""

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        if not candidates:
            return None
        return min(candidates, key=_by_load)


class _PriorityOrder:
    """The candidates in a fixed priority order (``order()`` filtered to
    ``candidates``), rebuilt only when either list is a new one.

    ``order`` and the scheduler hand out lists they never mutate: a pool
    manager builds a new list when it moves a server, and the scheduler a
    new candidate list when a server fails or is repaired.  So a list seen
    before, by identity, filters to the same servers as last time.
    """

    __slots__ = ("order", "_ordered", "_candidates", "_servers")

    def __init__(self, order: Callable[[], Sequence["Server"]]):
        self.order = order
        self._ordered: Optional[Sequence["Server"]] = None
        self._candidates: Optional[Sequence["Server"]] = None
        self._servers: List["Server"] = []

    def __call__(self, candidates: Sequence["Server"]) -> List["Server"]:
        ordered = self.order()
        if ordered is not self._ordered or candidates is not self._candidates:
            allowed = set(id(s) for s in candidates)
            self._servers = [s for s in ordered if id(s) in allowed]
            self._ordered, self._candidates = ordered, candidates
        return self._servers


class RandomPolicy(DispatchPolicy):
    """Uniformly random placement (a useful worst-ish-case baseline)."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        if not candidates:
            return None
        return candidates[int(self.rng.integers(0, len(candidates)))]


class PackingPolicy(DispatchPolicy):
    """First-fit packing: the first server (in priority order) able to start
    the task immediately — awake with a free core.  Falls back to the first
    awake server with the shortest queue, then to the overall least loaded.

    Packing concentrates work on low-index servers so high-index servers see
    long idle gaps — the prerequisite for delay-timer sleep policies to have
    anything to save.

    ``order`` optionally fixes the priority order (e.g. the dual-delay-timer
    policy puts its high-τ pool first); by default candidates are taken in
    the order given.  It must return a list it never mutates afterwards
    (a new list when the order changes): the filtered order is rebuilt
    only when ``order()`` or the candidates are a new list.
    """

    def __init__(self, order: Optional[Callable[[], List["Server"]]] = None):
        self._order = _PriorityOrder(order) if order is not None else None

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        servers = candidates if self._order is None else self._order(candidates)
        if not servers:
            return None
        server = first_startable(servers)
        if server is not None:
            return server
        awake = [s for s in servers if s._system_state is _S0]
        return min(awake or servers, key=_by_load)


class TypeAwarePolicy(DispatchPolicy):
    """Restrict dispatch to servers configured for the task's type.

    §III-E: before dispatching, the global scheduler "will first query the
    servers that are configured to serve the specific type of task" — e.g.
    app-tier requests go to application servers and queries to database
    servers.  A server advertises its capabilities via
    ``server.tags["serves"]`` (an iterable of task-type strings); servers
    without the tag accept every type.  Selection among capable servers is
    delegated to ``base``.
    """

    def __init__(self, base: DispatchPolicy):
        self.base = base

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        capable = [
            s
            for s in candidates
            if "serves" not in s.tags or task.task_type in s.tags["serves"]
        ]
        if not capable:
            return None
        return self.base.select_server(task, capable)


class PowerObliviousPackingPolicy(DispatchPolicy):
    """First-fit packing by *capacity*, ignoring power state.

    The first server (in priority order) whose pending work is below its core
    count gets the task — even if that server is asleep (it will be woken,
    paying the wake latency).  This models front ends that route on load
    information only, which is what makes small delay timers expensive: a
    server that sleeps during a short lull is immediately woken by the next
    arrival routed to it.  ``order`` is as in :class:`PackingPolicy`.
    """

    def __init__(self, order: Optional[Callable[[], List["Server"]]] = None):
        self._order = _PriorityOrder(order) if order is not None else None

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        servers = candidates if self._order is None else self._order(candidates)
        if not servers:
            return None
        for server in servers:
            if server.pending_task_count < server.total_cores:
                return server
        return min(servers, key=_by_load)


class CapacityGatedPolicy(DispatchPolicy):
    """Wrapper that returns None unless a server can start the task *now*.

    Used with the global task queue: the scheduler first queries servers
    configured for the task; if none has a free execution unit the task waits
    centrally and is pulled when a server frees up (§III-E).
    """

    def __init__(self, base: DispatchPolicy):
        self.base = base

    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        ready = [s for s in candidates if s.can_start_task()]
        if not ready:
            return None
        return self.base.select_server(task, ready)
