"""Network-aware group placement (container-style scheduling).

DCSim (PAPERS.md) argues container schedulers must integrate compute and
network placement; for collective workloads the network cost is dominated by
how many switch tiers a worker group's traffic has to climb.  The
:class:`GroupPlacementPolicy` therefore bin-packs a whole
:class:`~repro.collective.groups.TaskGroup` at once — onto the fewest edge
switches, preferring one pod — and pins ``rank -> server`` for the job's
lifetime.  Ranks that do not fit in the primary pod spill to other pods with
an explicit per-rank cost recorded in ``group.cross_pod_spills``.

Tasks without a rank or group fall through to the base policy, so one
scheduler can mix collective and web-style traffic.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.jobs.task import Task
from repro.scheduling.policies import DispatchPolicy, LeastLoadedPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.collective.groups import TaskGroup
    from repro.network.topology import Topology
    from repro.server.server import Server

_EDGE_NAME = re.compile(r"^edge-(\d+)-(\d+)$")


class GroupPlacementPolicy(DispatchPolicy):
    """Place task groups under the fewest edge switches, spilling explicitly.

    Args:
        topology: the network topology; each server's attachment switch and
            pod are derived from it once at construction.
        base: policy for ungrouped tasks (and groups that lose their pinned
            server to a failure); defaults to least-loaded.
        ranks_per_server: slots one server offers a group (1 = dedicated
            servers, the usual training configuration).
    """

    def __init__(
        self,
        topology: "Topology",
        base: Optional[DispatchPolicy] = None,
        ranks_per_server: int = 1,
    ):
        if ranks_per_server < 1:
            raise ValueError(f"ranks_per_server must be >= 1, got {ranks_per_server}")
        self.base = base or LeastLoadedPolicy()
        self.ranks_per_server = ranks_per_server
        self.groups_placed = 0
        self.cross_pod_spills = 0
        # server_id -> (pod, attachment switch).  Pod indices come from the
        # fat-tree naming convention (edge-{pod}-{s}); other topologies
        # collapse to pod 0 with the attachment node as the "edge".
        self._attachment: Dict[int, Tuple[int, str]] = {}
        for server_id, node in topology._server_node_of.items():
            switches = sorted(n for n in topology.adjacency[node] if topology.is_switch(n))
            attach = switches[0] if switches else node
            match = _EDGE_NAME.match(attach)
            pod = int(match.group(1)) if match else 0
            self._attachment[server_id] = (pod, attach)
        # Candidate-list lookup cache; the scheduler reuses one alive-server
        # list object until availability changes, so invalidation by object
        # identity keeps per-task lookups O(1).
        self._cached_candidates: Optional[Sequence["Server"]] = None
        self._by_id: Dict[int, "Server"] = {}

    # ------------------------------------------------------------------
    def select_server(
        self, task: Task, candidates: Sequence["Server"]
    ) -> Optional["Server"]:
        group: Optional["TaskGroup"] = getattr(task.job, "group", None)
        if group is None or task.rank is None or not candidates:
            return self.base.select_server(task, candidates)
        if self._cached_candidates is not candidates:
            self._cached_candidates = candidates
            self._by_id = {s.server_id: s for s in candidates}
        if group.placement is None:
            self._place_group(group, candidates)
        server = self._by_id.get(group.placement[task.rank % group.size])
        if server is None or server.is_failed:
            # The pinned server died; let the base policy find a stand-in
            # rather than stalling the whole group.
            return self.base.select_server(task, candidates)
        return server

    # ------------------------------------------------------------------
    def _place_group(self, group: "TaskGroup", candidates: Sequence["Server"]) -> None:
        """Bin-pack all ranks of ``group`` onto the candidate servers."""
        by_edge: Dict[Tuple[int, str], List["Server"]] = {}
        for server in candidates:
            key = self._attachment.get(server.server_id, (0, "?"))
            by_edge.setdefault(key, []).append(server)
        for servers in by_edge.values():
            servers.sort(key=lambda s: s.server_id)
        pod_capacity: Dict[int, int] = {}
        for (pod, _edge), servers in by_edge.items():
            pod_capacity[pod] = pod_capacity.get(pod, 0) + len(servers)
        # Primary pod: the one that can host the most ranks (ties to the
        # lowest pod id, keeping placement deterministic).
        primary = min(pod_capacity, key=lambda p: (-pod_capacity[p], p))
        # Fill order: primary pod first, then pods by descending capacity;
        # within a pod, fullest edges first so the group spans the fewest
        # edge switches possible.
        ordered_edges = sorted(
            by_edge,
            key=lambda key: (
                key[0] != primary,
                -pod_capacity[key[0]],
                key[0],
                -len(by_edge[key]),
                key[1],
            ),
        )
        ordered: List["Server"] = []
        for key in ordered_edges:
            ordered.extend(by_edge[key])
        placement: Dict[int, int] = {}
        edges_used = set()
        pods_used = set()
        spills = 0
        for rank in range(group.size):
            # Servers each offer ranks_per_server slots; oversubscribed
            # groups wrap around rather than failing placement.
            slot = rank // self.ranks_per_server
            server = ordered[slot % len(ordered)]
            placement[rank] = server.server_id
            pod, edge = self._attachment.get(server.server_id, (0, "?"))
            edges_used.add(edge)
            pods_used.add(pod)
            if pod != primary:
                spills += 1
        group.placement = placement
        group.edge_switches_used = len(edges_used)
        group.pods_used = len(pods_used)
        group.cross_pod_spills = spills
        self.groups_placed += 1
        self.cross_pod_spills += spills
