"""Routing: BFS next-hop tables with deterministic ECMP tie-breaking.

The paper's routing "can be either statically generated or dynamically
computed" (§III-B).  The :class:`Router` keeps, per destination, a BFS
shortest-path DAG over the topology: for every node it reaches it stores the
sorted, interned tuple of neighbours one step closer to the destination.  A
route is then a walk down that table — O(path length) per query instead of a
per-pair ``all_shortest_paths`` enumeration — and equal-cost spreading picks
the next hop with a per-node-salted CRC32 of the flow key, so a given flow
id always takes the same path (no packet reordering) while distinct flows
load-balance across the DAG.

Tables grow on demand: a destination's BFS runs only until the queried
source has a hop count, and resumes from its saved frontier when a farther
source is asked for later; next-hop tuples are derived per node on first
use.  A FIFO BFS labels every node at level d-1 before any node at level d,
so a node's next hops are final the moment it is labelled and every answer
equals the one a full BFS would give.  The BFS reads the topology's own
adjacency map (:attr:`Topology.adjacency`) directly; there is no snapshot.
Tables live in an LRU keyed by destination; every fault mutation edits the
map and drops every table via the change-listener hook, so a paused BFS
never resumes over a changed map.

Both network models resolve a transfer between two servers through
:meth:`Router.transfer_plan`.  A pair whose shortest path is unique gets a
cached :class:`RoutePlan` (path and directed hops): ECMP hashes the flow key
only at a multi-way node, so such a route never depends on the key.  A pair
with an equal-cost choice hashes each transfer's key through :meth:`route`,
as before; from its second transfer on, the plan of each path it takes is
cached too.  Plans are dropped with the tables, so none outlives an epoch.

Dynamic power-aware selection (pick the path waking the fewest sleeping
switches) is a memoised DP over the same DAG, exposed via
:meth:`Router.route_power_aware` / :meth:`Router.min_wake_cost` and used by
the joint server-network policy (§IV-D).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, deque
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.network.link import Link
from repro.network.topology import Topology


class _DestTable:
    """BFS shortest-path DAG toward one destination, grown on demand.

    ``dist[n]`` is the hop count from ``n`` to the destination for every
    node labelled so far; ``frontier`` is the paused BFS queue.  Nodes
    unreachable from the destination are never labelled.
    """

    __slots__ = ("dst", "dist", "frontier", "adj", "interned", "hops")

    def __init__(self, dst: str, adj: Dict[str, Dict[str, Link]],
                 interned: Dict[Tuple[str, ...], Tuple[str, ...]]):
        self.dst = dst
        self.dist: Dict[str, int] = {dst: 0}
        self.frontier = deque((dst,))
        self.adj = adj
        self.interned = interned
        # node -> next-hop tuple, filled as routes walk through the node.
        self.hops: Dict[str, Tuple[str, ...]] = {}

    def reach(self, node: str) -> bool:
        """Resume the BFS until ``node`` is labelled; False if unreachable."""
        dist = self.dist
        if node in dist:
            return True
        adj = self.adj
        frontier = self.frontier
        while frontier:
            # Expand a whole node before checking, so a paused BFS never
            # leaves a popped node with unlabelled neighbours.
            u = frontier.popleft()
            d = dist[u] + 1
            for nbr in adj[u]:
                if nbr not in dist:
                    dist[nbr] = d
                    frontier.append(nbr)
            if node in dist:
                return True
        return False

    def next_hops(self, node: str) -> Tuple[str, ...]:
        """Sorted neighbours of labelled ``node`` one hop closer to ``dst``.

        Exact as soon as ``node`` is labelled: every node at level d-1 is
        labelled before the first node at level d.
        """
        nhs = self.hops.get(node)
        if nhs is None:
            dist = self.dist
            d = dist[node] - 1
            nhs = tuple(sorted(n for n in self.adj[node] if dist.get(n, -1) == d))
            nhs = self.interned.setdefault(nhs, nhs)
            self.hops[node] = nhs
        return nhs


class RoutePlan:
    """One resolved route: its node path and its directed ``(link, u, v)``
    hops.

    Plans are shared by every transfer that takes the route, so neither list
    may be mutated.  ``trainable`` belongs to the packet network: the static
    half of its train eligibility for this route, None until it first asks.
    """

    __slots__ = ("path", "hops", "trainable")

    def __init__(self, path: List[str], hops: List[Tuple[Link, str, str]]):
        self.path = path
        self.hops = hops
        self.trainable: Optional[bool] = None


class Router:
    """Next-hop-table route computation over a :class:`Topology`."""

    def __init__(self, topology: Topology, max_cached_destinations: int = 4096):
        if max_cached_destinations < 1:
            raise ValueError(
                f"max_cached_destinations must be >= 1, got {max_cached_destinations}"
            )
        self.topology = topology
        self.max_cached_destinations = max_cached_destinations
        #: Most entries the plan cache holds; past it a transfer's route is
        #: resolved afresh and not kept.
        self.max_cached_plans = 4 * max_cached_destinations
        # destination -> _DestTable, LRU-evicted at max_cached_destinations.
        self._tables: "OrderedDict[str, _DestTable]" = OrderedDict()
        # Next-hop tuples are interned so tables over regular fabrics (where
        # thousands of nodes share the same few-way choice) share storage.
        self._interned: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        # Per-node hash salt so consecutive hops of one flow decorrelate.
        self._salts: Dict[str, int] = {}
        # The one route cache.  (src server id, dst server id) -> the pair's
        # RoutePlan when its shortest path is unique, else its (src node,
        # dst node); and path tuple -> RoutePlan for the paths equal-cost
        # pairs take.  Server ids are ints and node names strings, so the
        # two kinds of key never collide.
        self._plans: Dict[tuple, Union[RoutePlan, Tuple[str, str]]] = {}
        #: Bumped on every invalidation; tables are rebuilt lazily afterwards.
        self.epoch = 0
        #: Destination tables started (telemetry for tests and benchmarks).
        self.table_builds = 0
        # Fault injection mutates topology connectivity; stale next-hop
        # tables through dead components must never be served.
        topology.add_change_listener(self.invalidate_cache)

    # ------------------------------------------------------------------
    # Table construction
    # ------------------------------------------------------------------
    def _table(self, dst: str) -> _DestTable:
        table = self._tables.get(dst)
        if table is not None:
            self._tables.move_to_end(dst)
            return table
        adj = self.topology.adjacency
        if dst not in adj:
            raise ValueError(f"unknown node {dst!r}")
        table = _DestTable(dst, adj, self._interned)
        self.table_builds += 1
        self._tables[dst] = table
        if len(self._tables) > self.max_cached_destinations:
            self._tables.popitem(last=False)
        return table

    def _reached_table(self, src: str, dst: str) -> _DestTable:
        """The table toward ``dst``, grown until ``src`` is labelled."""
        table = self._table(dst)
        if not table.reach(src):
            raise ValueError(f"no path between {src!r} and {dst!r}")
        return table

    def _salt(self, node: str) -> int:
        salt = self._salts.get(node)
        if salt is None:
            # crc32, not hash(): stable across processes (PYTHONHASHSEED),
            # so parallel sweep workers route identically to serial runs.
            salt = zlib.crc32(node.encode("utf-8"))
            self._salts[node] = salt
        return salt

    # ------------------------------------------------------------------
    # Route queries
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str, flow_key: Optional[str] = None) -> List[str]:
        """One shortest path, chosen deterministically per ``flow_key`` (ECMP).

        With no ``flow_key`` the lexicographically smallest shortest path is
        returned (the same path the old sorted-path-list implementation
        served as ``paths[0]``).
        """
        if src == dst:
            return [src]
        next_hops = self._reached_table(src, dst).next_hops
        # Hashed on the first equal-cost choice: many routes never meet one.
        key_hash = None
        path = [src]
        node = src
        while node != dst:
            nhs = next_hops(node)
            if len(nhs) == 1 or flow_key is None:
                node = nhs[0]
            else:
                if key_hash is None:
                    key_hash = zlib.crc32(flow_key.encode("utf-8"))
                node = nhs[(key_hash ^ self._salt(node)) % len(nhs)]
            path.append(node)
        return path

    def transfer_plan(self, src_id: int, dst_id: int, seq: int) -> Optional[RoutePlan]:
        """The route of transfer ``seq`` from server ``src_id`` to server
        ``dst_id`` (distinct), or None while failures partition them.

        Answers what ``route(src, dst, flow_key=f"{src}->{dst}#{seq}")``
        would, over the servers' nodes.  A pair with a unique shortest path
        is answered from its plan, without the key.  A pair's first lookup
        (a miss) costs one :meth:`try_route` plus one walk of its path in
        the table, to tell the two kinds of pair apart.
        """
        plans = self._plans
        pair = (src_id, dst_id)
        entry = plans.get(pair)
        if entry.__class__ is RoutePlan:
            return entry
        if entry is None:
            return self._plan_miss(pair, seq)
        src, dst = entry
        path = self.route(src, dst, f"{src}->{dst}#{seq}")
        key = tuple(path)
        plan = plans.get(key)
        if plan is None:
            plan = RoutePlan(path, self.links_on_path(path))
            self._hold(key, plan)
        return plan

    def _plan_miss(self, pair: Tuple[int, int], seq: int) -> Optional[RoutePlan]:
        topology = self.topology
        src, dst = topology.server_node(pair[0]), topology.server_node(pair[1])
        path = self.try_route(src, dst, f"{src}->{dst}#{seq}")
        if path is None:
            return None
        # The route just walked this table (newest in the LRU, so still
        # held), and every node it left has its next hops derived: reading
        # them while collecting the hops is the one extra walk.
        next_hops = self._tables[dst].hops
        link_between = topology.link_between
        unique = True
        hops = []
        for u, v in zip(path, path[1:]):
            if len(next_hops[u]) > 1:
                unique = False
            hops.append((link_between(u, v), u, v))
        plan = RoutePlan(path, hops)
        # An equal-cost pair's first plan is not kept: a pair that never
        # repeats (every pair of an all-to-all) would only fill the cache.
        self._hold(pair, plan if unique else (src, dst))
        return plan

    def _hold(self, key: tuple, entry: Union[RoutePlan, Tuple[str, str]]) -> None:
        if len(self._plans) < self.max_cached_plans:
            self._plans[key] = entry

    def try_route(self, src: str, dst: str, flow_key: Optional[str] = None) -> Optional[List[str]]:
        """Like :meth:`route` but returns None when no path exists (e.g. the
        destination is partitioned away by failures)."""
        try:
            return self.route(src, dst, flow_key)
        except ValueError:
            return None

    def equal_cost_paths(self, src: str, dst: str) -> List[List[str]]:
        """All shortest node paths from ``src`` to ``dst``, sorted.

        Enumerates the next-hop DAG by DFS; the result can be exponential in
        path diversity, so hot paths should prefer :meth:`route`.
        """
        if src == dst:
            return [[src]]
        next_hops = self._reached_table(src, dst).next_hops
        paths: List[List[str]] = []
        # An explicit DFS (no recursive closure, which would reference
        # itself and leave a cycle per call): ``pending[i]`` iterates the
        # next hops of ``path[i]`` not yet taken.
        path: List[str] = [src]
        pending = [iter(next_hops(src))]
        while pending:
            node = next(pending[-1], None)
            if node is None:
                pending.pop()
                path.pop()
            elif node == dst:
                paths.append(path + [node])
            else:
                path.append(node)
                pending.append(iter(next_hops(node)))
        # next_hops tuples are sorted, so DFS already emits paths in
        # lexicographic order; sort() is a cheap no-op guard.
        paths.sort()
        return paths

    # ------------------------------------------------------------------
    # Power-aware routing (§IV-D)
    # ------------------------------------------------------------------
    def _node_wake_cost(self, node: str) -> int:
        switches = self.topology.switches
        switch = switches.get(node)
        return 0 if switch is None or switch.is_on else 1

    def _wake_dp(self, table: _DestTable) -> Callable[[str], int]:
        """Memoised suffix wake cost over the next-hop DAG.

        ``cost(n)`` is the minimum number of non-ON switches on any shortest
        path from ``n`` to the destination, counting ``n`` itself.  It fills
        the memo with an explicit post-order stack: a recursive closure
        would reference itself and leave a cycle per call.
        """
        next_hops = table.next_hops
        dst = table.dst
        node_cost = self._node_wake_cost
        memo: Dict[str, int] = {dst: node_cost(dst)}

        def cost(node: str) -> int:
            cached = memo.get(node)
            if cached is not None:
                return cached
            stack = [node]
            while stack:
                top = stack[-1]
                nhs = next_hops(top)
                missing = [nh for nh in nhs if nh not in memo]
                if missing:
                    stack.extend(missing)
                    continue
                stack.pop()
                if top not in memo:
                    memo[top] = node_cost(top) + min(memo[nh] for nh in nhs)
            return memo[node]

        return cost

    def route_power_aware(self, src: str, dst: str) -> List[str]:
        """The equal-cost path that wakes the fewest sleeping switches.

        Ties break lexicographically, matching the old
        ``min(paths, key=(wake_cost, path))`` over the sorted path list.
        """
        if src == dst:
            return [src]
        table = self._reached_table(src, dst)
        cost = self._wake_dp(table)
        next_hops = table.next_hops
        path = [src]
        node = src
        while node != dst:
            nhs = next_hops(node)
            if len(nhs) == 1:
                node = nhs[0]
            else:
                # Sorted tuple + stable min => smallest name among the
                # minimum-cost next hops, i.e. the lexicographically
                # smallest minimum-cost continuation.
                node = min(nhs, key=lambda nh: (cost(nh), nh))
            path.append(node)
        return path

    def wake_cost(self, path: List[str]) -> int:
        """Number of non-ON switches along a node path (§IV-D's network cost)."""
        switches = self.topology.switches
        return sum(
            1
            for node in path
            if node in switches and not switches[node].is_on
        )

    def min_wake_cost(self, src: str, dst: str) -> int:
        """Wake cost of the cheapest equal-cost path between two nodes."""
        if src == dst:
            return self._node_wake_cost(src)
        return self._wake_dp(self._reached_table(src, dst))(src)

    # ------------------------------------------------------------------
    def links_on_path(self, path: List[str]) -> List[Tuple[Link, str, str]]:
        """Directed ``(link, from_node, to_node)`` triples along a node path."""
        link_between = self.topology.link_between
        return [(link_between(u, v), u, v) for u, v in zip(path, path[1:])]

    def switches_on_path(self, path: List[str]) -> List:
        """The :class:`Switch` objects traversed by a node path, in order."""
        return [self.topology.switches[n] for n in path if n in self.topology.switches]

    def invalidate_cache(self) -> None:
        """Drop all next-hop tables and route plans (called after mutating
        the topology)."""
        self._tables.clear()
        self._plans.clear()
        self.epoch += 1
