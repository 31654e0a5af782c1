"""Data center topologies (paper §III-B).

HolDCSim "offers network configuration corresponding to several
state-of-the-art topologies": fat-tree and flattened butterfly for
switch-based architectures, CamCube for server-based architectures, and
BCube for hybrid architectures.  All builders return a :class:`Topology`
holding its adjacency map (node -> neighbour -> link over the links that are
up, which the router's BFS reads), the :class:`~repro.network.switch.Switch`
objects (for power), and the :class:`~repro.network.link.Link` objects (for
capacity and activity tracking).  The simulator needs no graph library: the
map is the whole graph, and faults edit it in place.

Node naming convention: servers are ``h{i}`` where ``i`` is the server id
used by :class:`repro.server.Server`; switches carry descriptive names
(``edge-0-1``, ``core-0``, ``bcube-l1-3``...).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.config import LinkConfig, SwitchConfig, datacenter_switch
from repro.core.engine import Engine
from repro.network.link import Link
from repro.network.switch import Switch


class Topology:
    """A network graph of servers and switches joined by links."""

    def __init__(self, engine: Engine, name: str = "topology"):
        self.engine = engine
        self.name = name
        #: node -> neighbour -> link, over the links that are up; every node
        #: has an entry, so a failed node maps to an empty dict.
        self.adjacency: Dict[str, Dict[str, Link]] = {}
        self.server_nodes: List[str] = []
        # server id -> node key, so per-transfer lookups skip the f-string.
        self._server_node_of: Dict[int, str] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        # node -> keys of its links, in ``links`` order (filled by connect),
        # so a node fault or repair touches only its own links.
        self._incident: Dict[str, List[Tuple[str, str]]] = {}
        # Fault state (driven by repro.faults): failed components are removed
        # from the adjacency map but keep their Switch/Link objects so power
        # accounting and repair can restore them.
        self.failed_nodes: Set[str] = set()
        self.failed_links: Set[Tuple[str, str]] = set()
        self._change_listeners: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_server(self, server_id: Optional[int] = None) -> str:
        """Add a server node; returns its node key (``h{i}``)."""
        sid = len(self.server_nodes) if server_id is None else server_id
        node = f"h{sid}"
        if node in self.adjacency:
            raise ValueError(f"server node {node!r} already exists")
        self.adjacency[node] = {}
        self._incident[node] = []
        self.server_nodes.append(node)
        self._server_node_of[sid] = node
        return node

    def add_switch(
        self, name: str, config: SwitchConfig, n_ports: Optional[int] = None
    ) -> Switch:
        """Add a switch node backed by a :class:`Switch` power model."""
        if name in self.adjacency:
            raise ValueError(f"switch node {name!r} already exists")
        switch = Switch(self.engine, config, name=name, n_ports=n_ports)
        self.adjacency[name] = {}
        self._incident[name] = []
        self.switches[name] = switch
        return switch

    def connect(self, u: str, v: str, link_config: Optional[LinkConfig] = None) -> Link:
        """Join two nodes with a link, allocating switch ports as needed."""
        for node in (u, v):
            if node not in self.adjacency:
                raise ValueError(f"unknown node {node!r}")
        key = self._link_key(u, v)
        if key in self.links:
            raise ValueError(f"link {u!r}<->{v!r} already exists")
        link = Link(u, v, link_config or LinkConfig())
        for node in (u, v):
            if node in self.switches:
                link.attach_port(node, self.switches[node].allocate_port())
        self.links[key] = link
        self._incident[u].append(key)
        if v != u:
            self._incident[v].append(key)
        self._refresh_edge(key)
        return link

    @staticmethod
    def _link_key(u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    # ------------------------------------------------------------------
    # Fault state (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def add_change_listener(self, callback: Callable[[], None]) -> None:
        """Register a callback fired whenever connectivity changes
        (routers use this to invalidate their path caches)."""
        self._change_listeners.append(callback)

    def fail_link(self, u: str, v: str) -> bool:
        """Take a link down; returns False if it was already failed."""
        key = self._link_key(u, v)
        if key not in self.links:
            raise KeyError(f"no link between {u!r} and {v!r}")
        if key in self.failed_links:
            return False
        self.failed_links.add(key)
        self._refresh_edge(key)
        self._notify_change()
        return True

    def repair_link(self, u: str, v: str) -> bool:
        """Bring a failed link back; returns False if it was not failed."""
        key = self._link_key(u, v)
        if key not in self.links:
            raise KeyError(f"no link between {u!r} and {v!r}")
        if key not in self.failed_links:
            return False
        self.failed_links.discard(key)
        self._refresh_edge(key)
        self._notify_change()
        return True

    def fail_node(self, node: str) -> bool:
        """Take a node (switch or server) down with all incident links."""
        if node not in self.adjacency:
            raise KeyError(f"unknown node {node!r}")
        if node in self.failed_nodes:
            return False
        self.failed_nodes.add(node)
        for key in self._incident[node]:
            self._refresh_edge(key)
        self._notify_change()
        return True

    def repair_node(self, node: str) -> bool:
        """Bring a failed node back, restoring its non-failed incident links."""
        if node not in self.adjacency:
            raise KeyError(f"unknown node {node!r}")
        if node not in self.failed_nodes:
            return False
        self.failed_nodes.discard(node)
        for key in self._incident[node]:
            self._refresh_edge(key)
        self._notify_change()
        return True

    def link_is_up(self, u: str, v: str) -> bool:
        """True when the link and both endpoints are healthy."""
        return self._edge_is_up(self._link_key(u, v))

    def node_is_up(self, node: str) -> bool:
        return node not in self.failed_nodes

    def path_is_up(self, path: List[str]) -> bool:
        """True when every node and every hop of a node path is healthy."""
        if any(node in self.failed_nodes for node in path):
            return False
        adjacency = self.adjacency
        return all(v in adjacency[u] for u, v in zip(path, path[1:]))

    def _edge_is_up(self, key: Tuple[str, str]) -> bool:
        return (
            key not in self.failed_links
            and key[0] not in self.failed_nodes
            and key[1] not in self.failed_nodes
        )

    def _refresh_edge(self, key: Tuple[str, str]) -> None:
        """Make the adjacency map hold link ``key`` exactly when it is up."""
        u, v = key
        if self._edge_is_up(key):
            link = self.links[key]
            self.adjacency[u][v] = link
            self.adjacency[v][u] = link
        else:
            self.adjacency[u].pop(v, None)
            self.adjacency[v].pop(u, None)

    def _notify_change(self) -> None:
        for callback in self._change_listeners:
            callback()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def server_node(self, server_id: int) -> str:
        """Node key for a server id (``h{i}``); validates existence."""
        node = self._server_node_of.get(server_id)
        if node is None:
            raise KeyError(f"no server node for id {server_id}")
        return node

    def link_between(self, u: str, v: str) -> Link:
        """The link joining two adjacent nodes."""
        try:
            return self.links[self._link_key(u, v)]
        except KeyError:
            raise KeyError(f"no link between {u!r} and {v!r}") from None

    def is_switch(self, node: str) -> bool:
        return node in self.switches

    @property
    def n_servers(self) -> int:
        return len(self.server_nodes)

    @property
    def n_switches(self) -> int:
        return len(self.switches)

    def is_connected(self) -> bool:
        """True if every node can reach every other node over links that are
        up.  A failed node keeps its entry but loses its links, so it
        disconnects any topology of two or more nodes."""
        adjacency = self.adjacency
        if not adjacency:
            return True
        start = next(iter(adjacency))
        seen = {start}
        stack = [start]
        while stack:
            for nbr in adjacency[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen) == len(adjacency)

    # ------------------------------------------------------------------
    # Network-wide power telemetry
    # ------------------------------------------------------------------
    def network_power_w(self) -> float:
        """Instantaneous power across all switches."""
        return sum(sw.power_w() for sw in self.switches.values())

    def network_energy_j(self, now: Optional[float] = None) -> float:
        """Total switch energy up to ``now``."""
        return sum(sw.energy_j(now) for sw in self.switches.values())

    def __repr__(self) -> str:
        return (
            f"<Topology {self.name}: {self.n_servers} servers, "
            f"{self.n_switches} switches, {len(self.links)} links>"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def star(
    engine: Engine,
    n_servers: int,
    switch_config: Optional[SwitchConfig] = None,
    link_config: Optional[LinkConfig] = None,
) -> Topology:
    """All servers attached to a single switch (used by the §V-B validation)."""
    if n_servers <= 0:
        raise ValueError(f"need at least one server, got {n_servers}")
    topo = Topology(engine, name=f"star-{n_servers}")
    config = switch_config or datacenter_switch(ports_per_linecard=n_servers)
    switch = topo.add_switch("sw0", config, n_ports=n_servers)
    for i in range(n_servers):
        node = topo.add_server(i)
        topo.connect(node, switch.name, link_config)
    return topo


def fat_tree(
    engine: Engine,
    k: int,
    switch_config: Optional[SwitchConfig] = None,
    link_config: Optional[LinkConfig] = None,
) -> Topology:
    """A k-ary fat-tree (Al-Fares et al., SIGCOMM'08) with full bisection
    bandwidth: k pods of k/2 edge + k/2 aggregation switches, (k/2)^2 core
    switches, and k^3/4 servers.  This is the topology of Fig. 10.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"fat-tree arity k must be even and >= 2, got {k}")
    half = k // 2
    topo = Topology(engine, name=f"fat-tree-{k}")
    cfg = switch_config or datacenter_switch(n_linecards=2, ports_per_linecard=half)

    core = [
        topo.add_switch(f"core-{i}-{j}", cfg, n_ports=k)
        for i in range(half)
        for j in range(half)
    ]
    for pod in range(k):
        aggs = [topo.add_switch(f"agg-{pod}-{s}", cfg, n_ports=k) for s in range(half)]
        edges = [topo.add_switch(f"edge-{pod}-{s}", cfg, n_ports=k) for s in range(half)]
        for s, edge in enumerate(edges):
            for agg in aggs:
                topo.connect(edge.name, agg.name, link_config)
            for h in range(half):
                server_id = pod * half * half + s * half + h
                node = topo.add_server(server_id)
                topo.connect(node, edge.name, link_config)
        # Aggregation switch s of every pod uplinks to core row s.
        for s, agg in enumerate(aggs):
            for j in range(half):
                topo.connect(agg.name, core[s * half + j].name, link_config)
    return topo


def flattened_butterfly(
    engine: Engine,
    rows: int,
    cols: int,
    servers_per_switch: int,
    switch_config: Optional[SwitchConfig] = None,
    link_config: Optional[LinkConfig] = None,
) -> Topology:
    """A 2-D flattened butterfly (Kim, Dally & Abts): a rows×cols switch grid
    with every row and every column fully connected, plus concentration
    (``servers_per_switch`` hosts per switch)."""
    if rows <= 0 or cols <= 0 or servers_per_switch <= 0:
        raise ValueError("rows, cols and servers_per_switch must be positive")
    topo = Topology(engine, name=f"flattened-butterfly-{rows}x{cols}")
    ports = servers_per_switch + (rows - 1) + (cols - 1)
    cfg = switch_config or datacenter_switch(ports_per_linecard=max(ports, 1))
    grid = [
        [topo.add_switch(f"fb-{r}-{c}", cfg, n_ports=ports) for c in range(cols)]
        for r in range(rows)
    ]
    server_id = 0
    for r in range(rows):
        for c in range(cols):
            for _ in range(servers_per_switch):
                node = topo.add_server(server_id)
                topo.connect(node, grid[r][c].name, link_config)
                server_id += 1
    for r in range(rows):
        for c1 in range(cols):
            for c2 in range(c1 + 1, cols):
                topo.connect(grid[r][c1].name, grid[r][c2].name, link_config)
    for c in range(cols):
        for r1 in range(rows):
            for r2 in range(r1 + 1, rows):
                topo.connect(grid[r1][c].name, grid[r2][c].name, link_config)
    return topo


def bcube(
    engine: Engine,
    n: int,
    levels: int = 1,
    switch_config: Optional[SwitchConfig] = None,
    link_config: Optional[LinkConfig] = None,
) -> Topology:
    """BCube(n, k) (Guo et al., SIGCOMM'09): the hybrid architecture.

    ``n**(levels+1)`` servers; ``levels+1`` layers of ``n**levels`` n-port
    switches.  Server ``s`` (written in base-n digits) connects at level
    ``l`` to the switch identified by its digits with digit ``l`` removed.
    Servers participate in forwarding (hybrid server/switch routing).
    """
    if n < 2:
        raise ValueError(f"BCube arity n must be >= 2, got {n}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    k = levels
    n_servers = n ** (k + 1)
    topo = Topology(engine, name=f"bcube-{n}-{k}")
    cfg = switch_config or datacenter_switch(ports_per_linecard=n)
    for sid in range(n_servers):
        topo.add_server(sid)
    for level in range(k + 1):
        for w in range(n ** k):
            switch = topo.add_switch(f"bcube-l{level}-{w}", cfg, n_ports=n)
            # Expand w's digits and insert digit `a` at position `level`.
            digits = []
            rest = w
            for _ in range(k):
                digits.append(rest % n)
                rest //= n
            for a in range(n):
                server_digits = digits[:level] + [a] + digits[level:]
                sid = sum(d * (n ** i) for i, d in enumerate(server_digits))
                topo.connect(topo.server_node(sid), switch.name, link_config)
    return topo


def camcube(
    engine: Engine,
    side: int,
    link_config: Optional[LinkConfig] = None,
) -> Topology:
    """CamCube (Abu-Libdeh et al., SIGCOMM'10): the server-only architecture.

    ``side**3`` servers in a 3-D torus; each server links to its six
    neighbours and doubles as a router (no switches at all).
    """
    if side < 2:
        raise ValueError(f"torus side must be >= 2, got {side}")
    topo = Topology(engine, name=f"camcube-{side}")

    def sid(x: int, y: int, z: int) -> int:
        return (x % side) * side * side + (y % side) * side + (z % side)

    for i in range(side ** 3):
        topo.add_server(i)
    for x in range(side):
        for y in range(side):
            for z in range(side):
                here = topo.server_node(sid(x, y, z))
                for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    there = topo.server_node(sid(x + dx, y + dy, z + dz))
                    if here != there and Topology._link_key(here, there) not in topo.links:
                        topo.connect(here, there, link_config)
    return topo
