"""Property-based tests for routing over randomized topologies."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.network.routing import Router
from repro.network.topology import bcube, camcube, fat_tree, flattened_butterfly, star


def builders():
    return {
        "fat_tree": lambda e: fat_tree(e, 4),
        "bcube": lambda e: bcube(e, 3, 1),
        "camcube": lambda e: camcube(e, 3),
        "butterfly": lambda e: flattened_butterfly(e, 2, 3, 2),
        "star": lambda e: star(e, 9),
    }


@given(
    topo_name=st.sampled_from(sorted(builders())),
    pair_seed=st.integers(min_value=0, max_value=10_000),
    flow_key=st.text(min_size=0, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_routes_are_valid_walks(topo_name, pair_seed, flow_key):
    import numpy as np

    engine = Engine()
    topo = builders()[topo_name](engine)
    router = Router(topo)
    rng = np.random.default_rng(pair_seed)
    n = topo.n_servers
    src, dst = rng.choice(n, size=2, replace=False)
    path = router.route(f"h{src}", f"h{dst}", flow_key=flow_key or None)

    # Endpoints correct.
    assert path[0] == f"h{src}"
    assert path[-1] == f"h{dst}"
    # No repeated nodes (shortest paths are simple).
    assert len(set(path)) == len(path)
    # Every hop is an existing link.
    for u, v in zip(path, path[1:]):
        topo.link_between(u, v)
    # Intermediate nodes are switches in switch-based topologies; in
    # server-only CamCube they are servers doing symbiotic forwarding.
    if topo_name in ("fat_tree", "star", "butterfly"):
        for node in path[1:-1]:
            assert topo.is_switch(node)
    if topo_name == "camcube":
        assert topo.n_switches == 0


@given(pair_seed=st.integers(min_value=0, max_value=3000))
@settings(max_examples=30, deadline=None)
def test_power_aware_route_is_equal_cost(pair_seed):
    """Power-aware selection picks among *shortest* paths only."""
    import numpy as np

    engine = Engine()
    topo = fat_tree(engine, 4)
    router = Router(topo)
    rng = np.random.default_rng(pair_seed)
    src, dst = rng.choice(16, size=2, replace=False)
    base = router.route(f"h{src}", f"h{dst}")
    power_aware = router.route_power_aware(f"h{src}", f"h{dst}")
    assert len(power_aware) == len(base)


def test_cache_invalidation():
    engine = Engine()
    topo = star(engine, 3)
    router = Router(topo)
    router.route("h0", "h1")
    assert router._tables
    epoch = router.epoch
    router.invalidate_cache()
    assert not router._tables
    assert router.epoch == epoch + 1


def test_ecmp_choice_deterministic_across_table_rebuilds():
    """The same flow key must map to the same path before and after the
    next-hop tables are dropped and rebuilt (ECMP must not depend on build
    order or process state)."""
    engine = Engine()
    topo = fat_tree(engine, 4)
    router = Router(topo)
    keys = [f"flow-{i}" for i in range(64)]
    before = {k: router.route("h0", "h15", flow_key=k) for k in keys}
    builds = router.table_builds
    router.invalidate_cache()
    after = {k: router.route("h0", "h15", flow_key=k) for k in keys}
    assert router.table_builds > builds  # tables genuinely rebuilt
    assert after == before


def test_next_hop_tables_invalidated_by_topology_faults():
    """Fault mutations must invalidate the tables via the change listener:
    routes computed after a failure avoid the dead component, and repair
    restores the original routes."""
    engine = Engine()
    topo = fat_tree(engine, 4)
    router = Router(topo)
    original = router.route("h0", "h15", flow_key="f")
    # Mid-path (core) switch: failing an edge switch would partition h0.
    victim = original[len(original) // 2]
    assert topo.is_switch(victim)
    epoch = router.epoch

    topo.fail_node(victim)
    assert router.epoch > epoch
    rerouted = router.route("h0", "h15", flow_key="f")
    assert victim not in rerouted
    for k in range(32):
        assert victim not in router.route("h0", "h15", flow_key=f"k{k}")

    topo.repair_node(victim)
    assert router.route("h0", "h15", flow_key="f") == original


def test_link_fault_churn_keeps_tables_consistent():
    """Repeated link fail/repair cycles: every served route must be a valid
    walk over the *current* live topology."""
    engine = Engine()
    topo = fat_tree(engine, 4)
    router = Router(topo)
    base = router.route("h0", "h15", flow_key="churn")
    # Fail a mid-path (agg-core) link; the host's single uplink would
    # partition it instead of forcing a detour.
    u, v = base[2], base[3]
    for _ in range(3):
        topo.fail_link(u, v)
        path = router.route("h0", "h15", flow_key="churn")
        hops = set(zip(path, path[1:]))
        assert (u, v) not in hops and (v, u) not in hops
        for a, b in zip(path, path[1:]):
            assert topo.path_is_up([a, b])
        topo.repair_link(u, v)
        assert router.route("h0", "h15", flow_key="churn") == base


# ----------------------------------------------------------------------
# Lazy tables against a full-BFS reference
# ----------------------------------------------------------------------
class _FullTable:
    """Reference next-hop table: the whole BFS DAG toward ``dst``, built up
    front by reading the networkx graph directly."""

    def __init__(self, graph, dst):
        adj = graph.adj
        dist = {dst: 0}
        frontier = deque((dst,))
        while frontier:
            node = frontier.popleft()
            d = dist[node] + 1
            for nbr in adj[node]:
                if nbr not in dist:
                    dist[nbr] = d
                    frontier.append(nbr)
        self.dst = dst
        self.dist = dist
        self._next_hops = {
            node: tuple(sorted(n for n in adj[node] if dist.get(n, -1) == d - 1))
            for node, d in dist.items()
            if node != dst
        }

    def reach(self, node):
        return node in self.dist

    def next_hops(self, node):
        return self._next_hops[node]


class _ReferenceRouter(Router):
    """The same queries served from eagerly built, uncached tables."""

    def _table(self, dst):
        graph = self.topology.graph
        if dst not in graph:
            raise ValueError(f"unknown node {dst!r}")
        return _FullTable(graph, dst)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except ValueError as exc:
        return ("error", str(exc))


def _queries(router, src, dst, key):
    return (
        _outcome(router.route, src, dst),
        _outcome(router.route, src, dst, key),
        _outcome(router.equal_cost_paths, src, dst),
        _outcome(router.route_power_aware, src, dst),
        _outcome(router.min_wake_cost, src, dst),
    )


def _assert_same(lazy, ref, pairs):
    for src, dst, key in pairs:
        assert _queries(lazy, src, dst, key) == _queries(ref, src, dst, key), (src, dst)


@given(
    topo_name=st.sampled_from(sorted(builders())),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_lazy_tables_answer_like_full_bfs(topo_name, seed):
    """Every query, on a sleeping and then faulted fabric, matches a router
    whose tables are full BFS DAGs built fresh per query."""
    import numpy as np

    engine = Engine()
    topo = builders()[topo_name](engine)
    lazy, ref = Router(topo), _ReferenceRouter(topo)
    rng = np.random.default_rng(seed)
    nodes = sorted(topo.graph.nodes)

    def random_pairs(n):
        return [
            (nodes[rng.integers(len(nodes))], nodes[rng.integers(len(nodes))], f"k{i}")
            for i in range(n)
        ]

    _assert_same(lazy, ref, random_pairs(12))
    switches = sorted(topo.switches)
    for name in switches:
        if rng.random() < 0.4:
            topo.switches[name].sleep()
    _assert_same(lazy, ref, random_pairs(12))

    victim = nodes[rng.integers(len(nodes))]
    link = sorted(topo.links)[rng.integers(len(topo.links))]
    topo.fail_node(victim)
    to_and_from_victim = [(victim, nodes[0], "v"), (nodes[0], victim, "v")]
    _assert_same(lazy, ref, random_pairs(12) + to_and_from_victim)
    topo.fail_link(*link)
    _assert_same(lazy, ref, random_pairs(12))
    topo.repair_node(victim)
    topo.repair_link(*link)
    _assert_same(lazy, ref, random_pairs(12))


@pytest.mark.parametrize("topo_name", sorted(builders()))
def test_equal_cost_paths_match_networkx(topo_name):
    import networkx as nx

    topo = builders()[topo_name](Engine())
    router = Router(topo)
    servers = topo.server_nodes
    for src in servers[:4]:
        for dst in servers[-4:]:
            if src != dst:
                expected = sorted(nx.all_shortest_paths(topo.graph, src, dst))
                assert router.equal_cost_paths(src, dst) == expected


def test_far_source_after_near_one_resumes_the_same_table():
    topo = fat_tree(Engine(), 4)
    lazy, ref = Router(topo), _ReferenceRouter(topo)
    near = lazy.route("h1", "h0")
    table = lazy._tables["h0"]
    grown = len(table.dist)
    assert grown < topo.graph.number_of_nodes()
    assert near == ref.route("h1", "h0")
    # h15 sits in another pod: the paused BFS resumes on the same table.
    pairs = [("h15", "h0", "far"), ("h4", "h0", "pod"), ("h1", "h0", "near")]
    _assert_same(lazy, ref, pairs)
    assert lazy.table_builds == 1
    assert len(table.dist) > grown


def test_unknown_and_unreachable_nodes_raise_as_before():
    topo = fat_tree(Engine(), 4)
    lazy, ref = Router(topo), _ReferenceRouter(topo)
    for src, dst in (("h0", "nope"), ("nope", "h0")):
        assert _queries(lazy, src, dst, "k") == _queries(ref, src, dst, "k")
    with pytest.raises(ValueError, match="unknown node"):
        lazy.route("h0", "nope")
    with pytest.raises(ValueError, match="no path between"):
        lazy.route("nope", "h0")
    # Partition h0 by failing its only uplink: both directions lose it.
    edge = next(iter(topo.graph.adj["h0"]))
    topo.fail_link("h0", edge)
    for src, dst in (("h0", "h15"), ("h15", "h0")):
        assert _queries(lazy, src, dst, "k") == _queries(ref, src, dst, "k")
        with pytest.raises(ValueError, match="no path between"):
            lazy.route(src, dst)
    # The exhausted table keeps answering for reachable sources.
    assert lazy.route("h15", "h1") == ref.route("h15", "h1")
    assert lazy.route("h0", "h0") == ["h0"]


def test_invalidation_drops_the_adjacency_snapshot():
    topo = fat_tree(Engine(), 4)
    router = Router(topo)
    path = router.route("h0", "h15")
    victim = path[len(path) // 2]
    topo.fail_node(victim)
    assert router._adj is None
    assert victim not in router.route("h0", "h15")
    assert router._adj[victim] == ()
