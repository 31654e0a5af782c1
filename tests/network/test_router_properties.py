"""Property-based tests for routing over randomized topologies."""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.network.routing import RoutePlan, Router
from repro.network.topology import bcube, camcube, fat_tree, flattened_butterfly, star
from tests.network._reference import to_networkx


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
    front by reading the topology's adjacency map directly."""

    def __init__(self, adj, dst):
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
        adj = self.topology.adjacency
        if dst not in adj:
            raise ValueError(f"unknown node {dst!r}")
        return _FullTable(adj, dst)


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
    nodes = sorted(topo.adjacency)

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
    graph = to_networkx(topo)
    servers = topo.server_nodes
    for src in servers[:4]:
        for dst in servers[-4:]:
            if src != dst:
                expected = sorted(nx.all_shortest_paths(graph, src, dst))
                assert router.equal_cost_paths(src, dst) == expected


def test_far_source_after_near_one_resumes_the_same_table():
    topo = fat_tree(Engine(), 4)
    lazy, ref = Router(topo), _ReferenceRouter(topo)
    near = lazy.route("h1", "h0")
    table = lazy._tables["h0"]
    grown = len(table.dist)
    assert grown < len(topo.adjacency)
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
    edge = next(iter(topo.adjacency["h0"]))
    topo.fail_link("h0", edge)
    for src, dst in (("h0", "h15"), ("h15", "h0")):
        assert _queries(lazy, src, dst, "k") == _queries(ref, src, dst, "k")
        with pytest.raises(ValueError, match="no path between"):
            lazy.route(src, dst)
    # The exhausted table keeps answering for reachable sources.
    assert lazy.route("h15", "h1") == ref.route("h15", "h1")
    assert lazy.route("h0", "h0") == ["h0"]


def test_invalidation_drops_tables_over_the_live_adjacency():
    """A fault edits the map the tables read, so it must drop every table:
    a paused BFS may not resume over a changed map."""
    topo = fat_tree(Engine(), 4)
    router = Router(topo)
    path = router.route("h0", "h15")
    victim = path[len(path) // 2]
    topo.fail_node(victim)
    assert not router._tables
    assert victim not in router.route("h0", "h15")
    assert topo.adjacency[victim] == {}
    assert router._tables["h15"].adj is topo.adjacency


# ----------------------------------------------------------------------
# Transfer route plans
# ----------------------------------------------------------------------
FAULT_ACTIONS = ("fail_link", "repair_link", "fail_node", "repair_node")


@given(
    topo_name=st.sampled_from(sorted(builders())),
    steps=st.lists(
        st.tuples(
            st.sampled_from(("transfer",) * 4 + FAULT_ACTIONS),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=10**6),
        ),
        max_size=40,
    ),
    max_cached_destinations=st.sampled_from((1, 2, 4096)),
)
@settings(max_examples=60, deadline=None)
def test_transfer_plans_answer_like_a_fresh_router(topo_name, steps,
                                                   max_cached_destinations):
    """Every transfer's plan equals ``route`` with the transfer's flow key
    on a fresh router over the same faulted topology; a pair with an
    equal-cost choice always goes through ``route``; no plan outlives an
    epoch; and the cache stays within its bound."""
    topo = builders()[topo_name](Engine())
    router = Router(topo, max_cached_destinations=max_cached_destinations)
    routed = []
    plain_route = router.route

    def counting_route(src, dst, flow_key=None):
        routed.append((src, dst))
        return plain_route(src, dst, flow_key)

    router.route = counting_route
    n = topo.n_servers
    nodes = topo.server_nodes + list(topo.switches)
    links = sorted(topo.links)
    issued, stale = [], []
    seq = 0
    for action, a, b in steps:
        if action != "transfer":
            if action.endswith("_link"):
                changed = getattr(topo, action)(*links[b % len(links)])
            else:
                changed = getattr(topo, action)(nodes[b % len(nodes)])
            if changed:
                assert not router._plans
                stale += issued
                issued = []
            continue
        src_id, dst_id = a % n, (a + 1 + b % (n - 1)) % n
        seq += 1
        epoch = router.epoch
        routed.clear()
        plan = router.transfer_plan(src_id, dst_id, seq)
        assert router.epoch == epoch
        src, dst = topo.server_node(src_id), topo.server_node(dst_id)
        fresh = Router(topo)
        expected = fresh.try_route(src, dst, flow_key=f"{src}->{dst}#{seq}")
        if expected is None:
            assert plan is None
            continue
        assert plan.path == expected
        assert plan.hops == fresh.links_on_path(expected)
        assert all(plan is not old for old in stale)
        issued.append(plan)
        if len(fresh.equal_cost_paths(src, dst)) > 1:
            assert routed == [(src, dst)]
            assert not isinstance(router._plans.get((src_id, dst_id)), RoutePlan)
        elif not routed:
            assert router._plans[(src_id, dst_id)] is plan
        assert len(router._plans) <= router.max_cached_plans


def test_plan_cache_stops_at_its_bound():
    """Past its bound the cache keeps nothing new, and routes still come out
    right."""
    topo = fat_tree(Engine(), 4)
    router, fresh = Router(topo, max_cached_destinations=1), Router(topo)
    assert router.max_cached_plans == 4
    seq = 0
    for _ in range(2):
        for src_id in range(topo.n_servers):
            for dst_id in range(topo.n_servers):
                if src_id == dst_id:
                    continue
                seq += 1
                src, dst = topo.server_node(src_id), topo.server_node(dst_id)
                plan = router.transfer_plan(src_id, dst_id, seq)
                assert plan.path == fresh.route(src, dst, flow_key=f"{src}->{dst}#{seq}")
                assert plan.hops == fresh.links_on_path(plan.path)
                assert len(router._plans) <= 4
    assert len(router._plans) == 4


def test_max_cached_destinations_must_be_positive():
    with pytest.raises(ValueError, match="max_cached_destinations must be >= 1"):
        Router(star(Engine(), 2), max_cached_destinations=0)


@given(
    topo_name=st.sampled_from(sorted(builders())),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_power_aware_queries_match_brute_force_over_equal_cost_paths(topo_name, seed):
    """The wake-cost DP answers what enumerating every shortest path does:
    the cheapest path's cost, and the cheapest path with ties broken by
    name (the old ``min(paths, key=(wake_cost, path))``)."""
    import numpy as np

    topo = builders()[topo_name](Engine())
    router = Router(topo)
    rng = np.random.default_rng(seed)
    for name in sorted(topo.switches):
        if rng.random() < 0.5:
            topo.switches[name].sleep()
    nodes = sorted(topo.adjacency)
    for _ in range(8):
        src, dst = (nodes[i] for i in rng.integers(len(nodes), size=2))
        paths = router.equal_cost_paths(src, dst)
        assert router.min_wake_cost(src, dst) == min(map(router.wake_cost, paths))
        assert router.route_power_aware(src, dst) == min(
            paths, key=lambda p: (router.wake_cost(p), p)
        )


def test_router_queries_leave_no_cyclic_garbage():
    # Recursive closures would reference themselves and leave a cycle per
    # call; the joint manager asks for wake costs on every activation.
    import gc

    topo = fat_tree(Engine(), 4)
    router = Router(topo)
    for name in sorted(topo.switches)[::3]:
        topo.switches[name].sleep()
    servers = topo.server_nodes
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for src in servers[:4]:
            for dst in servers[-4:]:
                router.equal_cost_paths(src, dst)
                router.route_power_aware(src, dst)
                router.min_wake_cost(src, dst)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
