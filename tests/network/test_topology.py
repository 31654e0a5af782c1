"""Tests for topology builders: sizes, degrees, connectivity."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LinkConfig, datacenter_switch
from repro.core.engine import Engine
from repro.network.topology import (
    Topology,
    bcube,
    camcube,
    fat_tree,
    flattened_butterfly,
    star,
)
from tests.network._reference import to_networkx


class TestTopologyPrimitives:
    def test_add_server_and_lookup(self):
        topo = Topology(Engine())
        node = topo.add_server(3)
        assert node == "h3"
        assert topo.server_node(3) == "h3"

    def test_duplicate_server_rejected(self):
        topo = Topology(Engine())
        topo.add_server(0)
        with pytest.raises(ValueError):
            topo.add_server(0)

    def test_missing_server_raises(self):
        topo = Topology(Engine())
        with pytest.raises(KeyError):
            topo.server_node(9)

    def test_connect_unknown_node_raises(self):
        topo = Topology(Engine())
        topo.add_server(0)
        with pytest.raises(ValueError):
            topo.connect("h0", "sw-missing")

    def test_duplicate_link_rejected(self):
        topo = Topology(Engine())
        topo.add_server(0)
        topo.add_server(1)
        topo.connect("h0", "h1")
        with pytest.raises(ValueError):
            topo.connect("h1", "h0")

    def test_link_between_is_symmetric(self):
        topo = Topology(Engine())
        topo.add_server(0)
        topo.add_server(1)
        link = topo.connect("h0", "h1")
        assert topo.link_between("h1", "h0") is link

    def test_connect_allocates_switch_ports(self):
        engine = Engine()
        topo = Topology(engine)
        switch = topo.add_switch("sw0", datacenter_switch(), n_ports=2)
        topo.add_server(0)
        topo.add_server(1)
        topo.connect("h0", "sw0")
        topo.connect("h1", "sw0")
        assert all(p.link is not None for p in switch.ports)
        topo.add_server(2)
        with pytest.raises(RuntimeError):
            topo.connect("h2", "sw0")  # out of ports


class TestStar:
    def test_shape(self):
        topo = star(Engine(), 24)
        assert topo.n_servers == 24
        assert topo.n_switches == 1
        assert len(topo.links) == 24
        assert topo.is_connected()

    def test_requires_servers(self):
        with pytest.raises(ValueError):
            star(Engine(), 0)


class TestFatTree:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_canonical_counts(self, k):
        topo = fat_tree(Engine(), k)
        assert topo.n_servers == k**3 // 4
        assert topo.n_switches == 5 * k**2 // 4
        assert topo.is_connected()

    def test_rejects_odd_arity(self):
        with pytest.raises(ValueError):
            fat_tree(Engine(), 3)

    def test_every_switch_has_k_links(self):
        k = 4
        topo = fat_tree(Engine(), k)
        for name in topo.switches:
            assert len(topo.adjacency[name]) == k

    def test_servers_have_one_uplink(self):
        topo = fat_tree(Engine(), 4)
        for node in topo.server_nodes:
            assert len(topo.adjacency[node]) == 1

    def test_full_bisection_path_diversity(self):
        """Cross-pod server pairs see (k/2)^2 equal-cost paths (via any core)."""
        import networkx as nx

        topo = fat_tree(Engine(), 4)
        paths = list(nx.all_shortest_paths(to_networkx(topo), "h0", "h15"))
        assert len(paths) == 4


class TestFlattenedButterfly:
    def test_shape(self):
        topo = flattened_butterfly(Engine(), rows=3, cols=4, servers_per_switch=2)
        assert topo.n_switches == 12
        assert topo.n_servers == 24
        assert topo.is_connected()

    def test_row_and_column_full_mesh(self):
        rows, cols = 3, 4
        topo = flattened_butterfly(Engine(), rows, cols, servers_per_switch=1)
        # Each switch: (cols-1) row links + (rows-1) column links + 1 server.
        for name in topo.switches:
            assert len(topo.adjacency[name]) == (cols - 1) + (rows - 1) + 1

    def test_switch_diameter_is_two(self):
        import networkx as nx

        topo = flattened_butterfly(Engine(), 3, 3, servers_per_switch=1)
        switch_graph = to_networkx(topo).subgraph(topo.switches)
        assert nx.diameter(switch_graph) <= 2

    def test_validates(self):
        with pytest.raises(ValueError):
            flattened_butterfly(Engine(), 0, 2, 1)


class TestBCube:
    @pytest.mark.parametrize("n,levels", [(2, 1), (4, 1), (3, 2)])
    def test_canonical_counts(self, n, levels):
        topo = bcube(Engine(), n, levels)
        assert topo.n_servers == n ** (levels + 1)
        assert topo.n_switches == (levels + 1) * n**levels
        assert topo.is_connected()

    def test_server_degree_is_levels_plus_one(self):
        topo = bcube(Engine(), 4, 1)
        for node in topo.server_nodes:
            assert len(topo.adjacency[node]) == 2

    def test_switch_degree_is_n(self):
        topo = bcube(Engine(), 4, 1)
        for name in topo.switches:
            assert len(topo.adjacency[name]) == 4

    def test_validates(self):
        with pytest.raises(ValueError):
            bcube(Engine(), 1, 1)
        with pytest.raises(ValueError):
            bcube(Engine(), 2, -1)


class TestCamCube:
    def test_is_server_only(self):
        topo = camcube(Engine(), 3)
        assert topo.n_switches == 0
        assert topo.n_servers == 27
        assert topo.is_connected()

    def test_torus_degree(self):
        """Every server in a 3-D torus (side >= 3) has exactly 6 neighbours."""
        topo = camcube(Engine(), 3)
        for node in topo.server_nodes:
            assert len(topo.adjacency[node]) == 6

    def test_side_two_collapses_duplicate_edges(self):
        topo = camcube(Engine(), 2)
        assert topo.n_servers == 8
        # side=2: +1 and -1 neighbours coincide, degree 3.
        for node in topo.server_nodes:
            assert len(topo.adjacency[node]) == 3

    def test_validates(self):
        with pytest.raises(ValueError):
            camcube(Engine(), 1)


class TestNetworkTelemetry:
    def test_power_positive_when_on(self):
        topo = star(Engine(), 4)
        assert topo.network_power_w() > 0

    def test_energy_accumulates(self):
        engine = Engine()
        topo = star(engine, 4)
        engine.schedule(10.0, lambda: None)
        engine.run()
        assert topo.network_energy_j() == pytest.approx(
            topo.network_power_w() * 10.0, rel=0.2
        )


# ----------------------------------------------------------------------
# The adjacency map under faults
# ----------------------------------------------------------------------
BUILDERS = {
    "star": lambda e: star(e, 5),
    "fat_tree": lambda e: fat_tree(e, 4),
    "butterfly": lambda e: flattened_butterfly(e, 2, 3, 2),
    "bcube": lambda e: bcube(e, 3, 1),
    "camcube": lambda e: camcube(e, 3),
}
ACTIONS = ("fail_link", "repair_link", "fail_node", "repair_node")


def _assert_adjacency_matches(topo, nodes, failed_nodes, failed_links):
    """The map holds exactly the links that are up, in both directions,
    against the test's own record of what failed."""
    import networkx as nx

    reference = nx.Graph()
    reference.add_nodes_from(nodes)
    reference.add_edges_from(
        key for key in topo.links
        if key not in failed_links and not failed_nodes.intersection(key)
    )
    assert topo.adjacency == {
        node: {nbr: topo.link_between(node, nbr) for nbr in reference.adj[node]}
        for node in nodes
    }
    for (u, v) in topo.links:
        up = topo._edge_is_up((u, v))
        assert (v in topo.adjacency[u]) is up
        assert (u in topo.adjacency[v]) is up
    assert topo.is_connected() == nx.is_connected(reference)
    # A node fault or repair refreshes the node's incident list: exactly
    # the links a full scan finds, in ``links`` order.
    for node in nodes:
        assert topo._incident[node] == [key for key in topo.links if node in key]


@given(
    topo_name=st.sampled_from(sorted(BUILDERS)),
    steps=st.lists(
        st.tuples(st.sampled_from(ACTIONS), st.integers(min_value=0, max_value=10**6)),
        max_size=30,
    ),
)
@settings(max_examples=80, deadline=None)
def test_adjacency_tracks_random_fail_repair_sequences(topo_name, steps):
    topo = BUILDERS[topo_name](Engine())
    nodes = topo.server_nodes + list(topo.switches)
    links = sorted(topo.links)
    failed_nodes, failed_links = set(), set()
    _assert_adjacency_matches(topo, nodes, failed_nodes, failed_links)
    for action, pick in steps:
        if action.endswith("_link"):
            key, failed = links[pick % len(links)], failed_links
            changed = getattr(topo, action)(*key)
        else:
            key, failed = nodes[pick % len(nodes)], failed_nodes
            changed = getattr(topo, action)(key)
        if action.startswith("fail"):
            assert changed is (key not in failed)
            failed.add(key)
        else:
            assert changed is (key in failed)
            failed.discard(key)
        _assert_adjacency_matches(topo, nodes, failed_nodes, failed_links)
