"""Topology fault state, switch failure, and flow re-route/strand behaviour."""

from __future__ import annotations

import pytest

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.routing import Router
from repro.network.switch import SwitchState
from repro.network.topology import Topology, fat_tree, star

GBIT = 125e6  # bytes


def _line(engine, n=2, rate=1e9):
    topo = Topology(engine, "line")
    for i in range(n):
        topo.add_server(i)
    for i in range(n - 1):
        topo.connect(f"h{i}", f"h{i+1}", LinkConfig(rate_bps=rate))
    return topo


def _has_edge(topo, u, v):
    """Whether the adjacency map holds link u-v; both directions must agree."""
    there, back = v in topo.adjacency[u], u in topo.adjacency[v]
    assert there == back
    return there


class TestTopologyFaultState:
    def test_fail_link_removes_edge_and_repair_restores(self):
        engine = Engine()
        topo = _line(engine, 2)
        assert topo.fail_link("h0", "h1") is True
        assert not _has_edge(topo, "h0", "h1")
        assert not topo.link_is_up("h0", "h1")
        assert topo.fail_link("h0", "h1") is False  # already down
        assert topo.repair_link("h0", "h1") is True
        assert _has_edge(topo, "h0", "h1")
        assert topo.link_is_up("h0", "h1")

    def test_fail_node_drops_incident_links(self):
        engine = Engine()
        topo = star(engine, 3)
        topo.fail_node("sw0")
        assert not topo.node_is_up("sw0")
        for i in range(3):
            assert not _has_edge(topo, f"h{i}", "sw0")
        topo.repair_node("sw0")
        for i in range(3):
            assert _has_edge(topo, f"h{i}", "sw0")

    def test_repair_node_keeps_independently_failed_links_down(self):
        engine = Engine()
        topo = star(engine, 2)
        topo.fail_link("h0", "sw0")
        topo.fail_node("sw0")
        topo.repair_node("sw0")
        assert not _has_edge(topo, "h0", "sw0")  # link failed on its own
        assert _has_edge(topo, "h1", "sw0")

    def test_unknown_targets_raise(self):
        topo = _line(Engine(), 2)
        with pytest.raises(KeyError):
            topo.fail_link("h0", "h9")
        with pytest.raises(KeyError):
            topo.fail_node("h9")

    def test_path_is_up(self):
        engine = Engine()
        topo = star(engine, 2)
        assert topo.path_is_up(["h0", "sw0", "h1"])
        topo.fail_node("sw0")
        assert not topo.path_is_up(["h0", "sw0", "h1"])

    def test_router_cache_invalidated_on_failure(self):
        engine = Engine()
        topo = fat_tree(engine, 4)
        router = Router(topo)
        path = router.route("h0", "h15", flow_key="x")
        # A core switch has equal-cost alternatives; an edge switch would
        # partition its hosts outright.
        dead = next(n for n in path if n.startswith("core"))
        topo.fail_node(dead)
        new_path = router.route("h0", "h15", flow_key="x")
        assert dead not in new_path


class TestSwitchFailure:
    def test_fail_powers_off_and_repair_restores(self):
        engine = Engine()
        topo = star(engine, 2)
        switch = topo.switches["sw0"]
        assert switch.fail() is True
        assert switch.state is SwitchState.FAILED
        assert switch.power_w() == 0.0
        assert switch.fail() is False
        assert switch.repair() is True
        assert switch.state is SwitchState.ON
        assert switch.power_w() > 0.0
        assert switch.failure_count == 1 and switch.repair_count == 1

    def test_wake_request_on_failed_switch_raises(self):
        engine = Engine()
        topo = star(engine, 2)
        switch = topo.switches["sw0"]
        switch.fail()
        with pytest.raises(RuntimeError):
            switch.request_wake()

    def test_fail_while_waking_cancels_wake(self):
        engine = Engine()
        topo = star(engine, 2)
        switch = topo.switches["sw0"]
        assert switch.sleep()
        woken = []
        switch.request_wake(lambda: woken.append(engine.now))
        engine.schedule(switch.config.wake_latency_s / 2, switch.fail)
        engine.run()
        assert woken == []
        assert switch.state is SwitchState.FAILED


class TestFlowRerouting:
    def test_flow_reroutes_around_failed_switch(self):
        engine = Engine()
        topo = fat_tree(engine, 4, link_config=LinkConfig(rate_bps=1e9))
        network = FlowNetwork(engine, topo)
        done = []
        flow = network.transfer(0, 15, GBIT, lambda: done.append(engine.now))
        dead = next(n for n in flow.path if n.startswith("core"))

        def crash():
            topo.switches[dead].fail()
            topo.fail_node(dead)
            network.reroute_around_failures()

        engine.schedule(0.5, crash)
        engine.run()
        # Banked 0.5 Gbit before the failure, remaining 0.5 Gbit on the new
        # path: completion stays ~1 s despite the mid-transfer crash.
        assert done and done[0] == pytest.approx(1.0, rel=0.05)
        assert network.flows_rerouted == 1
        assert network.flows_stranded == 0
        assert dead not in flow.path

    def test_unaffected_flows_not_displaced(self):
        engine = Engine()
        topo = fat_tree(engine, 4, link_config=LinkConfig(rate_bps=1e9))
        network = FlowNetwork(engine, topo)
        flow = network.transfer(0, 1, GBIT, lambda: None)  # same edge switch
        spare = next(
            name for name in topo.switches if name not in flow.path
        )

        def crash():
            topo.switches[spare].fail()
            topo.fail_node(spare)
            network.reroute_around_failures()

        engine.schedule(0.1, crash)
        engine.run()
        assert network.flows_rerouted == 0

    def test_flow_strands_then_resumes_after_repair(self):
        engine = Engine()
        topo = star(engine, 2, link_config=LinkConfig(rate_bps=1e9))
        network = FlowNetwork(engine, topo)
        switch = topo.switches["sw0"]
        done = []
        network.transfer(0, 1, GBIT, lambda: done.append(engine.now))

        def crash():
            switch.fail()
            topo.fail_node("sw0")
            network.reroute_around_failures()

        def mend():
            topo.repair_node("sw0")
            switch.repair()
            network.retry_stranded()

        engine.schedule(0.5, crash)
        engine.schedule(2.0, mend)
        engine.run()
        assert network.flows_stranded == 1
        assert network.stranded_flow_count == 0  # resumed
        # 0.5 Gbit delivered before the crash; the remaining 0.5 Gbit flows
        # only after the t=2 repair.
        assert done and done[0] == pytest.approx(2.5, rel=0.05)

    def test_pending_wake_flow_strands_when_switch_dies(self):
        engine = Engine()
        topo = star(engine, 2, link_config=LinkConfig(rate_bps=1e9))
        network = FlowNetwork(engine, topo)
        switch = topo.switches["sw0"]
        assert switch.sleep()
        done = []
        network.transfer(0, 1, GBIT, lambda: done.append(engine.now))

        def crash():
            switch.fail()
            topo.fail_node("sw0")
            network.reroute_around_failures()

        def mend():
            topo.repair_node("sw0")
            switch.repair()
            network.retry_stranded()

        # Kill the switch before its wake completes; the waiting flow must
        # not hang forever — it strands, then resumes on repair.
        engine.schedule(switch.config.wake_latency_s / 2, crash)
        engine.schedule(3.0, mend)
        engine.run()
        assert network.flows_stranded == 1
        assert done and done[0] == pytest.approx(4.0, rel=0.05)
        assert network.flows_completed == 1
