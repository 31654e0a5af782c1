"""Edge cases of the flow model: wake coordination, errors, telemetry."""

from __future__ import annotations

import pytest

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.flow import FlowNetwork, _WakeBarrier
from repro.network.topology import Topology, fat_tree, star


class TestWakeCoordination:
    def test_auto_wake_disabled_raises(self):
        engine = Engine()
        topo = star(engine, 4)
        topo.switches["sw0"].sleep()
        network = FlowNetwork(engine, topo, auto_wake_switches=False)
        with pytest.raises(RuntimeError, match="sleeping switches"):
            network.transfer(0, 1, 1e6, lambda: None)

    def test_multiple_sleeping_switches_all_woken(self):
        engine = Engine()
        topo = fat_tree(engine, 4)
        for switch in topo.switches.values():
            assert switch.sleep()
        network = FlowNetwork(engine, topo)
        done = []
        network.transfer(0, 15, 1e5, lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1
        # The flow waited for the slowest wake on its route.
        wake = topo.switches["edge-0-0"].config.wake_latency_s
        assert done[0] >= wake

    def test_concurrent_transfers_share_wake(self):
        engine = Engine()
        topo = star(engine, 4)
        switch = topo.switches["sw0"]
        switch.sleep()
        network = FlowNetwork(engine, topo)
        done = []
        network.transfer(0, 1, 1e5, lambda: done.append("a"))
        network.transfer(2, 3, 1e5, lambda: done.append("b"))
        engine.run()
        assert sorted(done) == ["a", "b"]
        # Only one wake transition happened.
        assert switch.wake_count == 1

    def test_wake_barrier_counts(self):
        fired = []

        class _Network:
            def _wake_complete(self, flow, barrier):
                fired.append(flow)

        flow = object()
        barrier = _WakeBarrier(3, _Network(), flow)
        barrier.arrive()
        barrier.arrive()
        assert not fired
        barrier.arrive()
        assert fired == [flow]


class TestErrors:
    def test_unknown_server_raises(self):
        engine = Engine()
        network = FlowNetwork(engine, star(engine, 2))
        with pytest.raises(KeyError):
            network.transfer(0, 99, 1e6, lambda: None)



class TestPartitions:
    def test_disconnected_route_strands_the_flow(self):
        # A flow with no path strands like a running flow cut off by a
        # fault, instead of raising "no path" from the router.
        engine = Engine()
        topo = Topology(engine)
        topo.add_server(0)
        topo.add_server(1)
        network = FlowNetwork(engine, topo)
        done = []
        flow = network.transfer(0, 1, 1e6, lambda: done.append(engine.now))
        assert flow is not None and flow.path == [] and flow.hops == []
        assert network.flows_stranded == 1
        assert network.stranded_flow_count == 1
        assert network.active_flow_count == 0
        engine.run()
        assert done == []
        # Connecting the servers alone does not resume it: a repair does,
        # through retry_stranded.
        topo.connect("h0", "h1", LinkConfig(rate_bps=1e9))
        network.router.invalidate_cache()
        assert network.retry_stranded() == 1
        engine.run()
        assert len(done) == 1
        assert network.flows_completed == 1
        assert network.stranded_flow_count == 0


class TestTelemetry:
    def test_bits_delivered_and_counts(self):
        engine = Engine()
        network = FlowNetwork(engine, star(engine, 3))
        for _ in range(3):
            network.transfer(0, 1, 1e6, lambda: None)
        engine.run()
        assert network.flows_completed == 3
        assert network.bits_delivered == pytest.approx(3 * 8e6)
        assert len(network.flow_completion_time) == 3

    def test_active_flow_count_tracks_lifecycle(self):
        engine = Engine()
        topo = star(engine, 3, link_config=LinkConfig(rate_bps=1e6))
        network = FlowNetwork(engine, topo)
        network.transfer(0, 1, 1e6, lambda: None)  # 8 s at 1 Mbps
        assert network.active_flow_count == 1
        engine.run(until=1.0)
        assert network.active_flow_count == 1
        engine.run()
        assert network.active_flow_count == 0

    def test_repr_smoke(self):
        engine = Engine()
        network = FlowNetwork(engine, star(engine, 2))
        assert "FlowNetwork" in repr(network)
