"""Transfers that start while failures partition their endpoints.

On a 4-server star whose switch has failed (``fail_node``), ``transfer(0,
1, ...)`` used to end the run with ``ValueError: no path between 'h0' and
'h1'`` in both models, while traffic already running when a fault cut it
off did not.  The route lookup now answers "no path" and each model treats
the new transfer as it already treats cut-off traffic:

* the flow model strands the flow, and ``retry_stranded`` starts it once a
  repair restores a path;
* the packet model has no retransmission, so the transfer is lost like a
  tail-dropped one: it counts in ``transfers_stranded``, ``on_drop`` fires
  once with no packet, and it is never delivered.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import FaultConfig, LinkConfig
from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.faults.injector import FaultInjector
from repro.network.flow import FlowNetwork
from repro.network.packet import PacketNetwork
from repro.network.topology import fat_tree, star


def _partitioned_star(network_cls):
    engine = Engine()
    topo = star(engine, 4)
    network = network_cls(engine, topo)
    assert topo.fail_node("sw0")
    return engine, topo, network


def test_flow_across_a_partition_strands_and_resumes_on_repair():
    engine, topo, network = _partitioned_star(FlowNetwork)
    done = []
    flow = network.transfer(0, 1, 1e5, lambda: done.append(engine.now))
    assert flow is not None
    assert network.flows_stranded == 1
    assert network.stranded_flow_count == 1
    assert network.active_flow_count == 0
    engine.run(until=0.5)
    assert done == []

    assert topo.repair_node("sw0")
    assert network.retry_stranded() == 1
    assert flow.path == ["h0", "sw0", "h1"]
    engine.run()
    assert len(done) == 1 and done[0] > 0.5
    assert network.flows_completed == 1
    assert network.flows_rerouted == 1
    assert network.stranded_flow_count == 0
    assert network.bits_delivered == 8e5


def test_packet_transfer_across_a_partition_is_lost_like_a_tail_drop():
    engine, topo, network = _partitioned_star(PacketNetwork)
    done, dropped = [], []
    network.transfer(0, 1, 1e5, lambda: done.append(engine.now), on_drop=dropped.append)
    network.transfer(2, 3, 1e5, lambda: done.append(engine.now))  # no on_drop
    assert network.transfers_stranded == 2
    assert dropped == [None]

    assert topo.repair_node("sw0")
    engine.run()
    assert done == [] and dropped == [None]
    assert network.packets_delivered == 0
    assert network.packets_dropped == 0

    # The repaired star routes the next transfer.
    network.transfer(0, 1, 1e5, lambda: done.append(engine.now), on_drop=dropped.append)
    engine.run()
    assert len(done) == 1 and dropped == [None]
    assert network.transfers_stranded == 2


def test_flows_started_under_random_faults_all_land():
    # The FaultInjector fails and repairs switches and links while flows
    # keep starting; a flow whose endpoints are cut apart waits for a repair.
    engine = Engine()
    topo = fat_tree(engine, 4, link_config=LinkConfig(rate_bps=1e9))
    network = FlowNetwork(engine, topo)
    injector = FaultInjector(
        engine,
        FaultConfig(enabled=True, switch_mtbf_s=0.5, switch_mttr_s=0.02,
                    link_mtbf_s=0.5, link_mttr_s=0.02),
        RandomSource(11), topology=topo, network=network,
    )
    injector.start()
    done = []
    rng = np.random.default_rng(11)
    n_transfers = 200
    for _ in range(n_transfers):
        src, dst = (int(x) for x in rng.choice(topo.n_servers, size=2, replace=False))
        engine.schedule(float(rng.uniform(0.0, 0.5)), network.transfer, src, dst,
                        float(rng.integers(1_000, 2_000_000)),
                        lambda: done.append(engine.now))
    engine.run(until=2.0)
    assert injector.failures_injected > 0 and injector.repairs_applied > 0
    assert network.flows_stranded > 0
    in_flight = (network.active_flow_count + network.stranded_flow_count
                 + len(network._pending_wake))
    assert len(done) + in_flight == n_transfers
    assert len(done) == network.flows_completed
