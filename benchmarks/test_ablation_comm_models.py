"""§III-B ablation — flow-based vs packet-level communication models.

HolDCSim models communication "at two levels of granularity: packet-based
communication and flow-based communication."  This bench ships the same
transfer matrix through both models on the same star network and compares
completion times and cost (events processed).

Expected shapes: for uncontended transfers the two models agree on transfer
time to within the packetization overhead; under contention the fluid
model's fair sharing approximates the packet model's interleaving.  Once
contention defeats the packet-train fast path (an idle route is simulated
analytically, in a handful of events), the packet model costs orders of
magnitude more events per byte, which is why flow mode exists for 100 MB
transfers.
"""

from __future__ import annotations

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.packet import PacketNetwork
from repro.network.topology import star


def run_model(model_name, size_bytes, n_transfers):
    engine = Engine()
    topo = star(engine, 8, link_config=LinkConfig(rate_bps=1e9))
    if model_name == "flow":
        network = FlowNetwork(engine, topo)
    else:
        network = PacketNetwork(engine, topo)
    done = []
    for i in range(n_transfers):
        network.transfer(i, 7, size_bytes, lambda: done.append(engine.now))
    engine.run()
    return {
        "makespan_s": max(done),
        "events": engine.events_executed,
        "completions": len(done),
    }


def test_flow_vs_packet_agreement_and_cost(once):
    def run_all():
        return {
            ("flow", "single"): run_model("flow", 1.25e6, 1),
            ("packet", "single"): run_model("packet", 1.25e6, 1),
            ("flow", "contended"): run_model("flow", 1.25e6, 4),
            ("packet", "contended"): run_model("packet", 1.25e6, 4),
        }

    results = once(run_all)
    print()
    print("communication model ablation (1.25 MB transfers, 1 Gbps star):")
    print(f"{'model':>8} {'scenario':>10} {'makespan(ms)':>13} {'events':>9}")
    for (model, scenario), r in results.items():
        print(
            f"{model:>8} {scenario:>10} {r['makespan_s']*1e3:>13.3f} "
            f"{r['events']:>9}"
        )

    flow_1 = results[("flow", "single")]
    pkt_1 = results[("packet", "single")]
    # Agreement: same order of magnitude; the packet model includes the
    # per-hop store-and-forward pipeline so it is at most ~2x the fluid time.
    assert flow_1["makespan_s"] <= pkt_1["makespan_s"] <= 2.5 * flow_1["makespan_s"]

    flow_4 = results[("flow", "contended")]
    pkt_4 = results[("packet", "contended")]
    # Contention: 4 transfers into one 1 Gbps downlink take ~4x a single one
    # in both models.
    assert flow_4["makespan_s"] > 3 * flow_1["makespan_s"]
    assert pkt_4["makespan_s"] > 3 * pkt_1["makespan_s"]
    assert flow_4["completions"] == pkt_4["completions"] == 4
    # Cost: contended packets go one by one and are orders of magnitude
    # more expensive to simulate (an idle route's packet train is not).
    assert pkt_4["events"] > 50 * flow_4["events"]
