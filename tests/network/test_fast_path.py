"""Equivalence tests for the packet-network performance paths.

The packet-train fast path is a pure performance optimisation: delivered
timestamps, packet delays, port/line-card residencies, transitions and
energies must be *bit-for-bit* identical to the per-packet model, whether a
train runs to completion or is materialized back into packets by
cross-traffic, on cold routes and on warm ones whose ports are still ACTIVE.
These tests run the same workload with ``fast_path`` on and off and diff
every observable.

The per-packet path itself keeps a busy queue's link activity open across
back-to-back packets while every port and line card on the link is awake
(``Link.awake``).  The hold tests diff it, event count included, against
the same runs with that gate forced shut, which ends and re-begins the
activity for every packet.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.network.link import Link
from repro.network.packet import PacketNetwork
from repro.network.topology import fat_tree, star

HORIZON = 5.0


def run_workload(events, *, fast_path, builder=None, mtu=1500.0,
                 max_queue_packets=None, switch_events=()):
    """Run transfers at scheduled times; return (engine, topo, net, completions).

    ``switch_events`` holds ``(t, switch_name, action)`` triples calling
    ``Switch.fail``/``repair``/``sleep`` mid-traffic.
    """
    engine = Engine()
    topo = (builder or (lambda e: star(e, 8)))(engine)
    net = PacketNetwork(engine, topo, mtu_bytes=mtu,
                        max_queue_packets=max_queue_packets,
                        fast_path=fast_path)
    completions = []

    def launch(src, dst, size):
        net.transfer(src, dst, size,
                     lambda: completions.append((engine.now, src, dst)))

    for t, src, dst, size in events:
        engine.schedule_at(t, launch, src, dst, size)
    for t, name, action in switch_events:
        engine.schedule_at(t, getattr(topo.switches[name], action))
    engine.run(until=HORIZON)
    return engine, topo, net, completions


def observables(topo, net, completions, engine=None):
    """Everything the fast path must leave unchanged, exactly.

    With ``engine`` the executed-event count is included too: the fast path
    skips events by design, the per-packet hold must not.
    """
    ports = []
    cards = []
    for name in sorted(topo.switches):
        switch = topo.switches[name]
        for lc in switch.linecards:
            cards.append((lc.state.value,
                          tuple(sorted(lc.tracker.residency(HORIZON).items())),
                          tuple(sorted(lc.tracker.transitions.items())),
                          lc.energy_j(HORIZON)))
            for port in lc.ports:
                ports.append((port.state.value,
                              tuple(sorted(port.tracker.residency(HORIZON).items())),
                              tuple(sorted(port.tracker.transitions.items())),
                              port.energy.energy_j(HORIZON)))
    out = {
        "completions": sorted(completions),
        "packets_delivered": net.packets_delivered,
        "packets_dropped": net.packets_dropped,
        "delays": sorted(net.packet_delay.samples),
        "switch_energy": [topo.switches[n].energy_j(HORIZON)
                          for n in sorted(topo.switches)],
        "ports": ports,
        "cards": cards,
    }
    if engine is not None:
        out["events_executed"] = engine.events_executed
    return out


def assert_equivalent(events, builder=None, mtu=1500.0):
    _, topo_s, net_s, done_s = run_workload(events, fast_path=False,
                                            builder=builder, mtu=mtu)
    _, topo_f, net_f, done_f = run_workload(events, fast_path=True,
                                            builder=builder, mtu=mtu)
    assert observables(topo_f, net_f, done_f) == observables(topo_s, net_s, done_s)
    return net_f


# ----------------------------------------------------------------------
# Directed scenarios
# ----------------------------------------------------------------------
def test_single_uncontended_transfer_bit_matches():
    net = assert_equivalent([(0.0, 0, 1, 6000.0)])
    assert net.trains_engaged == 1


def test_train_engages_on_warm_route_and_bit_matches():
    # First transfer warms the ports out of LPI; the second finds every
    # port ACTIVE with its LPI timer pending, and rides a train too.
    events = [(0.0, 0, 1, 4000.0), (2e-4, 0, 1, 4000.0)]
    net = assert_equivalent(events)
    assert net.trains_engaged == 2


def test_cross_traffic_materializes_train():
    # A long train 0->1 is interrupted mid-flight by 2->1, which shares the
    # (sw, h1) hop: the train must fold back into per-packet state with
    # identical timestamps.
    events = [(0.0, 0, 1, 150_000.0), (1e-4, 2, 1, 15_000.0)]
    net = assert_equivalent(events)
    assert net.trains_materialized >= 1


def test_reverse_direction_trains_coexist():
    # 1->0 uses the reverse directions of 0->1's links.  Links are full
    # duplex (per-direction queues, rates and activity) and train windows
    # read wake latencies live, so both transfers ride trains concurrently
    # without materializing — the pattern every ring-collective phase makes.
    events = [(0.0, 0, 1, 150_000.0), (1e-4, 1, 0, 15_000.0)]
    net = assert_equivalent(events)
    assert net.trains_engaged == 2
    assert net.trains_materialized == 0


def test_full_duplex_ring_phase_rides_trains():
    # One ring-allreduce phase: every server sends to its successor at the
    # same instant, so every access link carries traffic in both directions
    # at once.  All transfers must batch, and stay bit-identical.
    events = [(0.0, i, (i + 1) % 8, 45_000.0) for i in range(8)]
    net = assert_equivalent(events)
    assert net.trains_engaged == 8
    assert net.trains_materialized == 0


def test_simultaneous_transfers_same_instant():
    # Same-instant contention: the second transfer materializes the first
    # at its own start time.
    events = [(0.0, 0, 1, 30_000.0), (0.0, 2, 1, 30_000.0),
              (0.0, 1, 0, 30_000.0)]
    assert_equivalent(events)


def test_fat_tree_multihop_bit_matches():
    events = [(0.0, 0, 15, 50_000.0), (3e-4, 5, 10, 20_000.0),
              (5e-4, 0, 15, 8_000.0)]
    assert_equivalent(events, builder=lambda e: fat_tree(e, 4))


def test_fast_path_reduces_events_at_least_4x():
    # Disjoint pairs so no two trains share a link; each 100-packet
    # transfer collapses from ~400 events to ~5.
    events = [(0.0, 2 * i, 2 * i + 1, 150_000.0) for i in range(4)]
    engine_s, topo_s, net_s, done_s = run_workload(events, fast_path=False)
    engine_f, topo_f, net_f, done_f = run_workload(events, fast_path=True)
    assert observables(topo_f, net_f, done_f) == observables(topo_s, net_s, done_s)
    assert net_f.trains_engaged == 4
    assert engine_s.events_executed >= 4 * engine_f.events_executed


def test_fast_path_flag_off_disables_batching():
    _, _, net, _ = run_workload([(0.0, 0, 1, 30_000.0)], fast_path=False)
    assert net.trains_engaged == 0


# ----------------------------------------------------------------------
# Loud tail-drop (satellite)
# ----------------------------------------------------------------------
def test_transfer_strands_loudly_on_tail_drop():
    engine = Engine()
    topo = star(engine, 4)
    net = PacketNetwork(engine, topo, mtu_bytes=1000.0, max_queue_packets=1)
    done = []
    dropped = []
    engine.schedule_at(
        0.0, net.transfer, 0, 1, 20_000.0, lambda: done.append(engine.now),
        dropped.append,
    )
    engine.run(until=HORIZON)
    assert not done  # the transfer hangs: some packets were tail-dropped
    assert net.packets_dropped > 0
    assert net.transfers_stranded == 1
    assert len(dropped) == 1  # on_drop fires once, on the first drop
    assert dropped[0].path[0] == topo.server_node(0)


def test_unstranded_transfers_complete_without_on_drop():
    engine = Engine()
    topo = star(engine, 4)
    net = PacketNetwork(engine, topo, max_queue_packets=64)
    done = []
    dropped = []
    engine.schedule_at(0.0, net.transfer, 0, 1, 30_000.0,
                       lambda: done.append(engine.now), dropped.append)
    engine.run(until=HORIZON)
    assert len(done) == 1
    assert not dropped
    assert net.transfers_stranded == 0


# ----------------------------------------------------------------------
# Property test: random workloads bit-match, contended or not
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_transfers=st.integers(min_value=1, max_value=8),
    topo_name=st.sampled_from(["star", "fat_tree"]),
    warm=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_random_workloads_bit_match_per_packet_model(seed, n_transfers, topo_name,
                                                     warm):
    import numpy as np

    rng = np.random.default_rng(seed)
    builder = (lambda e: star(e, 8)) if topo_name == "star" else (lambda e: fat_tree(e, 4))
    n_servers = 8 if topo_name == "star" else 16
    events = []
    if warm:
        # Warm routes: 3 pairs repeat, each start 50-600 us after the last,
        # inside the 1 ms LPI timer, so later trains find ACTIVE ports whose
        # LPI timers are pending.
        pairs = [tuple(int(x) for x in rng.choice(n_servers, size=2, replace=False))
                 for _ in range(3)]
        t = 0.0
        for _ in range(n_transfers):
            src, dst = pairs[int(rng.integers(len(pairs)))]
            size = float(rng.integers(1, 40_000))
            events.append((t, src, dst, size))
            t += float(rng.integers(50, 601)) * 1e-6
    else:
        for _ in range(n_transfers):
            src, dst = (int(x) for x in rng.choice(n_servers, size=2, replace=False))
            t = float(rng.integers(0, 2000)) * 1e-6
            size = float(rng.integers(1, 40_000))
            events.append((t, src, dst, size))
    assert_equivalent(events, builder=builder, mtu=1000.0)


# ----------------------------------------------------------------------
# Per-packet hold: back-to-back packets keep the link activity open
# ----------------------------------------------------------------------
def _gate_shut(_link):
    return False


def run_observed(events, **kwargs):
    engine, topo, net, done = run_workload(events, **kwargs)
    return observables(topo, net, done, engine), net


def test_burst_through_idle_port_leaves_one_lpi_transition():
    # N packets injected at once queue back-to-back at h0 and again at the
    # switch's h1-facing port (the first one there pays the LPI exit).
    # Each port wakes once, stays ACTIVE for the whole burst and drops to
    # LPI exactly once, lpi_timer_s after the burst's last departure.
    n = 12
    engine = Engine()
    topo = star(engine, 2)
    net = PacketNetwork(engine, topo, fast_path=False)
    for _ in range(n):
        net.send_packet("h0", "h1", 1500.0)
    port = topo.link_between("sw0", "h1").ports["sw0"]
    queue = net._queues[("sw0", "h1")]
    departures, lpi_entries = [], []

    def hook(time, callback, args):
        if callback == queue._tx_done:
            departures.append(time)
        elif callback == port._enter_lpi:
            lpi_entries.append(time)
        callback(*args)

    engine.set_dispatch_hook(hook)
    engine.run(until=HORIZON)
    assert net.packets_delivered == n
    assert len(departures) == n
    assert port.tracker.transitions == {("lpi", "active"): 1, ("active", "lpi"): 1}
    assert lpi_entries == [departures[-1] + port.profile.lpi_timer_s]
    # Both queues start once and hold for every later packet.
    assert net.packet_hops == 2 * n
    assert net.packet_hops_held == 2 * (n - 1)


def test_fail_and_repair_mid_burst_match_end_and_begin():
    # fail() sets every port OFF while packets are queued behind it, and the
    # next packet's begin powers the port up again (a known model defect,
    # kept as is).  repair() then drops the busy ports to LPI, so the next
    # packet pays the LPI exit.  The hold must skip neither, so it falls back.
    events = [(0.0, 0, 1, 60_000.0)]
    actions = [(1e-4, "sw0", "fail"), (2e-4, "sw0", "repair")]
    held, net = run_observed(events, fast_path=False, switch_events=actions)
    with mock.patch.object(Link, "awake", _gate_shut):
        unheld, _ = run_observed(events, fast_path=False, switch_events=actions)
    assert held == unheld
    assert net.packet_hops_held > 0
    transitions = [dict(p[2]) for p in held["ports"]]
    assert any(t.get(("off", "active")) for t in transitions)
    assert any(t.get(("lpi", "active"), 0) >= 2 for t in transitions)


SWITCH_ACTIONS = ("fail", "repair", "sleep")


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_transfers=st.integers(min_value=1, max_value=8),
    topo_name=st.sampled_from(["star", "fat_tree"]),
    path=st.sampled_from(["per-packet", "train"]),
    max_queue_packets=st.sampled_from([None, 4]),
    n_switch_events=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_hold_matches_end_and_begin_per_packet(seed, n_transfers, topo_name, path,
                                               max_queue_packets, n_switch_events):
    import numpy as np

    rng = np.random.default_rng(seed)
    if topo_name == "star":
        builder, n_servers = (lambda e: star(e, 8)), 8
    else:
        builder, n_servers = (lambda e: fat_tree(e, 4)), 16
    topo = builder(Engine())
    events = []
    for _ in range(n_transfers):
        src, dst = (int(x) for x in rng.choice(n_servers, size=2, replace=False))
        t = float(rng.integers(0, 2000)) * 1e-6
        size = float(rng.integers(1, 40_000))
        events.append((t, src, dst, size))
    # Hit switches mid-traffic: the sender's edge switch, shortly after a
    # transfer starts; a failed switch may be repaired while still busy.
    switch_events = []
    for _ in range(n_switch_events):
        t, src, _dst, _size = events[int(rng.integers(len(events)))]
        (name,) = topo.graph.neighbors(topo.server_node(src))
        t += float(rng.integers(0, 100)) * 1e-6
        action = SWITCH_ACTIONS[int(rng.integers(len(SWITCH_ACTIONS)))]
        switch_events.append((t, name, action))
        if action == "fail" and rng.random() < 0.9:
            switch_events.append((t + float(rng.integers(1, 100)) * 1e-6, name, "repair"))
    kwargs = dict(fast_path=path == "train", builder=builder, mtu=1000.0,
                  max_queue_packets=max_queue_packets, switch_events=switch_events)
    held, _ = run_observed(events, **kwargs)
    with mock.patch.object(Link, "awake", _gate_shut):
        unheld, net = run_observed(events, **kwargs)
    assert net.packet_hops_held == 0
    assert held == unheld
