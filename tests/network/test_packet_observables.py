"""Pinned observables of the packet network's per-packet and train paths.

The per-packet twin of ``test_flow_observables.py``.  The packet model
(§III-B) is the reference every network fast path is diffed against, so a
change meant only to make its data plane faster must leave what it
simulates unchanged, event for event.  Each scenario below drives one part
of that data plane and compares the results with values recorded from an
earlier build, exactly: every float by ``repr``.

* ``fat_tree_alltoall``: a staggered all-to-all on a k=4 fat tree, where
  trains engage, and cross traffic folds them back into packets both when a
  queued packet reaches a reserved hop (enqueue) and when a new transfer's
  route crosses one (route).
* ``star_lpi_sleep_bursts``: bursts on a star spaced across the ports' LPI
  timer and the line card's sleep timer, so packets and trains pay LPI and
  sleep exit latencies, and ride warm routes in between.
* ``finite_buffer_drops``: an incast into a four-packet buffer, so tail
  drops strand transfers and fire their ``on_drop`` once each.
* ``switch_fail_repair_sleep``: an edge switch fails and is repaired while
  its queues are busy, and idle switches are put to sleep mid-traffic.
* ``ring_of_trains``: a ring on a star whose 2-hop sends all ride trains,
  each rank's next send started once its previous send and receive are
  done, as a ring collective's steps are.

Every link gets its own propagation delay (set after the topology is
built), so a delivery time depends on the hops its packets took.  The
pinned fields are the completion and drop callbacks in firing order, the
network's counters and the engine's executed, scheduled and cancelled
event counts (compared verbatim), plus a blake2b digest over the
``packet_delay`` samples and the energy and transition counts of every
switch, line card and port.  To see what moved, print
``observables(scenario)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.core.config import LinkConfig, datacenter_switch
from repro.core.engine import Engine
from repro.network.packet import PacketNetwork
from repro.network.topology import Topology, fat_tree, star

KB = 1e3


class _Run:
    """A topology, its packet network and logs of completions and drops."""

    def __init__(self, topo: Topology, max_queue_packets=None) -> None:
        self.engine = topo.engine
        self.topo = topo
        for i, link in enumerate(topo.links.values()):
            link.config = dataclasses.replace(
                link.config, propagation_delay_s=1e-7 * (1 + i % 5) + 1e-9 * i
            )
        self.network = PacketNetwork(
            self.engine, topo, max_queue_packets=max_queue_packets
        )
        self.done: List[Tuple[str, str]] = []
        self.dropped: List[Tuple[str, str, int]] = []

    def transfer(self, src: int, dst: int, size_bytes: float,
                 then: Optional[Callable[[], None]] = None) -> None:
        engine = self.engine
        label = f"{src}->{dst}@{engine.now!r}"

        def done() -> None:
            self.done.append((label, repr(engine.now)))
            if then is not None:
                then()

        def dropped(packet) -> None:
            self.dropped.append((label, repr(engine.now), packet.hop_index))

        self.network.transfer(src, dst, size_bytes, done, on_drop=dropped)

    def at(self, t: float, src: int, dst: int, size_bytes: float) -> None:
        self.engine.schedule_at(t, self.transfer, src, dst, size_bytes)


def fat_tree_alltoall() -> _Run:
    run = _Run(fat_tree(Engine(), 4, link_config=LinkConfig(rate_bps=1e9)))
    ranks = [0, 3, 5, 6, 9, 10, 12, 15]
    i = 0
    for src in ranks:
        for dst in ranks:
            if src != dst:
                run.at(4e-5 * i, src, dst, KB * (3 + (5 * i) % 7))
                i += 1
    return run


def star_lpi_sleep_bursts() -> _Run:
    run = _Run(star(Engine(), 8))
    # 0: cold ports and cards; 4e-4: ports still ACTIVE (warm routes);
    # 3e-3: past the 1 ms LPI timer; 0.25: past the cards' 0.1 s sleep timer.
    for t0 in (0.0, 4e-4, 3e-3, 0.25):
        for j, (src, dst, size) in enumerate(
            [(0, 1, 9 * KB), (2, 1, 1.2 * KB), (3, 4, 6 * KB), (4, 3, 4.5 * KB),
             (5, 6, 1 * KB), (7, 1, 3 * KB)]
        ):
            run.at(t0 + 2e-6 * j, src, dst, size)
    run.engine.schedule_at(
        0.2501, run.network.send_packet, "h6", "h2", 700.0
    )
    return run


def finite_buffer_drops() -> _Run:
    run = _Run(star(Engine(), 8), max_queue_packets=4)
    for j, src in enumerate((1, 2, 3, 4, 5)):
        run.at(1e-6 * j, src, 0, KB * (4 + 2 * j))
    # Later traffic through the same switch that fits the buffer.
    run.at(2e-3, 6, 7, 5 * KB)
    run.at(2.1e-3, 1, 0, 4 * KB)
    return run


def switch_fail_repair_sleep() -> _Run:
    run = _Run(fat_tree(Engine(), 4))
    switches = run.topo.switches
    for j, (src, dst) in enumerate([(0, 1), (1, 0), (0, 2), (2, 3), (8, 9)]):
        run.at(3e-6 * j, src, dst, KB * (30 + 7 * j))
    for j in range(6):
        run.at(2e-5 + 1e-6 * j, (4 + j) % 16, (13 + 3 * j) % 16, KB * (8 + j))
    schedule_at = run.engine.schedule_at
    schedule_at(6e-5, switches["edge-0-0"].fail)
    schedule_at(1.3e-4, switches["edge-0-0"].repair)
    schedule_at(9e-5, switches["edge-2-0"].sleep)
    schedule_at(1.1e-4, switches["core-1-1"].sleep)
    run.at(4e-4, 0, 8, 12 * KB)
    return run


def ring_of_trains() -> _Run:
    run = _Run(star(Engine(), 8, switch_config=datacenter_switch(ports_per_linecard=4)))
    n, steps = 8, 6
    # A rank sends step s once its own step s-1 send and its receive of
    # step s-1 have both completed; two completions per later step.
    ready = [0] * n

    def send(rank: int, step: int) -> None:
        nxt = (rank + 1) % n

        def done() -> None:
            if step + 1 == steps:
                return
            for who in (rank, nxt):
                ready[who] += 1
                if ready[who] == 2 * (step + 1):
                    send(who, step + 1)

        run.transfer(rank, nxt, KB * (6 + (rank + step) % 4), done)

    for rank in range(n):
        run.engine.schedule_at(1e-6 * (rank % 3), send, rank, 0)
    return run


SCENARIOS: Dict[str, Callable[[], _Run]] = {
    "fat_tree_alltoall": fat_tree_alltoall,
    "star_lpi_sleep_bursts": star_lpi_sleep_bursts,
    "finite_buffer_drops": finite_buffer_drops,
    "switch_fail_repair_sleep": switch_fail_repair_sleep,
    "ring_of_trains": ring_of_trains,
}

COUNTERS = (
    "packets_delivered", "packets_dropped", "bytes_delivered",
    "transfers_stranded", "trains_engaged", "trains_materialized",
    "trains_materialized_enqueue", "trains_materialized_route",
    "packet_hops", "packet_hops_held",
)


def _finished(scenario: str) -> _Run:
    run = SCENARIOS[scenario]()
    run.engine.run()
    return run


def observables(scenario: str) -> Tuple[Dict[str, object], str]:
    """(headline fields as reprs, digest of delays and switch energy)."""
    run = _finished(scenario)
    network, engine, now = run.network, run.engine, run.engine.now
    headline: Dict[str, object] = {
        "completions": run.done,
        "drops": run.dropped,
    }
    for name in COUNTERS:
        headline[name] = repr(getattr(network, name))
    for name in ("events_executed", "events_scheduled", "events_cancelled"):
        headline[name] = repr(getattr(engine, name))
    detail = [tuple(network.packet_delay.samples)]
    for name, switch in sorted(run.topo.switches.items()):
        detail.append((
            name,
            switch.energy_j(now),
            switch.chassis_energy.energy_j(now),
            sorted(switch.tracker.transitions.items()),
            tuple(
                (
                    lc.energy.energy_j(now),
                    sorted(lc.tracker.transitions.items()),
                    tuple(
                        (p.energy.energy_j(now), sorted(p.tracker.transitions.items()))
                        for p in lc.ports
                    ),
                )
                for lc in switch.linecards
            ),
        ))
    digest = hashlib.blake2b(repr(detail).encode(), digest_size=16).hexdigest()
    return headline, digest


PINNED: Dict[str, Tuple[Dict[str, object], str]] = {
    "fat_tree_alltoall": (
        {
            "completions": [
                ('0->3@0.0', '7.8638e-05'),
                ('0->5@4e-05', '0.00018338299999999996'),
                ('0->6@8e-05', '0.000236166'),
                ('0->9@0.00012000000000000002', '0.00026859499999999994'),
                ('0->10@0.00016', '0.000331246'),
                ('3->0@0.00028000000000000003', '0.00034091000000000015'),
                ('0->12@0.0002', '0.00038707400000000006'),
                ('0->15@0.00024000000000000003', '0.00042707899999999997'),
                ('3->5@0.00032', '0.00047755900000000023'),
                ('3->6@0.00036', '0.0005257660000000001'),
                ('3->9@0.0004', '0.000558195'),
                ('3->10@0.00044', '0.0005977149999999999'),
                ('5->0@0.0005600000000000001', '0.0006456699999999998'),
                ('3->12@0.00048000000000000007', '0.0006586189999999998'),
                ('3->15@0.0005200000000000001', '0.0006940479999999997'),
                ('5->3@0.0006000000000000001', '0.0007253719999999996'),
                ('5->6@0.00064', '0.0007537429999999996'),
                ('5->9@0.00068', '0.0008059319999999995'),
                ('5->10@0.00072', '0.0008821189999999994'),
                ('5->12@0.00076', '0.0009454669999999991'),
                ('6->0@0.00084', '0.000949558999999999'),
                ('5->15@0.0008', '0.000978259999999999'),
                ('6->3@0.00088', '0.0010219679999999994'),
                ('6->5@0.00092', '0.001029263'),
                ('6->9@0.0009600000000000001', '0.0010905230000000001'),
                ('6->10@0.001', '0.0011582500000000009'),
                ('9->0@0.0011200000000000001', '0.0012058060000000005'),
                ('6->12@0.0010400000000000001', '0.001213674000000001'),
                ('6->15@0.00108', '0.0012535830000000013'),
                ('9->3@0.00116', '0.0012866040000000009'),
                ('9->5@0.0012000000000000001', '0.001333932000000001'),
                ('9->6@0.00124', '0.0013661390000000012'),
                ('9->10@0.00128', '0.0014131110000000016'),
                ('9->12@0.0013200000000000002', '0.001506007000000002'),
                ('10->0@0.0014000000000000002', '0.001509599000000002'),
                ('9->15@0.00136', '0.0015340120000000023'),
                ('10->3@0.00144', '0.0015815080000000025'),
                ('10->5@0.0014800000000000002', '0.0016136390000000011'),
                ('10->6@0.00152', '0.0016458460000000014'),
                ('10->9@0.0015600000000000002', '0.0016931110000000017'),
                ('12->0@0.00168', '0.0017654420000000005'),
                ('10->12@0.0016', '0.001774214000000002'),
                ('10->15@0.0016400000000000002', '0.0018137190000000025'),
                ('12->3@0.0017200000000000002', '0.001846139000000001'),
                ('12->5@0.00176', '0.001893467000000001'),
                ('12->6@0.0018000000000000002', '0.0019256740000000013'),
                ('12->9@0.00184', '0.0019981030000000015'),
                ('12->10@0.0018800000000000002', '0.002066214000000002'),
                ('12->15@0.0019200000000000003', '0.0020694590000000014'),
                ('15->0@0.0019600000000000004', '0.002069634000000001'),
                ('15->3@0.002', '0.0021415430000000005'),
                ('15->5@0.00204', '0.002194351'),
                ('15->6@0.0020800000000000003', '0.002226558'),
                ('15->9@0.0021200000000000004', '0.0022780119999999977'),
                ('15->10@0.00216', '0.002333718999999997'),
                ('15->12@0.0022', '0.0023494589999999973'),
            ],
            "drops": [],
            "packets_delivered": '240',
            "packets_dropped": '0',
            "bytes_delivered": '336000.0',
            "transfers_stranded": '0',
            "trains_engaged": '7',
            "trains_materialized": '7',
            "trains_materialized_enqueue": '2',
            "trains_materialized_route": '5',
            "packet_hops": '1341',
            "packet_hops_held": '518',
            "events_executed": '2889',
            "events_scheduled": '4346',
            "events_cancelled": '1457',
        },
        "289b16cc9ada164b362d32942ee441a1",
    ),
    "finite_buffer_drops": (
        {
            "completions": [
                ('6->7@0.002', '0.0020614730000000003'),
                ('1->0@0.0021', '0.002153261'),
            ],
            "drops": [
                ('3->0@2e-06', '2e-06', 0),
                ('4->0@3e-06', '3e-06', 0),
                ('5->0@4e-06', '4e-06', 0),
                ('1->0@0.0', '2.8681000000000002e-05', 1),
                ('2->0@1e-06', '2.9782000000000004e-05', 1),
            ],
            "packets_delivered": '15',
            "packets_dropped": '20',
            "bytes_delivered": '20500.0',
            "transfers_stranded": '5',
            "trains_engaged": '0',
            "trains_materialized": '0',
            "trains_materialized_enqueue": '0',
            "trains_materialized_route": '0',
            "packet_hops": '44',
            "packet_hops_held": '34',
            "events_executed": '106',
            "events_scheduled": '116',
            "events_cancelled": '10',
        },
        "90651550f87a429609be29ed64189bf5",
    ),
    "ring_of_trains": (
        {
            "completions": [
                ('0->1@0.0', '6.488199999999999e-05'),
                ('4->5@1e-06', '6.569e-05'),
                ('1->2@1e-06', '7.4084e-05'),
                ('5->6@2e-06', '7.489200000000001e-05'),
                ('6->7@0.0', '8.1094e-05'),
                ('2->3@2e-06', '8.3286e-05'),
                ('3->4@0.0', '8.948799999999998e-05'),
                ('7->0@1e-06', '8.968e-05'),
                ('7->0@8.968e-05', '0.00014987999999999997'),
                ('3->4@8.948799999999998e-05', '0.00015049599999999994'),
                ('1->2@7.4084e-05', '0.00015068799999999998'),
                ('5->6@7.489200000000001e-05', '0.00015130399999999997'),
                ('4->5@8.948799999999998e-05', '0.00015769799999999995'),
                ('0->1@8.968e-05', '0.00015808199999999995'),
                ('6->7@8.1094e-05', '0.00016570799999999998'),
                ('2->3@8.3286e-05', '0.00016809199999999998'),
                ('6->7@0.00016570799999999998', '0.00022632199999999997'),
                ('2->3@0.00016809199999999998', '0.00022889799999999995'),
                ('4->5@0.00015769799999999995', '0.0002339079999999999'),
                ('7->0@0.00016570799999999998', '0.00023390799999999996'),
                ('0->1@0.00015808199999999995', '0.0002344839999999999'),
                ('3->4@0.00016809199999999998', '0.00023709999999999994'),
                ('5->6@0.00015769799999999995', '0.0002421099999999999'),
                ('1->2@0.00015808199999999995', '0.00024268599999999993'),
                ('5->6@0.0002421099999999999', '0.00030252199999999995'),
                ('1->2@0.00024268599999999993', '0.00030329'),
                ('7->0@0.00023390799999999996', '0.0003101080000000001'),
                ('6->7@0.0002421099999999999', '0.00031072399999999996'),
                ('2->3@0.00024268599999999993', '0.000311492'),
                ('3->4@0.00023709999999999994', '0.00031410800000000006'),
                ('0->1@0.0002344839999999999', '0.00031888600000000005'),
                ('4->5@0.00023709999999999994', '0.0003213100000000001'),
                ('0->1@0.00031888600000000005', '0.0003792880000000002'),
                ('4->5@0.0003213100000000001', '0.00038152000000000026'),
                ('6->7@0.00031072399999999996', '0.0003873380000000001'),
                ('1->2@0.00031888600000000005', '0.0003874900000000001'),
                ('2->3@0.000311492', '0.00038829800000000014'),
                ('5->6@0.0003213100000000001', '0.00038972200000000017'),
                ('7->0@0.00031072399999999996', '0.0003949240000000001'),
                ('3->4@0.00031410800000000006', '0.00039911600000000025'),
                ('7->0@0.0003949240000000001', '0.0004551240000000002'),
                ('3->4@0.00039911600000000025', '0.0004601240000000004'),
                ('0->1@0.0003949240000000001', '0.00046332600000000023'),
                ('1->2@0.0003874900000000001', '0.0004640940000000002'),
                ('5->6@0.00038972200000000017', '0.00046613400000000026'),
                ('4->5@0.00039911600000000025', '0.0004673260000000004'),
                ('2->3@0.00038829800000000014', '0.0004731040000000003'),
                ('6->7@0.00038972200000000017', '0.00047433600000000033'),
            ],
            "drops": [],
            "packets_delivered": '252',
            "packets_dropped": '0',
            "bytes_delivered": '360000.0',
            "transfers_stranded": '0',
            "trains_engaged": '48',
            "trains_materialized": '0',
            "trains_materialized_enqueue": '0',
            "trains_materialized_route": '0',
            "packet_hops": '0',
            "packet_hops_held": '0',
            "events_executed": '210',
            "events_scheduled": '258',
            "events_cancelled": '48',
        },
        "cdaf4ddb39ac7c08885567eccff9cc68",
    ),
    "star_lpi_sleep_bursts": (
        {
            "completions": [
                ('2->1@2e-06', '3.0663e-05'),
                ('5->6@8e-06', '3.3270999999999994e-05'),
                ('4->3@6e-06', '5.928600000000001e-05'),
                ('3->4@4e-06', '6.9488e-05'),
                ('7->1@9.999999999999999e-06', '7.8663e-05'),
                ('0->1@0.0', '0.00012666299999999998'),
                ('2->1@0.000402', '0.00042170300000000005'),
                ('5->6@0.000408', '0.00042431099999999997'),
                ('4->3@0.000406', '0.0004548060000000001'),
                ('3->4@0.000404', '0.00046500800000000015'),
                ('7->1@0.00041', '0.00046970300000000013'),
                ('0->1@0.0004', '0.0005177030000000001'),
                ('2->1@0.003002', '0.0030306630000000003'),
                ('5->6@0.0030080000000000003', '0.003033271'),
                ('4->3@0.003006', '0.0030592859999999996'),
                ('3->4@0.003004', '0.003069488'),
                ('7->1@0.00301', '0.0030786629999999997'),
                ('0->1@0.003', '0.003126662999999999'),
                ('2->1@0.250002', '0.25003066300000004'),
                ('5->6@0.250008', '0.25003327099999995'),
                ('7->1@0.25001', '0.25005466300000007'),
                ('4->3@0.250006', '0.250059286'),
                ('3->4@0.250004', '0.25006948800000006'),
                ('0->1@0.25', '0.260093261'),
            ],
            "drops": [],
            "packets_delivered": '69',
            "packets_dropped": '0',
            "bytes_delivered": '99500.0',
            "transfers_stranded": '0',
            "trains_engaged": '16',
            "trains_materialized": '8',
            "trains_materialized_enqueue": '4',
            "trains_materialized_route": '4',
            "packet_hops": '74',
            "packet_hops_held": '55',
            "events_executed": '248',
            "events_scheduled": '291',
            "events_cancelled": '43',
        },
        "422688c6b52766b29d0edcc5448a2310",
    ),
    "switch_fail_repair_sleep": (
        {
            "completions": [
                ('7->6@2.3000000000000003e-05', '0.00012831599999999996'),
                ('4->13@2e-05', '0.00020781099999999994'),
                ('9->12@2.5e-05', '0.000218094'),
                ('0->1@0.0', '0.00026166499999999996'),
                ('6->3@2.2000000000000003e-05', '0.0002664729999999999'),
                ('5->0@2.1000000000000002e-05', '0.00029618499999999997'),
                ('1->0@3e-06', '0.0003881850000000001'),
                ('8->9@1.2e-05', '0.0004930330000000004'),
                ('2->3@9e-06', '0.0005184730000000002'),
                ('8->9@2.4e-05', '0.0005890330000000001'),
                ('0->2@6e-06', '0.0006425519999999999'),
                ('0->8@0.0004', '0.0007635339999999994'),
            ],
            "drops": [],
            "packets_delivered": '200',
            "packets_dropped": '0',
            "bytes_delivered": '295000.0',
            "transfers_stranded": '0',
            "trains_engaged": '7',
            "trains_materialized": '5',
            "trains_materialized_enqueue": '0',
            "trains_materialized_route": '5',
            "packet_hops": '527',
            "packet_hops_held": '328',
            "events_executed": '1179',
            "events_scheduled": '1424',
            "events_cancelled": '245',
        },
        "1b5ba75dcd53efd14b6d0ba43cb13334",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_observables_match_pinned_values(scenario):
    assert observables(scenario) == PINNED[scenario]


def test_scenarios_take_the_paths_they_pin():
    alltoall = _finished("fat_tree_alltoall").network
    assert alltoall.trains_engaged > 0
    assert alltoall.trains_materialized_enqueue > 0
    assert alltoall.trains_materialized_route > 0
    assert alltoall.packet_hops_held > 0

    bursts = _finished("star_lpi_sleep_bursts")
    card_transitions = bursts.topo.switches["sw0"].linecards[0].tracker.transitions
    assert card_transitions.get(("sleep", "active"), 0) >= 1
    port_transitions = [p.tracker.transitions for p in bursts.topo.switches["sw0"].ports]
    assert sum(t.get(("lpi", "active"), 0) for t in port_transitions) > 8
    assert bursts.network.trains_engaged > 0

    drops = _finished("finite_buffer_drops")
    assert drops.network.packets_dropped > 0
    assert drops.network.transfers_stranded == len(drops.dropped) >= 2
    assert len({label for label, _t, _hop in drops.dropped}) == len(drops.dropped)

    faults = _finished("switch_fail_repair_sleep")
    edge = faults.topo.switches["edge-0-0"]
    assert (edge.failure_count, edge.repair_count) == (1, 1)
    assert faults.topo.switches["core-1-1"].tracker.transitions.get(("on", "sleep")) == 1
    ports = [p.tracker.transitions for p in edge.ports]
    assert any(t.get(("off", "active")) for t in ports)
    assert faults.network.packet_hops_held > 0

    ring = _finished("ring_of_trains")
    assert len(ring.done) == 8 * 6
    assert ring.network.trains_engaged == 8 * 6
    assert ring.network.trains_materialized == 0
