"""Pinned observables of the flow-model paths the benchmark never takes.

``fig11-joint``, the benchmark's only flow-model workload, never fails a
link or a switch, so its pinned digest never exercises re-routing,
stranding and resumption, or a switch dying while flows wait on its wake.
Each scenario below drives staggered transfers across a k=4 fat tree
through one of those paths and compares the results with values recorded
from an earlier build, exactly: every float by ``repr``.  A change meant
only to make the flow model faster must leave every one of them unchanged.

Every link gets its own propagation delay, so the delay charged to a flow
depends on the route it finally takes; the first scenario re-routes a flow
in the same instant it starts, before it has moved a bit.

The pinned fields are the completion callback times in firing order, the
re-route, strand and completion counters, bits delivered and the executed
event count (compared verbatim), plus a blake2b digest over the
flow-completion-time samples and the chassis, line-card, port and total
energy of every switch.  To see what moved, print ``observables(scenario)``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Tuple

import pytest

from repro.core.config import LinkConfig
from repro.core.engine import Engine
from repro.network.flow import Flow, FlowNetwork
from repro.network.switch import SwitchState
from repro.network.topology import Topology, fat_tree

MB = 1e6


class _Run:
    """A k=4 fat tree, its flow network and a log of completion times."""

    def __init__(self) -> None:
        self.engine = Engine()
        self.topo: Topology = fat_tree(
            self.engine, 4, link_config=LinkConfig(rate_bps=1e9)
        )
        for i, link in enumerate(self.topo.links.values()):
            link.config = dataclasses.replace(
                link.config, propagation_delay_s=1e-6 * (1 + i % 7) + 1e-7 * i
            )
        self.network = FlowNetwork(self.engine, self.topo)
        self.done: List[Tuple[str, str]] = []
        self.moved: List[Tuple[float, Flow, list]] = []

    def transfer(self, src: int, dst: int, size_bytes: float):
        label = f"{src}->{dst}@{self.engine.now!r}"
        return self.network.transfer(
            src, dst, size_bytes,
            lambda: self.done.append((label, repr(self.engine.now))),
        )

    def staggered(self, n: int, spacing_s: float) -> None:
        """Schedule ``n`` transfers of 30-110 MB between spread-out pairs."""
        for i in range(n):
            src = (3 * i) % 16
            dst = (7 * i + 5) % 16
            if src == dst:
                dst = (dst + 1) % 16
            size = MB * (30 + (13 * i) % 81)
            self.engine.schedule(spacing_s * i, self.transfer, src, dst, size)

    def fail_switch(self, name: str) -> None:
        self.topo.switches[name].fail()
        self.topo.fail_node(name)
        self.network.reroute_around_failures()

    def repair_switch(self, name: str) -> None:
        self.topo.repair_node(name)
        self.topo.switches[name].repair()
        self.network.retry_stranded()


def core_link_reroute() -> _Run:
    """A core link fails in the instant a new flow starts on it: once under
    load, once with the new flow alone (nothing re-times its completion, so
    it carries the propagation delay of the route it was moved to)."""
    run = _Run()
    run.staggered(14, 0.05)

    def start_and_fail(src: int, dst: int) -> None:
        flow = run.transfer(src, dst, 80 * MB)
        first_route = flow.hops
        agg, core = next(
            (u, v) for u, v in zip(flow.path, flow.path[1:]) if v.startswith("core")
        )
        run.topo.fail_link(agg, core)
        run.network.reroute_around_failures()
        run.moved.append((run.engine.now, flow, first_route))

    def mend() -> None:
        for failed in sorted(run.topo.failed_links):
            run.topo.repair_link(*failed)
        run.network.retry_stranded()

    run.engine.schedule(0.33, start_and_fail, 2, 13)
    run.engine.schedule(0.9, mend)
    run.engine.schedule(3.0, start_and_fail, 6, 10)
    run.engine.schedule(4.0, mend)
    return run


def edge_switch_strand() -> _Run:
    """An edge switch fails, stranding its hosts' flows until repaired."""
    run = _Run()
    run.staggered(12, 0.025)
    run.engine.schedule(0.001, run.transfer, 0, 9, 100 * MB)
    run.engine.schedule(0.002, run.transfer, 14, 1, 60 * MB)
    run.engine.schedule(0.3, run.fail_switch, "edge-0-0")
    run.engine.schedule(1.2, run.repair_switch, "edge-0-0")
    return run


def sleeping_switch_dies_mid_wake() -> _Run:
    """Flows wait on several sleeping switches; one dies during the wake."""
    run = _Run()
    for name, switch in run.topo.switches.items():
        if name.startswith(("core", "agg-3", "edge-3", "agg-2")):
            assert switch.sleep()
    # Pods 0 and 1 stay awake; their pod-local flows run during the wake.
    for i, (src, dst) in enumerate([(0, 2), (3, 1), (4, 6), (7, 5)]):
        run.engine.schedule(0.01 * i, run.transfer, src, dst, (100 + 20 * i) * MB)
    waiting = []
    for i, (src, dst) in enumerate([(0, 12), (1, 14), (5, 15), (3, 9)]):
        run.engine.schedule(
            0.02 + 0.01 * i,
            lambda s=src, d=dst, m=(50 + 10 * i) * MB: waiting.append(run.transfer(s, d, m)),
        )

    def kill_a_waking_core() -> None:
        core = next(n for n in waiting[0].path if n.startswith("core"))
        assert run.topo.switches[core].state is SwitchState.WAKING
        run.fail_switch(core)
        run.engine.schedule(2.5, run.repair_switch, core)

    run.engine.schedule(0.6, kill_a_waking_core)
    return run


SCENARIOS: Dict[str, Callable[[], _Run]] = {
    "core_link_reroute": core_link_reroute,
    "edge_switch_strand": edge_switch_strand,
    "sleeping_switch_dies_mid_wake": sleeping_switch_dies_mid_wake,
}


def observables(scenario: str) -> Tuple[Dict[str, object], str]:
    """(headline fields as reprs, digest of FCT samples and switch energy)."""
    run = SCENARIOS[scenario]()
    run.engine.run()
    network, now = run.network, run.engine.now
    headline = {
        "completions": run.done,
        "flows_completed": repr(network.flows_completed),
        "flows_rerouted": repr(network.flows_rerouted),
        "flows_stranded": repr(network.flows_stranded),
        "bits_delivered": repr(network.bits_delivered),
        "events_executed": repr(run.engine.events_executed),
    }
    detail = [tuple(network.flow_completion_time.samples)]
    for name, switch in sorted(run.topo.switches.items()):
        detail.append((
            name,
            switch.energy_j(now),
            switch.chassis_energy.energy_j(now),
            tuple(
                (lc.energy.energy_j(now), tuple(p.energy.energy_j(now) for p in lc.ports))
                for lc in switch.linecards
            ),
        ))
    digest = hashlib.blake2b(repr(detail).encode(), digest_size=16).hexdigest()
    return headline, digest


PINNED: Dict[str, Tuple[Dict[str, object], str]] = {
    "core_link_reroute": (
        {
            "completions": [
                ("0->5@0.0", "0.495"),
                ("5->6@0.35000000000000003", "0.67"),
                ("3->12@0.05", "0.8029999999999999"),
                ("11->4@0.45", "0.993"),
                ("9->10@0.15000000000000002", "1.004"),
                ("6->3@0.1", "1.019"),
                ("8->13@0.4", "1.2480000000000002"),
                ("7->0@0.65", "1.365"),
                ("1->2@0.55", "1.4589999999999999"),
                ("12->1@0.2", "1.5"),
                ("2->13@0.33", "1.5866666666666667"),
                ("2->15@0.30000000000000004", "1.8398333333333334"),
                ("15->8@0.25", "1.9800000000000002"),
                ("14->11@0.5", "2.224"),
                ("4->9@0.6000000000000001", "2.482"),
                ("6->10@3.0", "3.6400384"),
            ],
            "flows_completed": "16",
            "flows_rerouted": "4",
            "flows_stranded": "0",
            "bits_delivered": "8920000000.0",
            "events_executed": "191",
        },
        "0f67addfe10ffd55f8b0398b74231c8f",
    ),
    "edge_switch_strand": (
        {
            "completions": [
                ("5->6@0.17500000000000002", "0.495"),
                ("6->3@0.05", "0.623"),
                ("3->12@0.025", "0.7819999999999999"),
                ("11->4@0.225", "0.7863333333333333"),
                ("9->10@0.07500000000000001", "0.86"),
                ("14->11@0.25", "0.907"),
                ("15->8@0.125", "0.9725"),
                ("8->13@0.2", "1.242"),
                ("0->5@0.0", "1.4809999999999999"),
                ("2->15@0.15000000000000002", "1.6569999999999998"),
                ("14->1@0.002", "1.814"),
                ("12->1@0.1", "2.063"),
                ("0->9@0.001", "2.6029999999999998"),
                ("1->2@0.275", "2.6759999999999997"),
            ],
            "flows_completed": "14",
            "flows_rerouted": "5",
            "flows_stranded": "5",
            "bits_delivered": "7784000000.0",
            "events_executed": "169",
        },
        "122e3385c79f4c2aa30c981d2c45a616",
    ),
    "sleeping_switch_dies_mid_wake": (
        {
            "completions": [
                ("0->2@0.0", "0.8"),
                ("3->1@0.01", "0.97"),
                ("4->6@0.02", "1.14"),
                ("7->5@0.03", "1.31"),
                ("3->9@0.05", "1.69"),
                ("0->12@0.02", "2.8000000000000003"),
                ("1->14@0.03", "2.9600000000000004"),
                ("5->15@0.04", "3.0400000000000005"),
            ],
            "flows_completed": "8",
            "flows_rerouted": "3",
            "flows_stranded": "0",
            "bits_delivered": "6240000000.0",
            "events_executed": "125",
        },
        "9e985c39e169a99b2f5bfabd8408efe2",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_observables_match_pinned_values(scenario):
    assert observables(scenario) == PINNED[scenario]


def test_scenarios_take_the_paths_they_pin():
    link = core_link_reroute()
    link.engine.run()
    assert link.network.flows_rerouted >= 2
    assert link.network.flows_stranded == 0
    # The lone flow left its first route before moving a bit; it finishes
    # one transmission time plus its final route's propagation later.
    started, lone, first_route = link.moved[-1]
    prop = sum(hop[0].propagation_delay_s for hop in lone.hops)
    assert prop != sum(hop[0].propagation_delay_s for hop in first_route)
    assert link.done[-1][1] == repr(started + (80 * MB * 8 / 1e9 + prop))

    edge = edge_switch_strand()
    edge.engine.run()
    assert edge.network.flows_stranded >= 2
    assert edge.network.stranded_flow_count == 0

    wake = sleeping_switch_dies_mid_wake()
    wake.engine.run()
    assert wake.network.flows_rerouted >= 1
    assert sum(sw.failure_count for sw in wake.topo.switches.values()) == 1
    for run in (link, edge, wake):
        assert run.network.active_flow_count == 0
        assert run.network.flows_completed == len(run.done)
