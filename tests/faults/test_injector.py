"""End-to-end tests for the FaultInjector: determinism, availability, traces."""

from __future__ import annotations

import pytest

from repro.core.config import FaultConfig, LinkConfig, small_cloud_server
from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.experiments.common import build_farm, drive
from repro.experiments.fault_resilience import (
    run_fault_resilience_point,
    run_fault_resilience_sweep,
)
from repro.faults.injector import FaultInjector
from repro.network.flow import FlowNetwork
from repro.network.packet import PacketNetwork
from repro.network.topology import fat_tree, star
from repro.scheduling.policies import LeastLoadedPolicy
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import DeterministicService, SingleTaskJobFactory


def _run_farm(seed=9, fault_config=None, duration=2.0):
    """A small seeded farm run; returns its observable outcome tuple."""
    farm = build_farm(2, small_cloud_server(n_cores=2),
                      policy=LeastLoadedPolicy(), seed=seed)
    injector = None
    if fault_config is not None:
        injector = FaultInjector(
            farm.engine, fault_config, farm.rng,
            servers=farm.servers, scheduler=farm.scheduler,
        )
        injector.start()
    rng = RandomSource(seed)
    factory = SingleTaskJobFactory(DeterministicService(0.02), rng.stream("service"))
    drive(farm, PoissonProcess(50.0, rng.stream("arrivals")), factory,
          duration_s=duration, drain=False)
    if injector is not None:
        injector.stop()
    return farm, injector


class TestDisabledIsInert:
    def test_disabled_start_schedules_nothing(self):
        engine = Engine()
        injector = FaultInjector(engine, FaultConfig(), RandomSource(1))
        injector.start()
        assert engine.pending_count() == 0
        assert injector.summary() == {
            "failures_injected": 0,
            "repairs_applied": 0,
            "fleet_availability": 1.0,
            "components": {},
        }

    def test_disabled_run_bit_identical_to_no_injector(self):
        baseline, _ = _run_farm(fault_config=None)
        guarded, _ = _run_farm(fault_config=FaultConfig())  # enabled=False
        assert guarded.engine.events_executed == baseline.engine.events_executed
        assert guarded.engine.now == baseline.engine.now
        assert (
            guarded.scheduler.jobs_completed == baseline.scheduler.jobs_completed
        )
        assert (
            guarded.scheduler.job_latency.samples
            == baseline.scheduler.job_latency.samples
        )
        assert guarded.total_energy_j(2.0) == baseline.total_energy_j(2.0)


class TestDeterminism:
    CFG = FaultConfig(enabled=True, server_mtbf_s=1.0, server_mttr_s=0.2)

    def test_same_seed_same_fault_sequence(self):
        a_farm, a_inj = _run_farm(fault_config=self.CFG)
        b_farm, b_inj = _run_farm(fault_config=self.CFG)
        assert a_inj.failures_injected > 0
        assert a_inj.failures_injected == b_inj.failures_injected
        assert a_inj.summary(a_farm.engine.now) == b_inj.summary(b_farm.engine.now)
        assert (
            a_farm.scheduler.job_latency.samples
            == b_farm.scheduler.job_latency.samples
        )

    def test_experiment_point_reproducible(self):
        cfg = FaultConfig(enabled=True, server_mtbf_s=10.0, server_mttr_s=2.0)
        a = run_fault_resilience_point(cfg, n_servers=4, duration_s=10.0, seed=5)
        b = run_fault_resilience_point(cfg, n_servers=4, duration_s=10.0, seed=5)
        assert a == b
        assert a.availability < 1.0

    def test_weibull_distribution_runs(self):
        cfg = FaultConfig(
            enabled=True, distribution="weibull",
            server_mtbf_s=1.0, server_mttr_s=0.2,
        )
        _, injector = _run_farm(fault_config=cfg)
        assert injector.failures_injected > 0


class TestTraceDriven:
    def test_trace_availability_accounting(self):
        engine = Engine()
        farm = build_farm(1, small_cloud_server(n_cores=1), engine=engine)
        cfg = FaultConfig(
            enabled=True,
            trace=((1.0, "server", "0", "fail"), (3.0, "server", "0", "repair")),
        )
        injector = FaultInjector(
            engine, cfg, RandomSource(0),
            servers=farm.servers, scheduler=farm.scheduler,
        )
        injector.start()
        engine.run()
        now = 4.0
        tracker = injector.trackers["server:0"]
        # Up 0..1 and 3..4, down 1..3: two of four seconds up.
        assert tracker.uptime_fraction(now) == pytest.approx(0.5)
        assert tracker.failures == 1 and tracker.repairs == 1
        assert tracker.observed_mttr_s(now) == pytest.approx(2.0)
        assert injector.failures_injected == 1
        assert injector.repairs_applied == 1
        assert farm.servers[0].is_failed is False

    def test_trace_switch_and_link_events(self):
        engine = Engine()
        topo = star(engine, 2, link_config=LinkConfig(rate_bps=1e9))
        network = FlowNetwork(engine, topo)
        cfg = FaultConfig(
            enabled=True,
            trace=(
                (1.0, "switch", "sw0", "fail"),
                (2.0, "switch", "sw0", "repair"),
                (3.0, "link", "h0|sw0", "fail"),
                (4.0, "link", "h0|sw0", "repair"),
            ),
        )
        injector = FaultInjector(
            engine, cfg, RandomSource(0), topology=topo, network=network
        )
        injector.start()
        engine.run(until=1.5)
        assert topo.switches["sw0"].is_on is False
        assert not topo.node_is_up("sw0")
        engine.run(until=3.5)
        assert topo.switches["sw0"].is_on
        assert not topo.link_is_up("h0", "sw0")
        engine.run()
        assert topo.link_is_up("h0", "sw0")
        assert injector.failures_injected == 2
        assert injector.repairs_applied == 2

    def test_trace_unknown_target_raises(self):
        engine = Engine()
        cfg = FaultConfig(enabled=True, trace=((1.0, "server", "42", "fail"),))
        injector = FaultInjector(engine, cfg, RandomSource(0), servers=[])
        injector.start()
        with pytest.raises(KeyError):
            engine.run()

    def test_trace_masks_stranded_transfer(self):
        """A transfer crossing a scripted outage completes after the repair."""
        engine = Engine()
        topo = star(engine, 2, link_config=LinkConfig(rate_bps=1e9))
        network = FlowNetwork(engine, topo)
        cfg = FaultConfig(
            enabled=True,
            trace=((0.5, "switch", "sw0", "fail"), (2.0, "switch", "sw0", "repair")),
        )
        injector = FaultInjector(
            engine, cfg, RandomSource(0), topology=topo, network=network
        )
        injector.start()
        done = []
        network.transfer(0, 1, 125e6, lambda: done.append(engine.now))
        engine.run()
        assert done and done[0] == pytest.approx(2.5, rel=0.05)
        assert network.flows_stranded == 1


class TestNetworkHooks:
    def test_packet_network_refused_at_construction(self):
        # A switch or link fault would call FlowNetwork-only hooks and end
        # the run with AttributeError at the first fault.
        engine = Engine()
        topo = fat_tree(engine, 4, link_config=LinkConfig(rate_bps=1e9))
        cfg = FaultConfig(enabled=True, switch_mtbf_s=0.5, switch_mttr_s=0.02,
                          link_mtbf_s=0.5, link_mttr_s=0.02)
        with pytest.raises(ValueError) as err:
            FaultInjector(engine, cfg, RandomSource(11), topology=topo,
                          network=PacketNetwork(engine, topo))
        message = str(err.value)
        for words in ("PacketNetwork", "reroute_around_failures()",
                      "retry_stranded()", "item 7(a)", "topology= alone"):
            assert words in message

    def test_packet_network_topology_alone_routes_new_transfers_around(self):
        engine = Engine()
        topo = fat_tree(engine, 4, link_config=LinkConfig(rate_bps=1e9))
        network = PacketNetwork(engine, topo)
        cfg = FaultConfig(enabled=True, switch_mtbf_s=0.5, switch_mttr_s=0.02,
                          link_mtbf_s=0.5, link_mttr_s=0.02)
        injector = FaultInjector(engine, cfg, RandomSource(11), topology=topo)
        injector.start()
        done = []
        n_transfers = 50
        for i in range(n_transfers):
            engine.schedule(0.01 * i, network.transfer, i % 16, (i * 7 + 3) % 16,
                            10_000.0, lambda: done.append(engine.now))
        engine.run(until=1.0)
        injector.stop()
        assert injector.failures_injected > 0
        # Each new transfer either found a route around the failures and
        # landed, or met a partition and was counted as stranded.
        assert done and len(done) + network.transfers_stranded == n_transfers


class TestStop:
    def test_stop_cancels_pending_fault_events(self):
        cfg = FaultConfig(enabled=True, server_mtbf_s=5.0, server_mttr_s=1.0)
        engine = Engine()
        farm = build_farm(2, small_cloud_server(n_cores=1), engine=engine)
        injector = FaultInjector(
            engine, cfg, RandomSource(3),
            servers=farm.servers, scheduler=farm.scheduler,
        )
        before = engine.pending_count()
        injector.start()
        assert engine.pending_count() == before + 2  # one failure per server
        injector.stop()
        assert engine.pending_count() == before
        engine.run()  # terminates: no fault loop left

    def test_start_twice_is_noop(self):
        cfg = FaultConfig(enabled=True, server_mtbf_s=5.0, server_mttr_s=1.0)
        engine = Engine()
        farm = build_farm(2, small_cloud_server(n_cores=1), engine=engine)
        injector = FaultInjector(
            engine, cfg, RandomSource(3), servers=farm.servers
        )
        injector.start()
        pending = engine.pending_count()
        injector.start()
        assert engine.pending_count() == pending


class TestExperimentSweep:
    def test_sweep_shows_degrading_availability(self):
        sweep = run_fault_resilience_sweep(
            mtbf_values=(60.0, 5.0), mttr_s=2.0,
            n_servers=4, duration_s=15.0, seed=2,
        )
        rare, frequent = sweep.points
        assert frequent.availability < rare.availability <= 1.0
        assert frequent.tasks_retried >= rare.tasks_retried
        assert "avail" in sweep.render()

    def test_render_smoke(self):
        cfg = FaultConfig(enabled=True, server_mtbf_s=2.0, server_mttr_s=0.5)
        farm, injector = _run_farm(fault_config=cfg)
        text = injector.render(farm.engine.now)
        assert "fleet availability" in text
        assert "server:0" in text
