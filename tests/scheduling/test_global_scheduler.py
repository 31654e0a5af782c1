"""Tests for the global scheduler: DAG expansion, transfers, global queue."""

from __future__ import annotations

import pytest

from repro.core.config import LinkConfig, small_cloud_server
from repro.core.engine import Engine
from repro.jobs.task import Job, TaskState
from repro.jobs.templates import fan_out_job, pipeline_job, single_task_job, two_tier_job
from repro.network.flow import FlowNetwork
from repro.network.topology import Topology, star
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.policies import CapacityGatedPolicy, LeastLoadedPolicy, RoundRobinPolicy
from repro.server.server import Server


def make_farm(n_servers=2, n_cores=2, network=None, policy=None, use_global_queue=False,
              engine=None):
    engine = engine or Engine()
    servers = [
        Server(engine, small_cloud_server(n_cores=n_cores), server_id=i)
        for i in range(n_servers)
    ]
    scheduler = GlobalScheduler(
        engine, servers, policy=policy, network=network,
        use_global_queue=use_global_queue,
    )
    return engine, servers, scheduler


class TestBasicDispatch:
    def test_single_task_job_completes(self):
        engine, _, scheduler = make_farm()
        job = single_task_job(0.5)
        scheduler.submit_job(job)
        engine.run()
        assert job.finished
        assert scheduler.jobs_completed == 1
        assert scheduler.job_latency.mean() == pytest.approx(0.5, abs=0.01)

    def test_empty_job_rejected(self):
        _, _, scheduler = make_farm()
        with pytest.raises(ValueError):
            scheduler.submit_job(Job())

    def test_active_jobs_tracks_in_flight(self):
        engine, _, scheduler = make_farm()
        scheduler.submit_job(single_task_job(1.0))
        scheduler.submit_job(single_task_job(1.0))
        assert scheduler.active_jobs == 2
        engine.run()
        assert scheduler.active_jobs == 0

    def test_on_job_complete_callback(self):
        engine, _, scheduler = make_farm()
        done = []
        scheduler.on_job_complete = done.append
        job = single_task_job(0.1)
        scheduler.submit_job(job)
        engine.run()
        assert done == [job]

    def test_round_robin_spreads_jobs(self):
        engine, servers, scheduler = make_farm(n_servers=2, policy=RoundRobinPolicy())
        for _ in range(4):
            scheduler.submit_job(single_task_job(10.0))
        assert servers[0].tasks_submitted == 2
        assert servers[1].tasks_submitted == 2


class TestDagDependencies:
    def test_pipeline_runs_sequentially(self):
        engine, _, scheduler = make_farm()
        job = pipeline_job([0.5, 0.5, 0.5], transfer_bytes=0)
        scheduler.submit_job(job)
        engine.run()
        assert job.finished
        assert job.latency() == pytest.approx(1.5, abs=0.05)
        starts = [t.start_time for t in job.tasks]
        assert starts == sorted(starts)

    def test_child_never_starts_before_parents_finish(self):
        engine, _, scheduler = make_farm(n_servers=4)
        job = fan_out_job(0.2, [0.3, 0.5, 0.1], 0.2, transfer_bytes=0)
        scheduler.submit_job(job)
        engine.run()
        for src, dst, _ in job.edges:
            assert job.tasks[dst].start_time >= job.tasks[src].finish_time

    def test_fan_out_runs_leaves_in_parallel(self):
        engine, _, scheduler = make_farm(n_servers=4, n_cores=2)
        job = fan_out_job(0.1, [1.0] * 4, 0.1, transfer_bytes=0)
        scheduler.submit_job(job)
        engine.run()
        # Root 0.1 + leaves in parallel 1.0 + aggregate 0.1.
        assert job.latency() == pytest.approx(1.2, abs=0.05)


class TestNetworkTransfers:
    def _star_net(self, engine, n=4, rate=1e8):
        topo = star(engine, n, link_config=LinkConfig(rate_bps=rate))
        return FlowNetwork(engine, topo)

    def test_cross_server_edge_uses_network(self):
        engine = Engine()
        network = self._star_net(engine, rate=1e8)
        _, servers, scheduler = make_farm(
            n_servers=2, network=network, policy=RoundRobinPolicy(), engine=engine
        )
        job = two_tier_job(0.1, 0.1, transfer_bytes=125e4)  # 10 Mbit -> 0.1 s
        scheduler.submit_job(job)
        engine.run()
        # Round robin put app on h0 and db on h1: transfer happened.
        assert network.flows_completed == 1
        # Latency = 0.1 (app) + ~0.2 (two-hop shared path... 10Mbit at 100Mbps
        # over 2 hops of a fluid flow = 0.1) + 0.1 (db).
        assert job.latency() == pytest.approx(0.3, abs=0.05)
        assert len(scheduler.transfer_delay) == 1

    def test_same_server_edge_skips_network(self):
        engine = Engine()
        network = self._star_net(engine)
        _, servers, scheduler = make_farm(
            n_servers=1, network=network, engine=engine
        )
        job = two_tier_job(0.1, 0.1, transfer_bytes=125e4)
        scheduler.submit_job(job)
        engine.run()
        assert network.flows_completed == 0
        assert job.finished

    def test_zero_byte_edge_skips_network(self):
        engine = Engine()
        network = self._star_net(engine)
        _, _, scheduler = make_farm(
            n_servers=2, network=network, policy=RoundRobinPolicy(), engine=engine
        )
        job = two_tier_job(0.1, 0.1, transfer_bytes=0)
        scheduler.submit_job(job)
        engine.run()
        assert network.flows_completed == 0
        assert job.finished

    def test_child_waits_for_all_transfers(self):
        engine = Engine()
        network = self._star_net(engine, rate=1e8)
        _, _, scheduler = make_farm(
            n_servers=4, network=network, policy=RoundRobinPolicy(), engine=engine
        )
        # Two parents feeding one child, each shipping 10 Mbit.
        job = Job()
        job.add_task(0.1, name="p1")
        job.add_task(0.3, name="p2")
        job.add_task(0.1, name="child")
        job.add_edge(0, 2, 125e4)
        job.add_edge(1, 2, 125e4)
        scheduler.submit_job(job)
        engine.run()
        child = job.tasks[2]
        # p2 finishes at 0.3; its transfer takes ~0.1 -> child starts >= 0.4.
        assert child.start_time >= 0.4 - 1e-6


class TestGlobalQueue:
    def test_tasks_wait_centrally_when_farm_full(self):
        engine, servers, scheduler = make_farm(
            n_servers=1, n_cores=1,
            policy=CapacityGatedPolicy(LeastLoadedPolicy()),
            use_global_queue=True,
        )
        for _ in range(3):
            scheduler.submit_job(single_task_job(1.0))
        # One task running, two waiting centrally (not at the server).
        assert scheduler.global_queue_length == 2
        assert servers[0].queued_task_count == 0
        engine.run()
        assert scheduler.jobs_completed == 3
        assert engine.now == pytest.approx(3.0, abs=0.05)

    def test_server_pulls_on_completion(self):
        engine, servers, scheduler = make_farm(
            n_servers=2, n_cores=1,
            policy=CapacityGatedPolicy(LeastLoadedPolicy()),
            use_global_queue=True,
        )
        for _ in range(4):
            scheduler.submit_job(single_task_job(1.0))
        assert scheduler.global_queue_length == 2
        engine.run(until=1.05)
        assert scheduler.global_queue_length == 0

    def test_total_pending_counts_global_queue(self):
        _, _, scheduler = make_farm(
            n_servers=1, n_cores=1,
            policy=CapacityGatedPolicy(LeastLoadedPolicy()),
            use_global_queue=True,
        )
        for _ in range(3):
            scheduler.submit_job(single_task_job(1.0))
        assert scheduler.total_pending_tasks() == 3

    def test_drain_pulls_one_task_per_free_core(self):
        # Two leaves of a fan-out queue centrally.  A pulled leaf whose
        # parent ran elsewhere waits for its result transfer and takes no
        # core, so the first server to free one core must not pull both:
        # the second leaf goes to the next server that frees.
        engine = Engine()
        network = FlowNetwork(engine, star(engine, 3))
        _, _, scheduler = make_farm(
            n_servers=3, n_cores=1, network=network, engine=engine,
            policy=CapacityGatedPolicy(LeastLoadedPolicy()),
            use_global_queue=True,
        )
        job = Job()
        root = job.add_task(1.0, name="root")
        leaves = [job.add_task(1.0, name=f"leaf{i}") for i in range(3)]
        job.add_edges((root.index, leaf.index, 1e6) for leaf in leaves)
        scheduler.submit_job(job)
        scheduler.submit_job(single_task_job(1.5))
        scheduler.submit_job(single_task_job(1.6))
        engine.run(until=1.0)
        assert scheduler.global_queue_length == 2
        engine.run(until=1.55)
        # Server 1 freed its core at 1.5 s and pulled one leaf only.
        assert scheduler.global_queue_length == 1
        engine.run()
        assert job.finished
        assert [leaf.server_id for leaf in leaves] == [0, 1, 2]
        assert leaves[1].start_time == pytest.approx(1.508, abs=0.005)
        assert leaves[2].start_time == pytest.approx(1.608, abs=0.005)

    def test_without_global_queue_tasks_queue_locally(self):
        engine, servers, scheduler = make_farm(n_servers=1, n_cores=1)
        for _ in range(3):
            scheduler.submit_job(single_task_job(1.0))
        assert scheduler.global_queue_length == 0
        assert servers[0].queued_task_count == 2


class TestStatsCollection:
    def test_queue_delay_measured(self):
        engine, _, scheduler = make_farm(n_servers=1, n_cores=1)
        scheduler.submit_job(single_task_job(1.0))
        scheduler.submit_job(single_task_job(1.0))
        engine.run()
        assert len(scheduler.task_queue_delay) == 2
        assert scheduler.task_queue_delay.max() == pytest.approx(1.0, abs=0.05)

    def test_job_latency_includes_queueing(self):
        engine, _, scheduler = make_farm(n_servers=1, n_cores=1)
        scheduler.submit_job(single_task_job(1.0))
        scheduler.submit_job(single_task_job(1.0))
        engine.run()
        assert scheduler.job_latency.max() == pytest.approx(2.0, abs=0.05)


class TestPlacementRetention:
    def test_drained_drive_run_leaves_no_placements(self):
        # A placement outliving its task keeps every finished Task/Job
        # reachable, so per-job memory grows without bound over a run.
        from repro.core.rng import RandomSource
        from repro.experiments.common import build_farm, drive
        from repro.workload.arrivals import PoissonProcess
        from repro.workload.profiles import ExponentialService, SingleTaskJobFactory

        farm = build_farm(4, small_cloud_server(), policy=LeastLoadedPolicy(), seed=1)
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(ExponentialService(0.005), rng.stream("s"))
        drive(farm, PoissonProcess(500.0, rng.stream("a")), factory, max_jobs=300)
        assert farm.scheduler.jobs_completed == 300
        assert farm.scheduler._placements == {}

    def test_transfer_dag_leaves_no_placements(self):
        engine = Engine()
        topo = star(engine, 4, link_config=LinkConfig(rate_bps=1e8))
        _, _, scheduler = make_farm(
            n_servers=2, network=FlowNetwork(engine, topo),
            policy=RoundRobinPolicy(), engine=engine,
        )
        scheduler.submit_job(pipeline_job([0.1, 0.1, 0.1], transfer_bytes=125e4))
        engine.run()
        assert scheduler.jobs_completed == 1
        assert scheduler._placements == {}
