"""Byte-conservation property tests for collectives under cross-traffic."""

from __future__ import annotations

import random

import pytest

from repro.collective import all_to_all_job, ring_allreduce_job, tree_allreduce_job
from repro.core.engine import Engine
from repro.core.invariants import audit_collective
from repro.network.packet import PacketNetwork
from repro.network.topology import fat_tree
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.placement import GroupPlacementPolicy
from repro.server.server import Server
from repro.core.config import small_cloud_server


def _build(k: int = 4):
    engine = Engine()
    topo = fat_tree(engine, k)
    servers = [
        Server(engine, small_cloud_server(n_cores=2), server_id=i)
        for i in range(topo.n_servers)
    ]
    net = PacketNetwork(engine, topo)
    scheduler = GlobalScheduler(
        engine, servers, policy=GroupPlacementPolicy(topo), network=net
    )
    return engine, topo, net, scheduler


def _drain(engine, scheduler, n_jobs):
    guard = 0
    while scheduler.jobs_completed < n_jobs:
        if not engine.step():
            break
        guard += 1
        assert guard < 5_000_000, "run did not converge"
    assert scheduler.jobs_completed == n_jobs


class TestCollectiveCrossTraffic:
    def test_two_collectives_share_network_audit_stays_exact(self):
        # A second collective IS the cross-traffic: both jobs carry specs,
        # so the chunk-accounting audit remains an equality, congestion and
        # all.
        engine, topo, net, scheduler = _build()
        jobs = [
            ring_allreduce_job(4, 48_000.0, job_id=0),
            all_to_all_job(4, 64_000.0, job_id=1),
        ]
        for job in jobs:
            scheduler.submit_job(job)
        _drain(engine, scheduler, 2)

        audit_collective(scheduler, net, jobs=jobs).raise_if_violated()
        wire = sum(j.collective.wire_bytes for j in jobs)
        assert scheduler.transfers_launched == sum(
            j.collective.n_transfers for j in jobs
        )
        assert scheduler.transfer_bytes_launched == pytest.approx(wire)
        assert net.bytes_delivered == pytest.approx(wire)
        assert net.transfers_stranded == 0

    @pytest.mark.parametrize("seed", [3, 17, 251])
    def test_randomized_collective_mix_conserves_bytes(self, seed):
        # Property: any mix of collective jobs conserves launched bytes
        # end to end — delivered == launched == sum of spec wire bytes.
        rng = random.Random(seed)
        engine, topo, net, scheduler = _build()
        makers = (ring_allreduce_job, tree_allreduce_job, all_to_all_job)
        jobs = []
        for job_id in range(rng.randint(2, 4)):
            maker = rng.choice(makers)
            p = rng.choice((2, 3, 4))
            size = rng.randint(2_000, 120_000)
            jobs.append(maker(p, float(size), job_id=job_id))
        for job in jobs:
            scheduler.submit_job(job)
        _drain(engine, scheduler, len(jobs))

        audit_collective(scheduler, net, jobs=jobs).raise_if_violated()
        wire = sum(j.collective.wire_bytes for j in jobs)
        assert net.bytes_delivered == pytest.approx(wire)
        assert net.transfers_stranded == 0

    def test_raw_cross_traffic_manual_accounting(self):
        # Non-collective cross-traffic injected straight into the network
        # (bypassing the scheduler): the spec equality no longer covers the
        # network totals, so account by hand — every byte from either source
        # is delivered, none stranded.
        engine, topo, net, scheduler = _build()
        job = ring_allreduce_job(4, 60_000.0, job_id=0)
        scheduler.submit_job(job)

        cross_bytes = 0.0
        delivered_cross = []
        rng = random.Random(7)
        for _ in range(6):
            src, dst = rng.sample(range(topo.n_servers), 2)
            size = float(rng.randint(5_000, 40_000))
            cross_bytes += size
            net.transfer(src, dst, size, lambda s=size: delivered_cross.append(s))

        _drain(engine, scheduler, 1)
        while engine.step():  # flush remaining cross-traffic
            pass

        assert len(delivered_cross) == 6
        # Scheduler counters cover only the collective...
        assert scheduler.transfers_launched == job.collective.n_transfers
        assert scheduler.transfer_bytes_launched == pytest.approx(
            job.collective.wire_bytes
        )
        # ...while the network saw (and delivered) both traffic sources.
        assert net.bytes_delivered == pytest.approx(
            job.collective.wire_bytes + cross_bytes
        )
        assert net.transfers_stranded == 0
