"""Closed-form ring-allreduce step time on an uncongested fat tree.

With every wake latency zeroed, store-and-forward delivery of ``n`` MTU
packets over the two links between hosts on the same edge switch is

    T = (n + 1) * t_pkt + 2 * t_prop

and a ``p``-rank ring allreduce runs ``2(p-1)`` such phases back to back,
so the whole job takes ``eps + 2(p-1) * (T + eps)`` with ``eps`` the entry/
merge task service time.  This pins the collective -> flow -> packet-train
mapping to hand-computable numbers.
"""

from __future__ import annotations

import pytest

from repro.collective import ring_allreduce_job
from repro.collective.templates import EPS_SERVICE_S
from repro.core.config import (
    LineCardPowerProfile,
    LinkConfig,
    PortPowerProfile,
    SwitchConfig,
    small_cloud_server,
)
from repro.core.engine import Engine
from repro.core.invariants import audit_collective
from repro.network.packet import DEFAULT_MTU_BYTES, PacketNetwork
from repro.network.topology import fat_tree
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.placement import GroupPlacementPolicy
from repro.server.server import Server

RATE_BPS = 1e9
PROP_S = 5e-7

ZERO_WAKE_SWITCH = SwitchConfig(
    wake_latency_s=0.0,
    port_profile=PortPowerProfile(lpi_entry_latency_s=0.0, lpi_exit_latency_s=0.0),
    linecard_profile=LineCardPowerProfile(sleep_exit_latency_s=0.0),
)


def _build_cluster(k: int = 8):
    engine = Engine()
    topo = fat_tree(
        engine,
        k,
        switch_config=ZERO_WAKE_SWITCH,
        link_config=LinkConfig(rate_bps=RATE_BPS, propagation_delay_s=PROP_S),
    )
    servers = [
        Server(engine, small_cloud_server(n_cores=1), server_id=i)
        for i in range(topo.n_servers)
    ]
    net = PacketNetwork(engine, topo)
    scheduler = GlobalScheduler(
        engine, servers, policy=GroupPlacementPolicy(topo), network=net
    )
    return engine, topo, net, scheduler


def _run_to_completion(engine, scheduler, n_jobs: int = 1) -> None:
    while scheduler.jobs_completed < n_jobs:
        if not engine.step():
            break
    assert scheduler.jobs_completed == n_jobs


def _chunk_delivery_s(chunk_bytes: float) -> float:
    """Store-and-forward time for one chunk over src->edge->dst."""
    n_full, rem = divmod(int(chunk_bytes), DEFAULT_MTU_BYTES)
    t_pkt = DEFAULT_MTU_BYTES * 8 / RATE_BPS
    t_rem = rem * 8 / RATE_BPS
    if rem:
        # Serialization of all packets on hop 0, then the last (partial)
        # packet's second-hop serialization.
        serialization = n_full * t_pkt + t_rem + t_rem
    else:
        serialization = (n_full + 1) * t_pkt
    return serialization + 2 * PROP_S


class TestClosedFormRing:
    def test_group_packs_under_one_edge_switch(self):
        engine, topo, net, scheduler = _build_cluster()
        job = ring_allreduce_job(4, 60000.0, job_id=0)
        scheduler.submit_job(job)
        _run_to_completion(engine, scheduler)
        group = job.group
        assert group.edge_switches_used == 1
        assert group.pods_used == 1
        assert group.cross_pod_spills == 0

    def test_step_time_matches_closed_form(self):
        engine, topo, net, scheduler = _build_cluster()
        p, size = 4, 60000.0
        job = ring_allreduce_job(p, size, job_id=0)
        scheduler.submit_job(job)
        _run_to_completion(engine, scheduler)

        # chunk = S/p = 15000 B = 10 full MTU packets.
        T = _chunk_delivery_s(size / p)
        expected = EPS_SERVICE_S + 2 * (p - 1) * (T + EPS_SERVICE_S)
        measured = scheduler.job_latency.samples[0]
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_phase_batch_scales_serialization_only(self):
        # Folding b phases into one transfer of b*S/p trades latency terms:
        # fewer propagation/merge rounds, identical total serialization.
        engine, topo, net, scheduler = _build_cluster()
        p, size, batch = 4, 60000.0, 3
        job = ring_allreduce_job(p, size, phase_batch=batch, job_id=0)
        scheduler.submit_job(job)
        _run_to_completion(engine, scheduler)

        T = _chunk_delivery_s(batch * size / p)
        steps = job.collective.steps
        assert steps == 2  # ceil(6 / 3)
        expected = EPS_SERVICE_S + steps * (T + EPS_SERVICE_S)
        measured = scheduler.job_latency.samples[0]
        assert measured == pytest.approx(expected, rel=1e-9)

    def test_uncongested_audit_is_exact(self):
        engine, topo, net, scheduler = _build_cluster()
        job = ring_allreduce_job(4, 60000.0, job_id=0)
        scheduler.submit_job(job)
        _run_to_completion(engine, scheduler)
        report = audit_collective(scheduler, net, jobs=[job])
        report.raise_if_violated()
        assert scheduler.transfers_launched == job.collective.n_transfers
        assert net.bytes_delivered == pytest.approx(job.collective.wire_bytes)
        assert net.transfers_stranded == 0
