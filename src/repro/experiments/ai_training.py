"""Synchronized AI-training steps over collective workloads (extension).

A fat-tree cluster runs one worker group through N synchronized training
steps (compute → gradient collective → barrier, :mod:`repro.collective`).
The group is bin-packed onto the fewest edge switches by the network-aware
:class:`~repro.scheduling.placement.GroupPlacementPolicy`, and the gradient
exchange rides the packet-train fast path of
:class:`~repro.network.packet.PacketNetwork`, which batches each link
direction on its own, so ring phases that keep both directions busy stay
on trains.

Reported per (algorithm × group size) cell: step time, network residency
(mean concurrent transfers in flight), and energy per training step — the
co-design surface the paper's holistic thesis is about.  Every point closes
with :func:`~repro.core.invariants.audit_collective`: the chunk accounting
promised by the job's :class:`~repro.collective.templates.CollectiveSpec`
must match what the scheduler launched and the network delivered, byte for
byte.

``run_goal_replay`` drives the same cluster from a GOAL-style application
trace (:mod:`repro.workload.goal`) instead of a synthetic template.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import LinkConfig, ServerConfig, xeon_e5_2680_server
from repro.core.engine import Engine
from repro.core.heap import settled_build
from repro.core.invariants import audit_collective, audit_run
from repro.core.rng import RandomSource
from repro.experiments.common import (
    Farm,
    build_farm,
    react_to_audit,
    register_session_metrics,
    run_until_jobs,
)
from repro.jobs.task import Job
from repro.collective import TaskGroup, training_step_job
from repro.network.packet import PacketNetwork
from repro.network.topology import fat_tree
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.scheduling.placement import GroupPlacementPolicy
from repro.server.server import Server

#: Algorithms accepted by ``run_ai_training_point`` / the CLI sweep.
ALGORITHMS = ("ring", "tree", "all_to_all")

#: Cap on DAG rounds per ring allreduce when ``phase_batch`` is unset; the
#: exact bucket algorithm is used whenever it fits under the cap (p <= 33).
_MAX_RING_ROUNDS = 64


def default_phase_batch(group_size: int) -> int:
    """Exact ring phasing when tractable, else fold phases to bound DAG size."""
    phases = 2 * (group_size - 1)
    return 1 if phases <= _MAX_RING_ROUNDS else math.ceil(phases / _MAX_RING_ROUNDS)


@dataclass
class AiCluster(Farm):
    """One wired-up fat-tree training cluster: a
    :class:`~repro.experiments.common.Farm` plus its network and placement.

    Extracted from :func:`run_ai_training_point` so other drivers (the
    benchmark workloads) build exactly the cluster the experiment evaluates.
    :func:`build_ai_cluster` sets every field.
    """

    topo: object = None
    network: Optional[PacketNetwork] = None
    placement: Optional[GroupPlacementPolicy] = None


def build_ai_cluster(
    engine: Engine,
    k: int = 4,
    n_cores: int = 4,
    link_rate_bps: float = 10e9,
    ranks_per_server: int = 1,
    server_config: Optional[ServerConfig] = None,
) -> AiCluster:
    """Build fat-tree + servers + packet network + group placement, then the
    farm.

    The whole world is built under :func:`~repro.core.heap.settled_build`;
    :func:`~repro.experiments.common.build_farm` adds the scheduler.
    """
    with settled_build():
        topo = fat_tree(engine, k, link_config=LinkConfig(rate_bps=link_rate_bps))
        config = server_config or xeon_e5_2680_server(n_cores=n_cores)
        servers = [Server(engine, config, server_id=i) for i in range(topo.n_servers)]
        network = PacketNetwork(engine, topo)
        placement = GroupPlacementPolicy(topo, ranks_per_server=ranks_per_server)
        farm = build_farm(
            topo.n_servers, config, policy=placement, network=network,
            engine=engine, servers=servers,
        )
        return AiCluster(**vars(farm), topo=topo, network=network, placement=placement)


@dataclass
class AiTrainingResult:
    """One (algorithm, group size) cell of the training sweep."""

    algorithm: str
    group_size: int
    n_steps: int
    phase_batch: int
    n_servers: int
    jobs_completed: int
    step_time_s: float
    network_residency: float   # mean transfers concurrently in flight
    energy_per_step_j: float
    wire_bytes: float
    n_transfers: int
    trains_engaged: int
    trains_materialized: int
    edge_switches_used: int
    pods_used: int
    cross_pod_spills: int
    duration_s: float

    def render(self) -> str:
        return (
            f"{self.algorithm:>10} p={self.group_size:<5d} "
            f"step={self.step_time_s:.4f}s residency={self.network_residency:.2f} "
            f"energy/step={self.energy_per_step_j:.1f}J "
            f"wire={self.wire_bytes / 1e6:.1f}MB transfers={self.n_transfers} "
            f"edges={self.edge_switches_used} spills={self.cross_pod_spills}"
        )


def _audit_point(cluster: AiCluster, jobs: Sequence[Job], audit: str,
                 distinct_servers: bool) -> None:
    """The run audit with the collectives' chunk accounting merged in, so a
    violation is reported once."""
    if audit == "off":
        return
    report = audit_run(
        cluster.engine, servers=cluster.servers, scheduler=cluster.scheduler
    ).merge(audit_collective(
        cluster.scheduler, cluster.network, jobs=jobs,
        distinct_servers=distinct_servers,
    ))
    react_to_audit(report, audit)


def run_ai_training_point(
    algorithm: str = "ring",
    group_size: int = 8,
    n_steps: int = 4,
    k: int = 4,
    compute_s: float = 0.05,
    size_bytes: float = 4e6,
    phase_batch: Optional[int] = None,
    compute_jitter: float = 0.0,
    n_cores: int = 4,
    link_rate_bps: float = 10e9,
    ranks_per_server: int = 1,
    seed: int = 11,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
) -> AiTrainingResult:
    """Run one synchronized-training job through the fat-tree cluster."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"algorithm {algorithm!r} not in {ALGORITHMS}")
    cluster = build_ai_cluster(
        Engine(),
        k=k,
        n_cores=n_cores,
        link_rate_bps=link_rate_bps,
        ranks_per_server=ranks_per_server,
        server_config=server_config,
    )
    register_session_metrics(cluster)
    if phase_batch is None:
        phase_batch = default_phase_batch(group_size)
    rng = RandomSource(seed)
    job = training_step_job(
        group_size,
        n_steps,
        compute_s=compute_s,
        size_bytes=size_bytes,
        algorithm=algorithm,
        phase_batch=phase_batch,
        compute_jitter=compute_jitter,
        rng=rng.stream("compute"),
        job_id=0,
        group=TaskGroup("train-0", group_size),
    )
    scheduler = cluster.scheduler
    scheduler.submit_job(job)
    run_until_jobs(cluster, 1)
    duration = cluster.engine.now
    distinct = ranks_per_server == 1 and group_size <= cluster.topo.n_servers
    _audit_point(cluster, [job], audit, distinct)

    server_energy = cluster.total_energy_j(duration)
    network_energy = cluster.topo.network_energy_j(duration)
    latency = scheduler.job_latency.mean() if scheduler.jobs_completed else duration
    residency = (
        sum(scheduler.transfer_delay.samples) / duration if duration > 0 else 0.0
    )
    group = job.group
    return AiTrainingResult(
        algorithm=algorithm,
        group_size=group_size,
        n_steps=n_steps,
        phase_batch=phase_batch,
        n_servers=cluster.topo.n_servers,
        jobs_completed=scheduler.jobs_completed,
        step_time_s=latency / n_steps,
        network_residency=residency,
        energy_per_step_j=(server_energy + network_energy) / n_steps,
        wire_bytes=job.collective.wire_bytes,
        n_transfers=job.collective.n_transfers,
        trains_engaged=cluster.network.trains_engaged,
        trains_materialized=cluster.network.trains_materialized,
        edge_switches_used=group.edge_switches_used,
        pods_used=group.pods_used,
        cross_pod_spills=group.cross_pod_spills,
        duration_s=duration,
    )


@dataclass
class AiTrainingComparison:
    """The (algorithm × group size) grid with a rendered table."""

    results: Dict[Tuple[str, int], AiTrainingResult]

    def render(self) -> str:
        lines = [
            "AI training — synchronized steps over collective workloads",
            f"{'algorithm':>10} {'ranks':>6} {'step(s)':>10} {'net-res':>8} "
            f"{'energy/step(J)':>15} {'wire(MB)':>10} {'transfers':>10} "
            f"{'edges':>6} {'spills':>7}",
        ]
        for (algorithm, p), r in sorted(self.results.items()):
            lines.append(
                f"{algorithm:>10} {p:>6d} {r.step_time_s:>10.4f} "
                f"{r.network_residency:>8.2f} {r.energy_per_step_j:>15.1f} "
                f"{r.wire_bytes / 1e6:>10.1f} {r.n_transfers:>10d} "
                f"{r.edge_switches_used:>6d} {r.cross_pod_spills:>7d}"
            )
        return "\n".join(lines)


def run_ai_training_sweep(
    group_sizes: Sequence[int] = (4, 8, 16),
    algorithms: Sequence[str] = ("ring", "tree", "all_to_all"),
    k: int = 4,
    n_steps: int = 4,
    seed: int = 11,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    **kwargs,
) -> AiTrainingComparison:
    """The full grid: every algorithm at every group size.

    Grid points are independent seeded runs, so ``jobs > 1`` evaluates them
    on a process pool with bit-identical results.
    """
    spec = SweepSpec("ai-training")
    cells: List[Tuple[str, int]] = []
    for algorithm in algorithms:
        for p in group_sizes:
            cells.append((algorithm, p))
            spec.add(
                run_ai_training_point, algorithm=algorithm, group_size=p,
                n_steps=n_steps, k=k, seed=seed, **kwargs,
            )
    points = run_sweep(spec, jobs=jobs, options=sweep_options)
    results: Dict[Tuple[str, int], AiTrainingResult] = {}
    for cell, result in zip(cells, points):
        if result is not None:
            results[cell] = result
    return AiTrainingComparison(results=results)


@dataclass
class GoalReplayResult:
    """Summary of one GOAL application-trace replay."""

    trace_name: str
    n_ranks: int
    n_ops: int
    jobs_completed: int
    makespan_s: float
    wire_bytes: float
    n_transfers: int
    energy_j: float
    duration_s: float

    def render(self) -> str:
        return (
            f"GOAL replay {self.trace_name!r}: ranks={self.n_ranks} "
            f"ops={self.n_ops} jobs={self.jobs_completed} "
            f"makespan={self.makespan_s:.4f}s wire={self.wire_bytes / 1e6:.1f}MB "
            f"transfers={self.n_transfers} energy={self.energy_j:.1f}J"
        )


def run_goal_replay(
    trace_path: str,
    k: int = 4,
    n_cores: int = 4,
    link_rate_bps: float = 10e9,
    ranks_per_server: int = 1,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
) -> GoalReplayResult:
    """Replay a GOAL-style application trace on the training cluster (the
    trace fixes the whole workload, so the replay takes no seed)."""
    from repro.workload.goal import GoalReplayDriver, GoalTrace

    trace = GoalTrace.from_file(trace_path)
    cluster = build_ai_cluster(
        Engine(),
        k=k,
        n_cores=n_cores,
        link_rate_bps=link_rate_bps,
        ranks_per_server=ranks_per_server,
        server_config=server_config,
    )
    register_session_metrics(cluster)
    scheduler = cluster.scheduler
    driver = GoalReplayDriver(cluster.engine, scheduler, [(0.0, trace)])
    driver.start()
    run_until_jobs(cluster, 1)
    duration = cluster.engine.now
    distinct = ranks_per_server == 1 and trace.n_ranks <= cluster.topo.n_servers
    _audit_point(cluster, driver.jobs, audit, distinct)

    energy = cluster.total_energy_j(duration)
    energy += cluster.topo.network_energy_j(duration)
    job = driver.jobs[0]
    makespan = (
        scheduler.job_latency.mean() if scheduler.jobs_completed else duration
    )
    return GoalReplayResult(
        trace_name=trace.name,
        n_ranks=trace.n_ranks,
        n_ops=len(trace.ops),
        jobs_completed=scheduler.jobs_completed,
        makespan_s=makespan,
        wire_bytes=job.collective.wire_bytes,
        n_transfers=job.collective.n_transfers,
        energy_j=energy,
        duration_s=duration,
    )
