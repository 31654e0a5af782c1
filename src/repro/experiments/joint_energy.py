"""Server-network cooperative energy optimization — Figs. 10/11 (§IV-D).

A fat-tree data center (Fig. 10; k=4 by default, full bisection bandwidth)
serves DAG jobs whose inter-task edges carry 100 MB flows.  Two strategies:

* **Server-Balanced** — strict load balancing across all servers; all
  servers and switches stay powered;
* **Server-Network-Aware** — consolidation with delay-timer server sleep and
  switch sleeping; additional servers are activated by least network wake
  cost.

Reported per utilization level (Fig. 11a): average server power and average
network (switch) power for both strategies; plus the job response-time CDF
(Fig. 11b).  The paper observes ~20% server and ~18% network power savings
with negligible latency increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.config import LinkConfig, ServerConfig, xeon_e5_2680_server
from repro.core.engine import Engine
from repro.core.heap import settled_build
from repro.core.rng import RandomSource
from repro.core.stats import CdfResult
from repro.experiments.common import (
    Farm,
    audit_farm,
    build_farm,
    run_until_jobs,
    start_workload,
)
from repro.jobs.task import Job
from repro.jobs.templates import pipeline_job
from repro.network.flow import FlowNetwork
from repro.network.routing import Router
from repro.network.topology import fat_tree
from repro.power.joint import JointEnergyManager
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.server.server import Server
from repro.workload.arrivals import PoissonProcess


@dataclass
class JointRunResult:
    """One (mode, utilization) cell of Fig. 11."""

    mode: str
    utilization: float
    n_servers: int
    avg_server_power_w: float
    avg_network_power_w: float
    jobs_completed: int
    mean_latency_s: float
    p95_latency_s: float
    latency_cdf: CdfResult
    duration_s: float


class _DagJobFactory:
    """Jobs with randomly assigned execution times and 100 MB inter-task flows."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_stages: int = 2,
        service_low_s: float = 0.4,
        service_high_s: float = 1.2,
        transfer_bytes: float = 100e6,
    ):
        # Service times are sized so the 100 MB inter-task flows keep the
        # fat-tree below saturation at the studied utilizations; with short
        # tasks the offered network load would exceed bisection bandwidth and
        # flows would queue without bound.
        self.rng = rng
        self.n_stages = n_stages
        self.service_low_s = service_low_s
        self.service_high_s = service_high_s
        self.transfer_bytes = transfer_bytes

    @property
    def mean_job_work_s(self) -> float:
        return self.n_stages * (self.service_low_s + self.service_high_s) / 2.0

    def __call__(self, arrival_time: float) -> Job:
        services = [
            float(self.rng.uniform(self.service_low_s, self.service_high_s))
            for _ in range(self.n_stages)
        ]
        return pipeline_job(
            services,
            transfer_bytes=self.transfer_bytes,
            arrival_time=arrival_time,
            job_type="dag-pipeline",
        )


@dataclass
class JointCluster(Farm):
    """One wired-up fat-tree cluster under a joint energy manager: a
    :class:`~repro.experiments.common.Farm` plus its network.

    Extracted from :func:`run_joint_point` so other drivers (the benchmark
    workloads) build exactly the cluster the experiment evaluates.
    :func:`build_joint_cluster` sets every field.
    """

    topo: object = None
    router: Optional[Router] = None
    network: Optional[FlowNetwork] = None
    manager: Optional[JointEnergyManager] = None


def build_joint_cluster(
    engine: Engine,
    mode: str,
    k: int = 4,
    n_cores: int = 10,
    link_rate_bps: float = 10e9,
    tau_s: float = 1.0,
    switch_idle_threshold_s: float = 2.0,
    server_config: Optional[ServerConfig] = None,
) -> JointCluster:
    """Build topology + servers + manager on ``engine``, then the farm.

    The whole world is built under :func:`~repro.core.heap.settled_build`;
    :func:`~repro.experiments.common.build_farm` adds the scheduler.
    """
    with settled_build():
        topo = fat_tree(engine, k, link_config=LinkConfig(rate_bps=link_rate_bps))
        config = server_config or xeon_e5_2680_server(n_cores=n_cores)
        servers = [Server(engine, config, server_id=i) for i in range(topo.n_servers)]
        router = Router(topo)
        network = FlowNetwork(engine, topo, router)
        manager = JointEnergyManager(
            engine,
            servers,
            topo,
            router=router,
            mode=mode,
            tau_s=tau_s,
            switch_idle_threshold_s=switch_idle_threshold_s,
        )
        farm = build_farm(
            topo.n_servers,
            config,
            policy=manager.make_policy(),
            network=network,
            eligible_provider=manager.eligible_servers,
            engine=engine,
            servers=servers,
        )
        return JointCluster(
            **vars(farm), topo=topo, router=router, network=network, manager=manager
        )


def run_joint_point(
    mode: str,
    utilization: float,
    k: int = 4,
    n_jobs: int = 2000,
    n_cores: int = 10,
    link_rate_bps: float = 10e9,
    transfer_bytes: float = 100e6,
    tau_s: float = 1.0,
    switch_idle_threshold_s: float = 2.0,
    seed: int = 11,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
) -> JointRunResult:
    """Run one strategy at one utilization on the fat-tree data center."""
    cluster = build_joint_cluster(
        Engine(),
        mode,
        k=k,
        n_cores=n_cores,
        link_rate_bps=link_rate_bps,
        tau_s=tau_s,
        switch_idle_threshold_s=switch_idle_threshold_s,
        server_config=server_config,
    )
    topo, scheduler = cluster.topo, cluster.scheduler
    n_servers = topo.n_servers
    cluster.manager.start()

    rng = RandomSource(seed)
    factory = _DagJobFactory(rng.stream("jobs"), transfer_bytes=transfer_bytes)
    rate = utilization * n_servers * n_cores / factory.mean_job_work_s
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    driver = start_workload(cluster, arrivals, factory, max_jobs=n_jobs)
    # The periodic controller scans keep the event queue non-empty forever,
    # so run to the job target instead of draining the queue.
    run_until_jobs(cluster, n_jobs)
    duration = cluster.engine.now
    audit_farm(cluster, driver=driver, audit=audit)

    server_energy = cluster.total_energy_j(duration)
    network_energy = topo.network_energy_j(duration)
    latency = scheduler.job_latency
    return JointRunResult(
        mode=mode,
        utilization=utilization,
        n_servers=n_servers,
        avg_server_power_w=server_energy / duration,
        avg_network_power_w=network_energy / duration,
        jobs_completed=scheduler.jobs_completed,
        mean_latency_s=latency.mean(),
        p95_latency_s=latency.percentile(95),
        latency_cdf=latency.cdf(),
        duration_s=duration,
    )


@dataclass
class JointComparison:
    """Fig. 11: both strategies at each utilization level."""

    results: Dict[str, Dict[float, JointRunResult]]  # mode -> rho -> result

    def saving(self, utilization: float, what: str) -> float:
        """Fractional power saving of network-aware vs balanced."""
        balanced = self.results["balanced"][utilization]
        aware = self.results["network-aware"][utilization]
        if what == "server":
            return 1.0 - aware.avg_server_power_w / balanced.avg_server_power_w
        if what == "network":
            return 1.0 - aware.avg_network_power_w / balanced.avg_network_power_w
        raise ValueError(f"what must be 'server' or 'network', got {what!r}")

    def render(self) -> str:
        lines = ["Fig. 11a — average power (W) per strategy and utilization"]
        lines.append(
            f"{'rho':>5} {'strategy':>16} {'server(W)':>12} {'network(W)':>12} "
            f"{'mean lat(s)':>12} {'p95 lat(s)':>12}"
        )
        for mode, by_rho in self.results.items():
            for rho, r in sorted(by_rho.items()):
                lines.append(
                    f"{rho:>5.2f} {mode:>16} {r.avg_server_power_w:>12.1f} "
                    f"{r.avg_network_power_w:>12.1f} {r.mean_latency_s:>12.3f} "
                    f"{r.p95_latency_s:>12.3f}"
                )
        for rho in sorted(self.results["balanced"]):
            lines.append(
                f"rho={rho:.2f}: server saving={100 * self.saving(rho, 'server'):.1f}% "
                f"network saving={100 * self.saving(rho, 'network'):.1f}%"
            )
        lines.append("")
        lines.append("Fig. 11b — job response time CDF (seconds)")
        probs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
        header = f"{'strategy/rho':>22}" + "".join(f"{p:>9.2f}" for p in probs)
        lines.append(header)
        for mode, by_rho in self.results.items():
            for rho, r in sorted(by_rho.items()):
                row = f"{mode + '@' + format(rho, '.2f'):>22}"
                for p in probs:
                    row += f"{r.latency_cdf.quantile(p):>9.3f}"
                lines.append(row)
        return "\n".join(lines)


def run_joint_comparison(
    utilizations=(0.3, 0.6),
    k: int = 4,
    n_jobs: int = 2000,
    seed: int = 11,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    **kwargs,
) -> JointComparison:
    """The full Fig. 11 experiment: both strategies at every utilization.

    The (mode x utilization) grid points are independent seeded runs, so
    ``jobs > 1`` evaluates them on a process pool.
    """
    results: Dict[str, Dict[float, JointRunResult]] = {
        "balanced": {},
        "network-aware": {},
    }
    spec = SweepSpec("joint-energy")
    cells = []
    for mode in results:
        for rho in utilizations:
            cells.append((mode, rho))
            spec.add(
                run_joint_point, mode=mode, utilization=rho, k=k,
                n_jobs=n_jobs, seed=seed, **kwargs,
            )
    points = run_sweep(spec, jobs=jobs, options=sweep_options)
    for (mode, rho), result in zip(cells, points):
        if result is not None:
            results[mode][rho] = result
    return JointComparison(results=results)
