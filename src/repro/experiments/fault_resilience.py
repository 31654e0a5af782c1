"""Fault-injection resilience study (extension beyond the paper).

Sweeps the server MTBF under a fixed workload and reports how availability,
job outcomes, and tail latency degrade as failures become more frequent.
Each sweep point runs the same seeded workload against a farm whose servers
fail and repair according to a :class:`~repro.core.config.FaultConfig`
process; the global scheduler re-dispatches lost tasks with exponential
backoff, so the sweep shows both the masking power of retries (jobs still
complete) and its cost (inflated p99 latency, SLO violations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.core.config import FaultConfig, ServerConfig, small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import audit_farm, build_farm, drive
from repro.faults.injector import FaultInjector
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import WorkloadProfile, web_search_profile


@dataclass
class FaultResiliencePoint:
    """One sweep point: outcomes at a single server MTBF."""

    mtbf_s: float
    availability: float
    failures_injected: int
    jobs_completed: int
    jobs_failed: int
    tasks_retried: int
    tasks_abandoned: int
    slo_violations: int
    mean_latency_s: float
    p99_latency_s: float


def run_fault_resilience_point(
    fault_config: FaultConfig,
    n_servers: int = 20,
    n_cores: int = 2,
    utilization: float = 0.3,
    duration_s: float = 60.0,
    seed: int = 1,
    profile: Optional[WorkloadProfile] = None,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
) -> FaultResiliencePoint:
    """Run one seeded workload under the given fault process."""
    profile = profile or web_search_profile()
    config = server_config or small_cloud_server(n_cores=n_cores)
    farm = build_farm(n_servers, config, seed=seed)
    scheduler = farm.scheduler
    scheduler.retry_limit = fault_config.retry_limit
    scheduler.retry_backoff_s = fault_config.retry_backoff_s
    scheduler.retry_backoff_factor = fault_config.retry_backoff_factor
    scheduler.slo_latency_s = fault_config.slo_latency_s

    injector = FaultInjector(
        farm.engine, fault_config, farm.rng, servers=farm.servers, scheduler=scheduler
    )
    injector.start()

    rng = RandomSource(seed)
    rate = arrival_rate_for_utilization(
        utilization, profile.mean_service_s, n_servers, n_cores
    )
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    factory = profile.job_factory(rng.stream("service"))
    # Audit after injector.stop() so availability trackers are included.
    driver = drive(farm, arrivals, factory, duration_s=duration_s, drain=True,
                   audit="off")
    injector.stop()
    audit_farm(farm, driver=driver, audit=audit,
               availability=injector.trackers.values())

    now = farm.engine.now
    summary = injector.summary(now)
    has_jobs = len(scheduler.job_latency) > 0
    return FaultResiliencePoint(
        mtbf_s=fault_config.server_mtbf_s,
        availability=summary["fleet_availability"],
        failures_injected=summary["failures_injected"],
        jobs_completed=scheduler.jobs_completed,
        jobs_failed=scheduler.jobs_failed,
        tasks_retried=scheduler.tasks_retried,
        tasks_abandoned=scheduler.tasks_abandoned,
        slo_violations=scheduler.slo_violations,
        mean_latency_s=scheduler.job_latency.mean() if has_jobs else float("nan"),
        p99_latency_s=scheduler.job_latency.percentile(99) if has_jobs else float("nan"),
    )


@dataclass
class FaultResilienceSweep:
    """Availability and tail latency across a range of server MTBFs."""

    mtbf_values: List[float]
    points: List[FaultResiliencePoint]

    def render(self) -> str:
        lines = [
            "Fault resilience — server MTBF sweep "
            "(availability, job outcomes, tail latency)",
            f"{'MTBF(s)':>9} {'avail':>10} {'fails':>6} {'done':>7} {'failed':>7} "
            f"{'retried':>8} {'dropped':>8} {'SLOviol':>8} {'mean(s)':>9} {'p99(s)':>9}",
        ]
        for p in self.points:
            lines.append(
                f"{p.mtbf_s:>9.1f} {p.availability:>10.6f} {p.failures_injected:>6d} "
                f"{p.jobs_completed:>7d} {p.jobs_failed:>7d} {p.tasks_retried:>8d} "
                f"{p.tasks_abandoned:>8d} {p.slo_violations:>8d} "
                f"{p.mean_latency_s:>9.4f} {p.p99_latency_s:>9.4f}"
            )
        return "\n".join(lines)


def run_fault_resilience_sweep(
    mtbf_values: Sequence[float] = (120.0, 60.0, 30.0, 15.0),
    mttr_s: float = 5.0,
    n_servers: int = 20,
    n_cores: int = 2,
    utilization: float = 0.3,
    duration_s: float = 60.0,
    retry_limit: int = 3,
    slo_latency_s: Optional[float] = None,
    seed: int = 1,
    profile: Optional[WorkloadProfile] = None,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    audit: str = "warn",
) -> FaultResilienceSweep:
    """Sweep server failure frequency and collect resilience outcomes.

    Each MTBF point is an independent seeded run, so ``jobs > 1`` evaluates
    them on a process pool with bit-identical results.
    """
    base = FaultConfig(
        enabled=True,
        server_mtbf_s=mtbf_values[0],
        server_mttr_s=mttr_s,
        retry_limit=retry_limit,
        slo_latency_s=slo_latency_s,
    )
    spec = SweepSpec("fault-resilience")
    for mtbf in mtbf_values:
        spec.add(
            run_fault_resilience_point,
            fault_config=replace(base, server_mtbf_s=mtbf),
            n_servers=n_servers,
            n_cores=n_cores,
            utilization=utilization,
            duration_s=duration_s,
            seed=seed,
            profile=profile,
            audit=audit,
        )
    points = run_sweep(spec, jobs=jobs, options=sweep_options)
    return FaultResilienceSweep(
        mtbf_values=list(mtbf_values),
        points=[p for p in points if p is not None],
    )
