"""Scalability — the Table I claim that HolDCSim handles >20K servers.

Builds a farm of (by default) 20,480 four-core servers, drives it with
Poisson single-task jobs for a short simulated span, and reports wall-clock
throughput (events/second, jobs/second).  Completing this run at all is the
Table I row; the throughput numbers let users judge what their own studies
will cost.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.checkpoint import (
    DurabilityOptions,
    load_world,
    run_durably,
    scenario_fingerprint,
)
from repro.core.config import ServerConfig, small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import (
    audit_farm,
    build_farm,
    finish_workload,
    start_workload,
)
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.telemetry import session as telemetry
from repro.scheduling.policies import RoundRobinPolicy
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory


#: Expected settled-idle servers at or above which :func:`choose_pool` picks
#: the pooled fast path.  The benchmark (``python -m bench``) times one
#: workload on each side: ``table1-20k`` (20,480 servers, pooled) and
#: ``table1-4k`` (4,096 servers, exact).  A change to the threshold or to
#: either path is judged on both; moving the threshold flips which path those
#: workloads take, so their pinned digests change with it.
POOL_AUTO_IDLE_THRESHOLD = 8192


def choose_pool(n_servers: int, utilization: float) -> bool:
    """Pick the execution path for a farm-scale run.

    The pooled fast path (:mod:`repro.server.pool`) pays a per-dispatch
    materialization tax, so it can only pay off over a large settled-idle
    population; ``n_servers * (1 - utilization)`` estimates that population
    (see :data:`POOL_AUTO_IDLE_THRESHOLD` for the benchmark workloads that
    measure both sides).  Explicit ``--pool`` / ``--no-pool`` overrides
    always win.
    """
    idle_servers = n_servers * max(0.0, 1.0 - utilization)
    return idle_servers >= POOL_AUTO_IDLE_THRESHOLD


def resolve_pool(pool: Union[str, bool], n_servers: int, utilization: float) -> bool:
    """Resolve the tri-state ``pool`` knob (``"auto"`` / ``True`` / ``False``)."""
    if pool == "auto":
        return choose_pool(n_servers, utilization)
    if isinstance(pool, bool):
        return pool
    raise ValueError(f"pool must be 'auto', True or False, got {pool!r}")


@dataclass
class ScalabilityResult:
    n_servers: int
    n_jobs: int
    sim_duration_s: float
    wall_seconds: float
    events_executed: int
    pool_enabled: bool = True
    pool_captures: int = 0
    pool_peak: int = 0
    #: Events and jobs already done in the checkpoint a restored run resumed;
    #: ``wall_seconds`` did not time them, so the rates leave them out.
    restored_events: int = 0
    restored_jobs: int = 0

    @property
    def events_per_second(self) -> float:
        events = self.events_executed - self.restored_events
        return events / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def jobs_per_wall_second(self) -> float:
        jobs = self.n_jobs - self.restored_jobs
        return jobs / self.wall_seconds if self.wall_seconds else 0.0

    def render(self) -> str:
        mode = "pooled" if self.pool_enabled else "exact"
        return (
            f"Table I (scalability) — {self.n_servers:,} servers ({mode}): "
            f"{self.n_jobs:,} jobs over {self.sim_duration_s:.2f} simulated s "
            f"in {self.wall_seconds:.1f} wall s "
            f"({self.events_per_second:,.0f} events/s, "
            f"{self.jobs_per_wall_second:,.0f} jobs/s)"
        )


def run_scalability(
    n_servers: int = 20_480,
    n_jobs: int = 200_000,
    utilization: float = 0.3,
    mean_service_s: float = 0.005,
    seed: int = 13,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
    pool: Union[str, bool] = "auto",
    durability: Optional[DurabilityOptions] = None,
) -> ScalabilityResult:
    """Simulate a >20K-server farm and measure simulator throughput.

    ``pool`` defaults to ``"auto"`` — :func:`choose_pool` picks the path
    from farm size and target utilization.  ``pool=False`` forces the exact
    per-server event path (the CLI's ``--no-pool``) and ``pool=True`` forces
    pooling (``--pool``) for A/B debugging.

    ``durability`` makes the run durable (:mod:`repro.checkpoint`): it
    checkpoints this same world at a simulated-time cadence, and with
    ``restore_from`` it resumes one; either way the result is bit-identical
    to the plain run.
    """
    config = server_config or small_cloud_server(n_cores=4)
    use_pool = resolve_pool(pool, n_servers, utilization)
    fingerprint = scenario_fingerprint("scalability", dict(
        n_servers=n_servers, n_jobs=n_jobs, utilization=utilization,
        mean_service_s=mean_service_s, seed=seed, server_config=config,
        pool=use_pool,
    ))
    if durability is not None and durability.restore_from:
        farm, driver = load_world(durability.restore_from, "scalability", fingerprint)
        ts = telemetry.ACTIVE
        if ts is not None:
            ts.attach_engine(farm.engine)
    else:
        farm = build_farm(
            n_servers, config, policy=RoundRobinPolicy(), seed=seed, pool=use_pool
        )
        rng = RandomSource(seed)
        rate = arrival_rate_for_utilization(
            utilization, mean_service_s, n_servers, config.total_cores
        )
        factory = SingleTaskJobFactory(
            ExponentialService(mean_service_s), rng.stream("service")
        )
        driver = start_workload(
            farm, PoissonProcess(rate, rng.stream("arrivals")), factory,
            max_jobs=n_jobs,
        )
    # Time the simulation only: the post-run conservation audit still runs
    # (below) but is verification, not simulated work, so it stays outside
    # the throughput window — at farm scale it would otherwise skew
    # events/s by several percent.
    restored_events = farm.engine.events_executed
    restored_jobs = farm.scheduler.jobs_completed
    start = time.perf_counter()
    if durability is None:
        farm.engine.run()
    else:
        run_durably(farm.engine, (farm, driver), durability, "scalability", fingerprint)
    finish_workload(farm, driver, drain=True, audit="off")
    wall = time.perf_counter() - start
    audit_farm(farm, driver=driver, audit=audit)
    return ScalabilityResult(
        n_servers=n_servers,
        n_jobs=farm.scheduler.jobs_completed,
        sim_duration_s=farm.engine.now,
        wall_seconds=wall,
        events_executed=farm.engine.events_executed,
        pool_enabled=farm.pool is not None,
        pool_captures=farm.pool.captures if farm.pool is not None else 0,
        pool_peak=farm.pool.peak_pooled if farm.pool is not None else 0,
        restored_events=restored_events,
        restored_jobs=restored_jobs,
    )


@dataclass
class ScalabilitySweep:
    """Simulator throughput across farm sizes (the Table I trajectory)."""

    points: List[ScalabilityResult]

    def render(self) -> str:
        lines = ["Table I sweep — throughput vs farm size"]
        for p in self.points:
            lines.append(p.render())
        return "\n".join(lines)


def run_scalability_sweep(
    server_counts: Sequence[int],
    n_jobs: int = 200_000,
    utilization: float = 0.3,
    mean_service_s: float = 0.005,
    seed: int = 13,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    audit: str = "warn",
    pool: Union[str, bool] = "auto",
) -> ScalabilitySweep:
    """Run the scalability point at several farm sizes.

    Note: parallel workers (``jobs > 1``) compete for cores, which perturbs
    the *wall-clock* measurements; sweep sequentially when the throughput
    numbers matter, in parallel when only checking completion.
    """
    spec = SweepSpec("scalability")
    for n_servers in server_counts:
        spec.add(
            run_scalability,
            n_servers=n_servers,
            n_jobs=n_jobs,
            utilization=utilization,
            mean_service_s=mean_service_s,
            seed=seed,
            audit=audit,
            pool=pool,
        )
    points = run_sweep(spec, jobs=jobs, options=sweep_options)
    return ScalabilitySweep(points=[p for p in points if p is not None])
