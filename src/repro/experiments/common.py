"""Shared experiment plumbing: farm construction, run loops, self-audits.

Every experiment runs one lifecycle on a :class:`Farm` (the joint and AI
fat-tree clusters are Farms too).  It opens by registering its metrics when
the world is built or started, so an early stop still exports them; it
runs with :func:`drive` (to a time horizon) or :func:`run_until_jobs` (to a
job target); it closes with :func:`audit_farm`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.config import ServerConfig
from repro.core.engine import Engine
from repro.core.heap import settled_build
from repro.core.invariants import AuditReport, audit_run
from repro.core.rng import RandomSource
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.policies import DispatchPolicy
from repro.server.pool import ServerPool
from repro.server.server import Server
from repro.telemetry import session as telemetry
from repro.workload.arrivals import ArrivalProcess
from repro.workload.driver import WorkloadDriver

#: Valid values for the ``audit`` parameter of :func:`drive` / :func:`audit_farm`.
AUDIT_MODES = ("off", "warn", "strict")

#: Simulated-time safety valve of :func:`run_until_jobs`.
JOB_TARGET_VALVE_S = 4 * 3600.0


@dataclass
class Farm:
    """A wired-up simulated server farm ready to run."""

    engine: Engine
    servers: List[Server]
    scheduler: GlobalScheduler
    rng: RandomSource
    #: Optional idle-server fast path (see repro.server.pool); farm-wide
    #: telemetry methods materialize on access, so reads stay exact.
    pool: Optional[ServerPool] = None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        self.engine.run(until=until, max_events=max_events)

    # -- farm-wide telemetry ------------------------------------------------
    def total_energy_j(self, now: Optional[float] = None) -> float:
        return sum(s.total_energy_j(now) for s in self.servers)

    def energy_breakdown_j(self, now: Optional[float] = None) -> Dict[str, float]:
        totals = {"cpu": 0.0, "dram": 0.0, "platform": 0.0}
        for server in self.servers:
            for component, joules in server.energy_breakdown_j(now).items():
                totals[component] += joules
        return totals

    def mean_residency_fractions(self) -> Dict[str, float]:
        """Residency fractions averaged over all servers (Fig. 8's bars)."""
        sums: Dict[str, float] = {}
        for server in self.servers:
            for category, frac in server.residency_fractions().items():
                sums[category] = sums.get(category, 0.0) + frac
        return {cat: value / len(self.servers) for cat, value in sums.items()}


def build_farm(
    n_servers: int,
    server_config: ServerConfig,
    policy: Optional[DispatchPolicy] = None,
    seed: int = 0,
    network=None,
    use_global_queue: bool = False,
    eligible_provider: Optional[Callable[[], List[Server]]] = None,
    engine: Optional[Engine] = None,
    servers: Optional[Sequence[Server]] = None,
    pool: bool = False,
) -> Farm:
    """Construct an engine + servers + global scheduler with one call.

    ``pool=True`` attaches a :class:`~repro.server.pool.ServerPool` so
    settled-idle servers ride pooled state machines instead of per-server
    engine events — bit-identical observables, farm-scale speed.

    The farm is built under :func:`~repro.core.heap.settled_build`: a farm
    that makes up most of the heap is frozen out of cyclic GC passes, and
    the farm an earlier call built is released when this one starts.
    """
    if n_servers <= 0:
        raise ValueError(f"need at least one server, got {n_servers}")
    with settled_build():
        engine = engine or Engine()
        if servers is None:
            servers = [Server(engine, server_config, server_id=i) for i in range(n_servers)]
        scheduler = GlobalScheduler(
            engine,
            servers,
            policy=policy,
            network=network,
            use_global_queue=use_global_queue,
            eligible_provider=eligible_provider,
        )
        server_pool: Optional[ServerPool] = None
        if pool:
            server_pool = ServerPool(engine)
            for server in servers:
                server_pool.adopt(server)
    ts = telemetry.ACTIVE
    if ts is not None:
        ts.attach_engine(engine)
    return Farm(
        engine=engine,
        servers=list(servers),
        scheduler=scheduler,
        rng=RandomSource(seed),
        pool=server_pool,
    )


def register_farm_metrics(
    registry,
    farm: Farm,
    driver: Optional[WorkloadDriver] = None,
    prefix: str = "",
) -> None:
    """Register a farm's scattered ad-hoc stats into one metrics registry.

    Sources are read lazily at snapshot time, so call this whenever — before,
    during, or after the run.  The scheduler's network adds ``network.*``
    and a group-placement policy ``placement.*``; ``prefix`` namespaces the
    metrics when one session runs several farms.
    """
    engine, sched = farm.engine, farm.scheduler
    network = sched.network
    # Scheduled = executed + cancelled + still pending: the cancelled share
    # is the timer churn (delay, core-C6 and package-C6 timers re-armed
    # before they fire).
    for name in ("events_executed", "events_scheduled", "events_cancelled"):
        registry.register_counter(
            f"{prefix}engine.{name}", (lambda n=name: getattr(engine, n))
        )
    registry.register_gauge(f"{prefix}engine.sim_time_s", lambda: engine.now)
    for name in (
        "jobs_submitted", "jobs_completed", "jobs_failed",
        "tasks_lost", "tasks_retried", "tasks_abandoned", "slo_violations",
        "transfers_launched", "transfers_dropped",
    ):
        registry.register_counter(
            f"{prefix}scheduler.{name}", (lambda s=sched, n=name: getattr(s, n))
        )
    registry.register_gauge(
        f"{prefix}scheduler.transfer_bytes_launched",
        lambda: sched.transfer_bytes_launched,
    )
    registry.register_gauge(f"{prefix}scheduler.active_jobs", lambda: sched.active_jobs)
    registry.register_histogram(f"{prefix}scheduler.job_latency", sched.job_latency)
    registry.register_histogram(
        f"{prefix}scheduler.task_queue_delay", sched.task_queue_delay
    )
    registry.register_histogram(
        f"{prefix}scheduler.transfer_delay", sched.transfer_delay
    )
    registry.register_gauge(f"{prefix}farm.total_energy_j", lambda: farm.total_energy_j())
    for component in ("cpu", "dram", "platform"):
        registry.register_gauge(
            f"{prefix}farm.energy_j.{component}",
            (lambda c=component: farm.energy_breakdown_j()[c]),
        )
    policy = sched.policy
    if hasattr(policy, "groups_placed"):
        for name in ("groups_placed", "cross_pod_spills"):
            registry.register_counter(
                f"{prefix}placement.{name}", (lambda n=name: getattr(policy, n))
            )
    if driver is not None:
        registry.register_counter(
            f"{prefix}workload.jobs_injected", lambda: driver.jobs_injected
        )
    if network is not None:
        for name in (
            "flows_completed", "rate_recomputes",
            "flows_rerouted", "flows_stranded", "bits_delivered",
            "packets_delivered", "packets_dropped", "bytes_delivered",
            "transfers_stranded",
            "trains_engaged", "trains_materialized",
            "trains_materialized_enqueue", "trains_materialized_route",
            "packet_hops", "packet_hops_held",
        ):
            if hasattr(network, name):
                registry.register_counter(
                    f"{prefix}network.{name}", (lambda n=network, a=name: getattr(n, a))
                )
        for name in ("flow_completion_time", "packet_delay"):
            collector = getattr(network, name, None)
            if collector is not None:
                registry.register_histogram(f"{prefix}network.{name}", collector)


def register_session_metrics(farm: Farm, driver: Optional[WorkloadDriver] = None) -> None:
    """Register ``farm`` and its network in the active session's metrics as
    the run opens; a second farm in one session registers as ``farm1.*``."""
    ts = telemetry.ACTIVE
    if ts is None or ts.metrics is None:
        return
    register_farm_metrics(
        ts.metrics, farm, driver=driver, prefix=ts.metrics.namespace("farm", first="")
    )


def audit_farm(
    farm: Farm,
    driver: Optional[WorkloadDriver] = None,
    audit: str = "warn",
    availability=(),
    facility=None,
) -> Optional[AuditReport]:
    """Run conservation audits over a farm after its simulation ended.

    ``audit`` selects the reaction to violations: ``"off"`` skips the audit
    entirely, ``"warn"`` prints the report to stderr and carries on, and
    ``"strict"`` raises :class:`~repro.core.invariants.InvariantError` so a
    sweep point fails instead of journaling a corrupt result.
    """
    if audit not in AUDIT_MODES:
        raise ValueError(f"audit mode {audit!r} not in {AUDIT_MODES}")
    if audit == "off":
        return None
    report = audit_run(
        farm.engine,
        servers=farm.servers,
        scheduler=farm.scheduler,
        driver=driver,
        availability=availability,
        facility=facility,
        pool=farm.pool,
    )
    return react_to_audit(report, audit)


def react_to_audit(report: AuditReport, audit: str) -> AuditReport:
    """React to a finished audit: ``"strict"`` raises
    :class:`~repro.core.invariants.InvariantError` on a violation, any
    other mode prints the report to stderr and carries on."""
    if not report.ok:
        if audit == "strict":
            report.raise_if_violated()
        print(f"[repro.invariants] {report.render()}", file=sys.stderr)
    return report


def start_workload(
    farm: Farm,
    arrival_process: ArrivalProcess,
    job_factory,
    duration_s: Optional[float] = None,
    max_jobs: Optional[int] = None,
) -> WorkloadDriver:
    """Attach a workload to ``farm``, register the farm's metrics with its
    driver and network, and queue the first arrival."""
    driver = WorkloadDriver(
        farm.engine,
        farm.scheduler,
        arrival_process,
        job_factory,
        max_jobs=max_jobs,
        until=duration_s,
    )
    register_session_metrics(farm, driver=driver)
    driver.start()
    return driver


def run_until_jobs(farm: Farm, n_jobs: int) -> None:
    """Step ``farm`` until ``n_jobs`` jobs completed, the queue empties or the
    clock passes :data:`JOB_TARGET_VALVE_S` (for periodic controllers that
    never let the queue drain)."""
    engine, scheduler = farm.engine, farm.scheduler
    while scheduler.jobs_completed < n_jobs and engine.now < JOB_TARGET_VALVE_S:
        if not engine.step():
            break


def finish_workload(
    farm: Farm, driver: WorkloadDriver, drain: bool = True, audit: str = "warn"
) -> None:
    """Close a run after its arrival horizon: drain, then audit.

    With ``drain`` the engine keeps stepping until all in-flight jobs
    finish, so energy/latency accounting covers complete jobs only.  Then
    the conservation audit runs (see :func:`audit_farm`) unless
    ``audit="off"``.
    """
    if drain:
        while farm.scheduler.active_jobs > 0:
            if not farm.engine.step():
                break
    audit_farm(farm, driver=driver, audit=audit)


def drive(
    farm: Farm,
    arrival_process: ArrivalProcess,
    job_factory,
    duration_s: Optional[float] = None,
    max_jobs: Optional[int] = None,
    drain: bool = True,
    audit: str = "warn",
) -> WorkloadDriver:
    """Attach a workload, run the simulation, and close the run.

    :func:`start_workload` (metrics), one engine run to the arrival horizon,
    then :func:`finish_workload` (drain, conservation audit).
    """
    driver = start_workload(farm, arrival_process, job_factory, duration_s, max_jobs)
    farm.engine.run(until=duration_s)
    finish_workload(farm, driver, drain=drain, audit=audit)
    return driver
