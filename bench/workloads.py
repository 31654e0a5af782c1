"""The six fixed, seeded paper workloads the benchmark times.

Each workload is assembled from the same public builders its experiment
uses (``build_farm``, ``drive``, ``build_joint_cluster``,
``build_ai_cluster``, ``training_step_job`` ...) and split at the points the
benchmark times: :func:`Workload.make` is set-up (model built, workload
attached, no event run yet), :meth:`Model.run` runs to the experiment's own
stop condition, and :meth:`Model.audit` is the strict conservation audit.
``bench/tests/test_workloads.py`` checks that each builder still simulates
the same model as the experiment entry point it mirrors.

This module imports the simulator; only benchmark child processes and tests
import it, never the orchestrating parent.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.collective import TaskGroup, training_step_job
from repro.core.config import onoff_cloud_server, small_cloud_server
from repro.core.engine import Engine
from repro.core.invariants import AuditReport, audit_collective, audit_run
from repro.core.rng import RandomSource
from repro.experiments.ai_training import build_ai_cluster, default_phase_batch
from repro.experiments.common import Farm, build_farm, drive
from repro.experiments.joint_energy import _DagJobFactory, build_joint_cluster
from repro.experiments.scalability import choose_pool
from repro.jobs.task import Job
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import PackingPolicy, RoundRobinPolicy
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.driver import WorkloadDriver
from repro.workload.profiles import (
    ExponentialService,
    SingleTaskJobFactory,
    web_search_profile,
)

#: Simulated-time safety valve of the step-loop experiments (joint, AI).
STEP_DEADLINE_S = 4 * 3600.0


class Model:
    """One built workload: the engine, its parts, and how it ends.

    The timer calls :meth:`run` then :meth:`audit`; the tracer and the
    digest read the plain attributes.  ``network``, ``topo``, ``pool`` and
    ``factory`` are None where the workload has no such part.
    """

    def __init__(
        self,
        engine: Engine,
        servers: Sequence,
        scheduler,
        jobs_target: int,
        network=None,
        topo=None,
        pool=None,
        factory=None,
    ):
        self.engine = engine
        self.servers = list(servers)
        self.scheduler = scheduler
        self.jobs_target = jobs_target
        self.network = network
        self.topo = topo
        self.pool = pool
        self.factory = factory
        self.driver = None

    def run(self) -> None:
        raise NotImplementedError

    def audit(self) -> AuditReport:
        raise NotImplementedError

    @property
    def jobs_completed(self) -> int:
        return self.scheduler.jobs_completed

    def total_energy_j(self) -> float:
        """Server plus switch energy up to the current simulated time."""
        now = self.engine.now
        energy = sum(s.total_energy_j(now) for s in self.servers)
        if self.topo is not None:
            energy += self.topo.network_energy_j(now)
        return energy

    def digest(self) -> str:
        """blake2b of the run's headline simulated statistics.

        Any change to the simulated model moves at least one of these; a
        change that only speeds the simulator up must leave it unchanged.
        """
        latency = self.scheduler.job_latency
        fields = (
            self.engine.now,
            self.scheduler.jobs_completed,
            self.engine.events_executed,
            self.total_energy_j(),
            latency.percentile(50),
            latency.percentile(99),
        )
        return hashlib.blake2b(repr(fields).encode(), digest_size=16).hexdigest()


class FarmModel(Model):
    """A server farm driven by ``drive()`` (Table I, Fig. 5)."""

    def __init__(self, farm: Farm, arrivals, factory, jobs_target: int,
                 max_jobs: Optional[int] = None, duration_s: Optional[float] = None,
                 drain: bool = True):
        super().__init__(farm.engine, farm.servers, farm.scheduler, jobs_target,
                         pool=farm.pool, factory=factory)
        self.farm = farm
        self.arrivals = arrivals
        self.max_jobs = max_jobs
        self.duration_s = duration_s
        self.drain = drain

    def run(self) -> None:
        self.driver = drive(
            self.farm, self.arrivals, self.factory, duration_s=self.duration_s,
            max_jobs=self.max_jobs, drain=self.drain, audit="off",
        )

    def audit(self) -> AuditReport:
        return audit_run(self.engine, servers=self.servers, scheduler=self.scheduler,
                         driver=self.driver, pool=self.pool)


def _step_until(engine: Engine, scheduler, n_jobs: int) -> None:
    """The joint/AI experiments' loop: periodic controllers never drain the
    queue, so step until the job target (or the simulated-time valve)."""
    while scheduler.jobs_completed < n_jobs and engine.now < STEP_DEADLINE_S:
        if not engine.step():
            break


class JointModel(Model):
    """The Fig. 11 fat-tree cluster under the joint energy manager."""

    def run(self) -> None:
        _step_until(self.engine, self.scheduler, self.jobs_target)

    def audit(self) -> AuditReport:
        return audit_run(self.engine, servers=self.servers, scheduler=self.scheduler,
                         driver=self.driver, now=self.engine.now)


class AiModel(Model):
    """One synchronized-training job on the collective cluster."""

    def __init__(self, cluster, job: Job, distinct_servers: bool):
        super().__init__(cluster.engine, cluster.servers, cluster.scheduler, 1,
                         network=cluster.network, topo=cluster.topo)
        self.job = job
        self.distinct_servers = distinct_servers

    def run(self) -> None:
        self.scheduler.submit_job(self.job)
        _step_until(self.engine, self.scheduler, 1)

    def audit(self) -> AuditReport:
        report = audit_run(self.engine, servers=self.servers, scheduler=self.scheduler)
        return report.merge(audit_collective(
            self.scheduler, self.network, jobs=[self.job],
            distinct_servers=self.distinct_servers,
        ))


# ----------------------------------------------------------------------
# Builders — one per experiment entry point
# ----------------------------------------------------------------------
def build_table1(seed: int, n_servers: int, n_jobs: int,
                 utilization: float = 0.3, mean_service_s: float = 0.005) -> FarmModel:
    """Mirrors ``run_scalability``: RoundRobin farm, pool chosen by ``choose_pool``."""
    config = small_cloud_server(n_cores=4)
    farm = build_farm(n_servers, config, policy=RoundRobinPolicy(), seed=seed,
                      pool=choose_pool(n_servers, utilization))
    rng = RandomSource(seed)
    rate = arrival_rate_for_utilization(
        utilization, mean_service_s, n_servers, config.total_cores
    )
    factory = SingleTaskJobFactory(ExponentialService(mean_service_s), rng.stream("service"))
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    return FarmModel(farm, arrivals, factory, jobs_target=n_jobs, max_jobs=n_jobs)


def build_delay_timer(seed: int, duration_s: float, n_servers: int = 20,
                      n_cores: int = 2, tau_s: float = 0.1,
                      utilization: float = 0.3) -> FarmModel:
    """Mirrors ``run_delay_timer_point`` with the web-search profile.

    The run is bounded by simulated time, so the job target is 95% of the
    expected Poisson arrivals: a model that stops admitting or finishing
    work falls short of it, normal arrival noise (~0.3%) does not.
    """
    profile = web_search_profile()
    config = onoff_cloud_server(n_cores=n_cores)
    farm = build_farm(n_servers, config, policy=PackingPolicy(), seed=seed)
    controller = DelayTimerController(farm.engine, tau_s)
    for server in farm.servers:
        server.attach_controller(controller)
    rng = RandomSource(seed)
    rate = arrival_rate_for_utilization(
        utilization, profile.mean_service_s, n_servers, n_cores
    )
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    factory = profile.job_factory(rng.stream("service"))
    return FarmModel(farm, arrivals, factory, jobs_target=int(0.95 * rate * duration_s),
                     duration_s=duration_s, drain=False)


def build_joint(seed: int, n_jobs: int, k: int = 4, n_cores: int = 10,
                utilization: float = 0.3, mode: str = "network-aware") -> JointModel:
    """Mirrors ``run_joint_point(mode, utilization)`` with 100 MB DAG flows."""
    engine = Engine()
    cluster = build_joint_cluster(engine, mode, k=k, n_cores=n_cores)
    cluster.manager.start()
    rng = RandomSource(seed)
    factory = _DagJobFactory(rng.stream("jobs"))
    rate = utilization * cluster.topo.n_servers * n_cores / factory.mean_job_work_s
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    model = JointModel(engine, cluster.servers, cluster.scheduler, n_jobs,
                       network=cluster.network, topo=cluster.topo, factory=factory)
    model.driver = WorkloadDriver(engine, cluster.scheduler, arrivals, factory,
                                  max_jobs=n_jobs)
    model.driver.start()
    return model


def build_ai(seed: int, algorithm: str, group_size: int, k: int,
             size_bytes: float, n_steps: int = 1, compute_s: float = 0.05,
             compute_jitter: float = 0.0) -> AiModel:
    """Mirrors ``run_ai_training_point`` (one job, placed at run start)."""
    engine = Engine()
    cluster = build_ai_cluster(engine, k=k)
    rng = RandomSource(seed)
    job = training_step_job(
        group_size, n_steps, compute_s=compute_s, size_bytes=size_bytes,
        algorithm=algorithm, phase_batch=default_phase_batch(group_size),
        compute_jitter=compute_jitter, rng=rng.stream("compute"), job_id=0,
        group=TaskGroup("train-0", group_size),
    )
    return AiModel(cluster, job, distinct_servers=group_size <= cluster.topo.n_servers)


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A named, fixed workload: its builder and parameters.

    Default seeds and pinned digests live in ``bench/pinned.json`` and the
    reasons for each workload in ``BENCHMARK.json``, both readable without
    importing the simulator.
    """

    name: str
    build: Callable[..., Model]
    params: Mapping[str, object]
    #: Smaller parameters for tests (same code paths, seconds not minutes).
    small: Mapping[str, object] = field(default_factory=dict)

    def make(self, seed: int, **overrides) -> Model:
        params = dict(self.params)
        params.update(overrides)
        return self.build(seed, **params)


#: Straggler jitter on AI compute tasks: without it the seed would not
#: change the AI workloads' inputs at all.
AI_COMPUTE_JITTER = 0.1

#: Job counts and spans are sized so one repetition takes a few seconds and
#: a 10-second timed run holds several; only the 1,024-rank ring cannot
#: shrink without ceasing to be itself.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("table1-20k", build_table1, {"n_servers": 20_480, "n_jobs": 10_000},
             small={"n_servers": 12_288, "n_jobs": 600}),
    Workload("table1-4k", build_table1, {"n_servers": 4_096, "n_jobs": 10_000},
             small={"n_servers": 256, "n_jobs": 600}),
    Workload("fig5-delay-timer", build_delay_timer, {"duration_s": 20.0},
             small={"duration_s": 1.0}),
    Workload("fig11-joint", build_joint, {"n_jobs": 5_000},
             small={"n_jobs": 150}),
    Workload("ai-ring-1024", build_ai,
             {"algorithm": "ring", "group_size": 1024, "k": 16, "size_bytes": 1e6,
              "compute_jitter": AI_COMPUTE_JITTER},
             small={"group_size": 64, "k": 8}),
    Workload("ai-alltoall-64", build_ai,
             {"algorithm": "all_to_all", "group_size": 64, "k": 8, "size_bytes": 1e6,
              "compute_jitter": AI_COMPUTE_JITTER},
             small={"group_size": 16, "k": 4}),
)}


def resolve(ref: str) -> Workload:
    """A workload by registry name, or by ``module:attribute`` (test fakes)."""
    if ":" in ref:
        module, attr = ref.split(":", 1)
        return getattr(importlib.import_module(module), attr)
    try:
        return WORKLOADS[ref]
    except KeyError:
        raise ValueError(
            f"unknown workload {ref!r}; choose from {', '.join(WORKLOADS)}"
        ) from None

