"""Runs leave the cyclic collector nothing to find.

A finished job frees itself by reference count (the scheduler breaks the
Job<->Task cycle at completion) and the router's helpers make no
self-referencing closures.  So a run of each benchmark workload family,
built through its experiment's own builders, makes no cyclic garbage: with
the collector off for the run, ``gc.collect()`` finds 0 unreachable objects
afterwards while the world is still referenced.  Failed jobs are the one
exception (their tasks keep ``task.job``); no run here fails one.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

import pytest

from repro.collective import TaskGroup, training_step_job
from repro.core.config import onoff_cloud_server, small_cloud_server
from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.experiments.ai_training import (
    ALGORITHMS,
    build_ai_cluster,
    default_phase_batch,
)
from repro.experiments.common import build_farm, drive, run_until_jobs, start_workload
from repro.experiments.joint_energy import _DagJobFactory, build_joint_cluster
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import PackingPolicy, RoundRobinPolicy
from repro.workload.arrivals import PoissonProcess, arrival_rate_for_utilization
from repro.workload.profiles import (
    ExponentialService,
    SingleTaskJobFactory,
    web_search_profile,
)


@contextmanager
def _collector_off():
    """Collect what came before, then run the body with the collector off;
    its state is restored however the body ends."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("pool", [False, True], ids=["exact", "pooled"])
def test_table1_farm_run(pool):
    # Table I's farm: round-robin single-task jobs, on both server paths.
    n_servers, n_jobs, mean_s = 256, 600, 0.005
    config = small_cloud_server(n_cores=4)
    farm = build_farm(n_servers, config, policy=RoundRobinPolicy(), seed=13, pool=pool)
    rng = RandomSource(13)
    rate = arrival_rate_for_utilization(0.3, mean_s, n_servers, config.total_cores)
    factory = SingleTaskJobFactory(ExponentialService(mean_s), rng.stream("service"))
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    with _collector_off():
        drive(farm, arrivals, factory, max_jobs=n_jobs, audit="strict")
        assert farm.scheduler.jobs_completed == n_jobs
        assert gc.collect() == 0


def test_fig5_delay_timer_run():
    profile = web_search_profile()
    n_servers, n_cores = 20, 2
    farm = build_farm(n_servers, onoff_cloud_server(n_cores=n_cores),
                      policy=PackingPolicy(), seed=13)
    controller = DelayTimerController(farm.engine, 0.1)
    for server in farm.servers:
        server.attach_controller(controller)
    rng = RandomSource(13)
    rate = arrival_rate_for_utilization(0.3, profile.mean_service_s, n_servers, n_cores)
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    factory = profile.job_factory(rng.stream("service"))
    with _collector_off():
        drive(farm, arrivals, factory, duration_s=1.0, drain=False, audit="strict")
        assert farm.scheduler.jobs_completed > 1000
        assert gc.collect() == 0


def test_fig11_joint_network_aware_run():
    # The joint manager asks the router for wake costs each time it picks
    # a parked server to activate.
    n_jobs, n_cores = 150, 10
    cluster = build_joint_cluster(Engine(), "network-aware", k=4, n_cores=n_cores)
    cluster.manager.start()
    rng = RandomSource(13)
    factory = _DagJobFactory(rng.stream("jobs"))
    rate = 0.3 * cluster.topo.n_servers * n_cores / factory.mean_job_work_s
    arrivals = PoissonProcess(rate, rng.stream("arrivals"))
    with _collector_off():
        start_workload(cluster, arrivals, factory, max_jobs=n_jobs)
        run_until_jobs(cluster, n_jobs)
        assert cluster.scheduler.jobs_completed == n_jobs
        assert cluster.manager.activations > 0
        assert gc.collect() == 0


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_ai_training_run(algorithm):
    group_size = 8
    cluster = build_ai_cluster(Engine(), k=4)
    job = training_step_job(
        group_size, 2, compute_s=0.01, size_bytes=40_000.0, algorithm=algorithm,
        phase_batch=default_phase_batch(group_size), job_id=0,
        group=TaskGroup("train-0", group_size),
    )
    with _collector_off():
        cluster.scheduler.submit_job(job)
        run_until_jobs(cluster, 1)
        assert job.finished
        assert gc.collect() == 0
