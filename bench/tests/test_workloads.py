"""Drift guard: each bench workload simulates the model its experiment runs.

At reduced size and a seed of its own, every builder must give the same
simulated observables as the experiment entry point it mirrors.  If an
experiment changes its model, these fail until the benchmark follows.
"""

import json

import pytest

from bench.run import ROOT
from bench.workloads import AI_COMPUTE_JITTER, WORKLOADS
from repro.experiments.ai_training import run_ai_training_point
from repro.experiments.delay_timer import run_delay_timer_point
from repro.experiments.joint_energy import run_joint_point
from repro.experiments.scalability import choose_pool, run_scalability
from repro.workload.profiles import web_search_profile

SEED = 5


def _run_small(name: str):
    model = WORKLOADS[name].make(SEED, **WORKLOADS[name].small)
    model.run()
    return model


def test_registry_matches_pinned_seeds_and_spec():
    pinned = json.loads((ROOT / "bench" / "pinned.json").read_text())["workloads"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(pinned) == list(WORKLOADS) == [w["name"] for w in spec["workloads"]]
    assert all(len(entry["digest"]) == 32 for entry in pinned.values())


@pytest.mark.parametrize("name, pooled", [("table1-20k", True), ("table1-4k", False)])
def test_table1_matches_run_scalability(name, pooled):
    params = WORKLOADS[name].params
    # Each Table I workload sits on its own side of the pool auto-selector,
    # at full size and at the reduced size used here.
    assert choose_pool(params["n_servers"], 0.3) is pooled
    small = WORKLOADS[name].small
    model = _run_small(name)
    assert (model.pool is not None) is pooled
    ref = run_scalability(n_servers=small["n_servers"], n_jobs=small["n_jobs"],
                          seed=SEED, audit="strict")
    pool = model.pool
    assert (
        model.jobs_completed, model.engine.now, model.engine.events_executed,
        pool is not None, pool.captures if pool else 0, pool.peak_pooled if pool else 0,
    ) == (
        ref.n_jobs, ref.sim_duration_s, ref.events_executed,
        ref.pool_enabled, ref.pool_captures, ref.pool_peak,
    )


def test_fig5_matches_run_delay_timer_point():
    duration = WORKLOADS["fig5-delay-timer"].small["duration_s"]
    model = _run_small("fig5-delay-timer")
    ref = run_delay_timer_point(0.1, 0.3, web_search_profile(), n_servers=20, n_cores=2,
                                duration_s=duration, seed=SEED, audit="strict")
    latency = model.scheduler.job_latency
    assert model.engine.now == duration
    assert (
        model.total_energy_j(), model.jobs_completed, latency.mean(),
        latency.percentile(90),
        sum(s.residency.transition_count(dst="SysSleep") for s in model.servers),
    ) == (
        ref.energy_j, ref.jobs_completed, ref.mean_latency_s, ref.p90_latency_s,
        ref.sleep_transitions,
    )
    assert model.jobs_completed >= model.jobs_target


def test_fig11_matches_run_joint_point():
    n_jobs = WORKLOADS["fig11-joint"].small["n_jobs"]
    model = _run_small("fig11-joint")
    ref = run_joint_point("network-aware", 0.3, n_jobs=n_jobs, seed=SEED, audit="strict")
    now = model.engine.now
    latency = model.scheduler.job_latency
    assert (
        sum(s.total_energy_j(now) for s in model.servers) / now,
        model.topo.network_energy_j(now) / now,
        model.jobs_completed, latency.mean(), latency.percentile(95), now,
    ) == (
        ref.avg_server_power_w, ref.avg_network_power_w, ref.jobs_completed,
        ref.mean_latency_s, ref.p95_latency_s, ref.duration_s,
    )


@pytest.mark.parametrize("name", ["ai-ring-1024", "ai-alltoall-64"])
def test_ai_matches_run_ai_training_point(name):
    params = {**WORKLOADS[name].params, **WORKLOADS[name].small}
    model = _run_small(name)
    ref = run_ai_training_point(
        params["algorithm"], params["group_size"], n_steps=1, k=params["k"],
        size_bytes=params["size_bytes"], compute_jitter=AI_COMPUTE_JITTER,
        seed=SEED, audit="strict",
    )
    now = model.engine.now
    energy = model.total_energy_j()
    network = model.network
    assert (
        model.scheduler.job_latency.mean(), energy, model.job.collective.n_transfers,
        network.trains_engaged, network.trains_materialized, now,
    ) == (
        ref.step_time_s, ref.energy_per_step_j, ref.n_transfers,
        ref.trains_engaged, ref.trains_materialized, ref.duration_s,
    )


def test_seed_changes_every_workload_input():
    for name, workload in WORKLOADS.items():
        digests = set()
        for seed in (1, 2):
            model = workload.make(seed, **workload.small)
            model.run()
            digests.add(model.digest())
        assert len(digests) == 2, name
