"""Pinned observables of the dispatch paths the benchmark never takes.

The benchmark's farm workloads dispatch through ``PackingPolicy()`` or
round robin over the whole farm, with unified local queues; only
``fig11-joint`` has an eligible-server provider.  So its pinned digests
never exercise a ``PackingPolicy`` priority ``order``, the adaptive or
provisioning manager as a provider, the packing fallback under a pool
manager (no server can start the task now), or packing onto per-core
queues.  Each scenario below runs one small seeded farm through one of
those paths, or the joint manager's at a smaller scale, and compares its
observables with values recorded from an earlier build, exactly: every
float by ``repr``.  A change meant only to make dispatch faster must
leave every one of them unchanged.

The pinned fields are the executed, scheduled and cancelled event counts,
jobs completed and tasks lost (compared verbatim), plus a blake2b digest
over every job latency sample and each server's energy breakdown, residency
fractions and residency transitions.  To see what moved, print
``observables(scenario)``.

The module also checks, as a property over random arrivals with sleep and
wake, that a task a server starts at once runs exactly as one that is first
queued and then dispatched.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    ServerConfig,
    onoff_cloud_server,
    small_cloud_server,
    xeon_e5_2680_server,
)
from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.experiments.adaptive import _build_adaptive_farm
from repro.experiments.common import Farm, build_farm, drive, run_until_jobs, start_workload
from repro.experiments.joint_energy import _DagJobFactory, build_joint_cluster
from repro.jobs.task import Job, TaskState
from repro.power.controller import DelayTimerController
from repro.power.dual_delay import DualDelayTimerPolicy
from repro.power.provisioning import ProvisioningManager
from repro.scheduling.policies import LeastLoadedPolicy, PackingPolicy
from repro.server.server import Server
from repro.server.states import SystemState
from repro.workload.arrivals import PoissonProcess, TraceProcess
from repro.workload.profiles import (
    ExponentialService,
    SingleTaskJobFactory,
    UniformService,
    web_search_profile,
)
from repro.workload.trace import synthesize_wikipedia_trace


def _fast_sleep(config: ServerConfig, entry_s: float, exit_s: float) -> ServerConfig:
    """``config`` with short S3 latencies, so servers sleep and wake often
    within a few simulated seconds."""
    return dataclasses.replace(config, platform=dataclasses.replace(
        config.platform, s3_entry_latency_s=entry_s, s3_exit_latency_s=exit_s
    ))


def adaptive_pools() -> Farm:
    """Fig. 8's wiring (an ``order`` plus an eligible provider) at a load
    the active pool often cannot absorb: the packing fallback runs, and the
    manager promotes and demotes servers mid-run."""
    return _build_adaptive_farm(
        0.3, web_search_profile(), n_servers=5, n_cores=2, duration_s=6.0,
        day_length_s=3.0, seed=3, t_wakeup=1.5, t_sleep=0.5,
        server_config=_fast_sleep(xeon_e5_2680_server(n_cores=2), 0.05, 0.2),
        audit="strict",
    )


def dual_delay_timer() -> Farm:
    """Fig. 6's dual delay timer: packing over the high-tau pool first."""
    farm = build_farm(6, _fast_sleep(onoff_cloud_server(n_cores=2), 0.01, 0.05), seed=1)
    policy = DualDelayTimerPolicy(
        farm.engine, farm.servers, high_pool_size=3, tau_high_s=0.5, tau_low_s=0.05
    )
    farm.scheduler.policy = PackingPolicy(order=policy.dispatch_order)
    factory = web_search_profile().job_factory(farm.rng.stream("service"))
    arrivals = PoissonProcess(800.0, farm.rng.stream("arrivals"))
    drive(farm, arrivals, factory, duration_s=3.0, drain=False, audit="strict")
    return farm


def provisioning() -> Farm:
    """Fig. 4's provisioning manager as the eligible provider."""
    farm = build_farm(6, small_cloud_server(n_cores=2), policy=LeastLoadedPolicy(), seed=7)
    manager = ProvisioningManager(
        farm.engine, farm.servers, min_load_per_server=0.25,
        max_load_per_server=1.5, check_interval_s=0.2,
    )
    farm.scheduler.eligible_provider = manager.eligible_servers
    manager.start()
    rng = RandomSource(7)
    trace = synthesize_wikipedia_trace(
        rng.stream("trace"), duration_s=4.0, mean_rate=600.0, day_length_s=2.0
    )
    factory = SingleTaskJobFactory(
        UniformService(0.003, 0.010), rng.stream("service"), job_type="wiki-task"
    )
    drive(farm, TraceProcess(trace.timestamps), factory, duration_s=4.0,
          drain=False, audit="strict")
    return farm


def joint_consolidation() -> Farm:
    """Fig. 11's network-aware manager: its own policy over its active set."""
    cluster = build_joint_cluster(Engine(), "network-aware", k=4, n_cores=2)
    cluster.manager.start()
    rng = RandomSource(11)
    factory = _DagJobFactory(rng.stream("jobs"), transfer_bytes=1e6)
    rate = 0.4 * cluster.topo.n_servers * 2 / factory.mean_job_work_s
    start_workload(cluster, PoissonProcess(rate, rng.stream("arrivals")), factory,
                   max_jobs=300)
    run_until_jobs(cluster, 300)
    return cluster


def per_core_packing() -> Farm:
    """First-fit packing onto per-core local queues under a delay timer."""
    base = small_cloud_server(n_cores=4)
    config = ServerConfig.from_dict({**base.to_dict(), "queue_policy": "per_core"})
    farm = build_farm(4, config, policy=PackingPolicy(), seed=5)
    controller = DelayTimerController(farm.engine, 0.05)
    for server in farm.servers:
        server.attach_controller(controller)
    factory = SingleTaskJobFactory(ExponentialService(0.01), farm.rng.stream("service"))
    arrivals = PoissonProcess(900.0, farm.rng.stream("arrivals"))
    drive(farm, arrivals, factory, max_jobs=1500, audit="strict")
    return farm


SCENARIOS: Dict[str, Callable[[], Farm]] = {
    "adaptive_pools": adaptive_pools,
    "dual_delay_timer": dual_delay_timer,
    "provisioning": provisioning,
    "joint_consolidation": joint_consolidation,
    "per_core_packing": per_core_packing,
}


def observables(scenario: str) -> Tuple[Dict[str, str], str]:
    """(headline fields as reprs, digest of latencies and per-server detail)."""
    farm = SCENARIOS[scenario]()
    engine, scheduler = farm.engine, farm.scheduler
    headline = {
        "events_executed": repr(engine.events_executed),
        "events_scheduled": repr(engine.events_scheduled),
        "events_cancelled": repr(engine.events_cancelled),
        "jobs_completed": repr(scheduler.jobs_completed),
        "tasks_lost": repr(scheduler.tasks_lost),
    }
    detail: List[object] = [tuple(scheduler.job_latency.samples)]
    for server in farm.servers:
        detail.append((
            server.name,
            tuple(server.energy_breakdown_j().items()),
            tuple(server.residency_fractions().items()),
            tuple(sorted(server.residency.transitions.items())),
        ))
    digest = hashlib.blake2b(repr(detail).encode(), digest_size=16).hexdigest()
    return headline, digest


PINNED: Dict[str, Tuple[Dict[str, str], str]] = {
    "adaptive_pools": (
        {
            "events_executed": "9665",
            "events_scheduled": "11793",
            "events_cancelled": "2126",
            "jobs_completed": "3723",
            "tasks_lost": "0",
        },
        "f2653e368770b4b3ed957065acb6860e",
    ),
    "dual_delay_timer": (
        {
            "events_executed": "5686",
            "events_scheduled": "7573",
            "events_cancelled": "1881",
            "jobs_completed": "2350",
            "tasks_lost": "0",
        },
        "944c78eb564cf391ec5bba47e8f80e03",
    ),
    "joint_consolidation": (
        {
            "events_executed": "4021",
            "events_scheduled": "5007",
            "events_cancelled": "981",
            "jobs_completed": "300",
            "tasks_lost": "0",
        },
        "de5e2c4fe6c95f157b6fc07bd266435d",
    ),
    "per_core_packing": (
        {
            "events_executed": "3518",
            "events_scheduled": "4210",
            "events_cancelled": "692",
            "jobs_completed": "1500",
            "tasks_lost": "0",
        },
        "e706121171a52c1753dc989dd0c362fe",
    ),
    "provisioning": (
        {
            "events_executed": "6796",
            "events_scheduled": "8436",
            "events_cancelled": "1634",
            "jobs_completed": "2593",
            "tasks_lost": "0",
        },
        "b43a9d3b2ad74b8738335bd2954de752",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_observables_match_pinned_values(scenario):
    assert observables(scenario) == PINNED[scenario]


def test_adaptive_scenario_reaches_the_fallback_and_moves_servers(monkeypatch):
    """The adaptive scenario must dispatch with no server able to start the
    task, and its manager must move servers both ways."""
    fallbacks = []
    select = PackingPolicy.select_server

    def counting(self, task, candidates):
        if not any(s.can_start_task() for s in candidates):
            fallbacks.append(task)
        return select(self, task, candidates)

    monkeypatch.setattr(PackingPolicy, "select_server", counting)
    farm = adaptive_pools()
    manager = farm.servers[0].power_controller
    assert len(fallbacks) > 50
    assert manager.promotions > 0 and manager.demotions > 0


# ----------------------------------------------------------------------
# Start at once == enqueue, then dispatch
# ----------------------------------------------------------------------
def _enqueue_then_dispatch(server: Server, task) -> None:
    """The reference intake: queue the task, tell the controller, then
    dispatch from the queue (or wake the server)."""
    server.tasks_submitted += 1
    task.server_id = server.server_id
    server.local_scheduler.enqueue(task)
    if server.power_controller is not None:
        server.power_controller.on_task_arrival(server, task)
    if server.system_state is SystemState.S0:
        server.local_scheduler.dispatch()
    else:
        server.request_wake()


def _intake_run(events, submit, queue_policy: str, n_sockets: int):
    base = small_cloud_server(n_cores=2)
    config = ServerConfig.from_dict(
        {**base.to_dict(), "queue_policy": queue_policy, "n_sockets": n_sockets}
    )
    engine = Engine()
    server = Server(engine, config)
    server.attach_controller(DelayTimerController(engine, 0.004))
    tasks = []

    def arrive(service_s: float) -> None:
        job = Job(arrival_time=engine.now)
        task = job.add_task(service_s)
        task.state = TaskState.READY
        tasks.append(task)
        submit(server, task)

    for at, kind, value in events:
        if kind == "task":
            engine.post_at(at, arrive, value)
        else:
            engine.post_at(at, server.sleep, "s3" if value < 0.01 else "s5")
    engine.run()
    return (
        tuple((t.start_time, t.finish_time, t.state.value) for t in tasks),
        tuple(server.energy_breakdown_j().items()),
        tuple(server.residency_fractions().items()),
        tuple(sorted(server.residency.transitions.items())),
        tuple(tuple(sorted(c.tracker.transitions.items())) for c in server.all_cores()),
        (engine.events_executed, engine.events_scheduled, engine.events_cancelled),
    )


_EVENTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.sampled_from(("task", "task", "task", "sleep")),
        st.floats(min_value=0.0005, max_value=0.02, allow_nan=False),
    ),
    max_size=40,
).map(sorted)


@given(
    events=_EVENTS,
    queue_policy=st.sampled_from(("unified", "per_core")),
    n_sockets=st.sampled_from((1, 2)),
)
@settings(max_examples=120, deadline=None)
def test_starting_at_once_equals_enqueue_then_dispatch(events, queue_policy, n_sockets):
    direct = _intake_run(events, Server.submit_task, queue_policy, n_sockets)
    queued = _intake_run(events, _enqueue_then_dispatch, queue_policy, n_sockets)
    assert repr(direct) == repr(queued)
