"""Pinned observables of the exact server paths no benchmark workload takes.

Every benchmark workload runs one-socket, homogeneous, unified-queue
servers, so the benchmark's pinned digests never exercise the uncached
multi-socket power sum, the cross-socket core choice, per-core queues, the
global task queue, a mid-run P-state retune or a server crash.  Each
scenario below runs one small seeded farm through one of those paths and
compares its observables with values recorded from an earlier build,
exactly: every float by ``repr``.  A change meant only to make the
simulator faster must leave every one of them unchanged.

The pinned fields are the executed event count, jobs completed and job
latency p50/p99 (compared verbatim), plus a blake2b digest over each
server's energy breakdown, residency fractions and residency transitions
and the transition counts of every core and package tracker.  To see what
moved, print ``observables(scenario)``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Tuple

import pytest

from repro.core.config import ProcessorConfig, ServerConfig, small_cloud_server
from repro.experiments.common import Farm, build_farm, drive
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import (
    CapacityGatedPolicy,
    LeastLoadedPolicy,
    PowerObliviousPackingPolicy,
    RoundRobinPolicy,
)
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory


def _attach_delay_timer(farm: Farm, tau_s: float) -> None:
    controller = DelayTimerController(farm.engine, tau_s)
    for server in farm.servers:
        server.attach_controller(controller)


def _run(farm: Farm, rate_hz: float, mean_service_s: float, n_jobs: int) -> Farm:
    factory = SingleTaskJobFactory(
        ExponentialService(mean_service_s), farm.rng.stream("service")
    )
    arrivals = PoissonProcess(rate_hz, farm.rng.stream("arrivals"))
    drive(farm, arrivals, factory, max_jobs=n_jobs, audit="strict")
    return farm


def two_socket_heterogeneous() -> Farm:
    """Two sockets of one slow and one fast core: the uncached power sum
    and the fastest-free-core choice across sockets."""
    base = small_cloud_server(n_cores=2)
    config = ServerConfig(
        name="hetero-2s",
        n_sockets=2,
        processor=ProcessorConfig(
            n_cores=2,
            frequency_ghz=2.4,
            nominal_frequency_ghz=2.4,
            core_speed_factors=(1.0, 1.5),
            core_profile=base.processor.core_profile,
            package_profile=base.processor.package_profile,
        ),
        platform=base.platform,
    )
    farm = build_farm(4, config, policy=LeastLoadedPolicy(), seed=3)
    _attach_delay_timer(farm, 0.02)
    return _run(farm, rate_hz=150.0, mean_service_s=0.005, n_jobs=400)


def per_core_queues() -> Farm:
    """Per-core local queues under capacity-only packing, which routes
    arrivals to sleeping servers and wakes them."""
    base = small_cloud_server(n_cores=4)
    config = ServerConfig.from_dict({**base.to_dict(), "queue_policy": "per_core"})
    farm = build_farm(4, config, policy=PowerObliviousPackingPolicy(), seed=5)
    _attach_delay_timer(farm, 0.05)
    return _run(farm, rate_hz=300.0, mean_service_s=0.01, n_jobs=400)


def global_queue() -> Farm:
    """Capacity-gated placement with the global task queue: arrivals wait
    centrally until a completion lets its server pull them."""
    farm = build_farm(
        3,
        small_cloud_server(n_cores=2),
        policy=CapacityGatedPolicy(LeastLoadedPolicy()),
        seed=9,
        use_global_queue=True,
    )
    return _run(farm, rate_hz=1000.0, mean_service_s=0.005, n_jobs=400)


def retune_and_fail() -> Farm:
    """A P-state retune and a crash + repair mid-run; the crashed server's
    running and queued tasks go back to the global scheduler."""
    farm = build_farm(4, small_cloud_server(n_cores=2), policy=RoundRobinPolicy(), seed=11)
    _attach_delay_timer(farm, 0.1)
    engine, scheduler = farm.engine, farm.scheduler
    retuned, crashed = farm.servers[1], farm.servers[2]

    def crash() -> None:
        lost = crashed.fail()
        farm.lost_on_crash = len(lost)
        scheduler.on_server_failed(crashed, lost)

    def repair() -> None:
        crashed.repair()
        scheduler.on_server_repaired(crashed)

    engine.post_at(0.3, retuned.processors[0].set_frequency, 1.6)
    engine.post_at(0.5, crash)
    engine.post_at(1.2, repair)
    return _run(farm, rate_hz=150.0, mean_service_s=0.02, n_jobs=400)


SCENARIOS: Dict[str, Callable[[], Farm]] = {
    "two_socket_heterogeneous": two_socket_heterogeneous,
    "per_core_queues": per_core_queues,
    "global_queue": global_queue,
    "retune_and_fail": retune_and_fail,
}


def _transitions(tracker) -> Tuple:
    return tuple(sorted(tracker.transitions.items()))


def observables(scenario: str) -> Tuple[Dict[str, str], str]:
    """(headline fields as reprs, digest of the per-server detail)."""
    farm = SCENARIOS[scenario]()
    latency = farm.scheduler.job_latency
    headline = {
        "events_executed": repr(farm.engine.events_executed),
        "jobs_completed": repr(farm.scheduler.jobs_completed),
        "latency_p50": repr(latency.percentile(50)),
        "latency_p99": repr(latency.percentile(99)),
    }
    detail = []
    for server in farm.servers:
        detail.append((
            server.name,
            tuple(server.energy_breakdown_j().items()),
            tuple(server.residency_fractions().items()),
            _transitions(server.residency),
            tuple(_transitions(proc.tracker) for proc in server.processors),
            tuple(_transitions(core.tracker) for core in server.all_cores()),
        ))
    digest = hashlib.blake2b(repr(detail).encode(), digest_size=16).hexdigest()
    return headline, digest


PINNED = {
    "global_queue": (
        {
            "events_executed": "874",
            "jobs_completed": "400",
            "latency_p50": "0.004754231148253241",
            "latency_p99": "0.029824063309767515",
        },
        "440c842f34b408ab50f69a3dbc7fcf28",
    ),
    "per_core_queues": (
        {
            "events_executed": "1083",
            "jobs_completed": "400",
            "latency_p50": "0.008116861598759684",
            "latency_p99": "4.066776376682223",
        },
        "0b402d62c41545dd4bc8f269ee7b1f0b",
    ),
    "retune_and_fail": (
        {
            "events_executed": "1301",
            "jobs_completed": "400",
            "latency_p50": "0.01677291658737534",
            "latency_p99": "0.11548625931677714",
        },
        "f39629bf014938933c74f17b5b485ee5",
    ),
    "two_socket_heterogeneous": (
        {
            "events_executed": "954",
            "jobs_completed": "400",
            "latency_p50": "2.799060801916334",
            "latency_p99": "4.493086212614498",
        },
        "0e657eb9021688202127b125e98a2525",
    ),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_observables_match_pinned_values(scenario):
    assert observables(scenario) == PINNED[scenario]


def test_crash_hands_back_running_tasks():
    # The retune-and-fail scenario must really crash a busy server.
    farm = retune_and_fail()
    assert farm.lost_on_crash > 0
    assert farm.servers[2].failure_count == 1
    assert farm.servers[2].repair_count == 1
    assert farm.servers[1].processors[0].frequency_ghz == 1.6
