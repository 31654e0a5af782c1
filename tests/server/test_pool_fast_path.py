"""Property-diff suite for the pooled idle-server fast path.

The :class:`~repro.server.pool.ServerPool` replaces a settled-idle server's
per-server engine events (core-C6 and package-C6 timers) with pooled cohort
events plus analytic residency/energy accounting, materializing back to
exact per-server state on dispatch, sleep, fault, controller attachment,
retune, or telemetry access.  Only servers without a power controller are
pooled.  The pool's contract is *bit identity*: every observable — job
latencies, per-component energies, server/core/package residencies and
transition counts — must match the exact per-server event path
float-for-float.

These tests enforce that contract the same way the network fast-path suite
(tests/network/test_fast_path.py) does for packet trains: run identical
workloads with the pool on and off, diff every observable, and keep the
strict conservation audits on so neither path can drift silently.  Directed
scenarios cover the edges — faults striking a pooled server or one a direct
``sleep()`` took out of the pool, a controller attached to pooled servers,
and a facility thermal throttle retuning pooled servers — and a Hypothesis
property test sweeps randomized workloads over the same diff.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import Farm, audit_farm, build_farm, drive
from repro.facility.throttle import ThermalThrottle, ThrottleConfig
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import LeastLoadedPolicy, RoundRobinPolicy
from repro.server.states import ResidencyCategory, SystemState
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import ExponentialService, SingleTaskJobFactory


# ----------------------------------------------------------------------
# Harness: run the same scenario with the pool on/off, diff observables
# ----------------------------------------------------------------------
def make_farm(
    pool: bool,
    *,
    n_servers: int = 8,
    n_cores: int = 4,
    seed: int = 7,
    policy_cls=RoundRobinPolicy,
) -> Farm:
    return build_farm(
        n_servers,
        small_cloud_server(n_cores=n_cores),
        policy=policy_cls(),
        seed=seed,
        pool=pool,
    )


def run_workload(
    pool: bool,
    *,
    n_servers: int = 8,
    seed: int = 7,
    rate_hz: float = 200.0,
    mean_service_s: float = 0.005,
    n_jobs: int = 400,
    policy_cls=RoundRobinPolicy,
    hook: Optional[Callable[[Farm], None]] = None,
) -> Farm:
    """Drive a seeded Poisson workload to completion under strict audits."""
    farm = make_farm(pool, n_servers=n_servers, seed=seed, policy_cls=policy_cls)
    if hook is not None:
        hook(farm)
    rng = RandomSource(seed)
    factory = SingleTaskJobFactory(ExponentialService(mean_service_s), rng.stream("service"))
    drive(
        farm,
        PoissonProcess(rate_hz, rng.stream("arrivals")),
        factory,
        max_jobs=n_jobs,
        drain=True,
        audit="strict",
    )
    return farm


def observables(farm: Farm) -> Dict[str, object]:
    """Every externally visible quantity, exact floats included.

    Materializes pooled servers first so tracker reads see final state; the
    materialization itself must not perturb any value (that is the point).
    """
    if farm.pool is not None:
        farm.pool.materialize_all()
    now = farm.engine.now
    sched = farm.scheduler
    latency = sched.job_latency
    return {
        "now": now,
        "jobs_completed": sched.jobs_completed,
        "tasks_lost": sched.tasks_lost,
        "tasks_retried": sched.tasks_retried,
        "job_latency": (len(latency), latency.mean() if len(latency) else None),
        "system_states": [s.system_state for s in farm.servers],
        "energy": [s.energy_breakdown_j(now) for s in farm.servers],
        "residency": [
            sorted(s.residency.residency(now).items()) for s in farm.servers
        ],
        "transitions": [
            sorted(s.residency.transitions.items()) for s in farm.servers
        ],
        "core_residency": [
            sorted(c.tracker.residency(now).items())
            for s in farm.servers
            for c in s.all_cores()
        ],
        "core_transitions": [
            sorted(c.tracker.transitions.items())
            for s in farm.servers
            for c in s.all_cores()
        ],
        "pkg_residency": [
            sorted(p.tracker.residency(now).items())
            for s in farm.servers
            for p in s.processors
        ],
        "pkg_transitions": [
            sorted(p.tracker.transitions.items())
            for s in farm.servers
            for p in s.processors
        ],
    }


def assert_equivalent(exact: Dict[str, object], pooled: Dict[str, object]) -> None:
    assert set(exact) == set(pooled)
    for key in exact:
        assert exact[key] == pooled[key], (
            f"pooled path diverged on {key!r}:\n"
            f"  exact : {exact[key]}\n"
            f"  pooled: {pooled[key]}"
        )


def diff_scenario(**kwargs) -> Farm:
    """Run a workload scenario both ways, assert identity, return the pooled farm."""
    exact = run_workload(False, **kwargs)
    pooled = run_workload(True, **kwargs)
    # Building the farm captures every idle server, so count the captures
    # past those: a farm the pool stopped serving (a controller attached
    # after the build, say) runs exact on both sides and would pass the diff
    # without testing the pool.
    assert pooled.pool.captures > len(pooled.servers)
    assert_equivalent(observables(exact), observables(pooled))
    return pooled


# ----------------------------------------------------------------------
# Baseline identity + effectiveness
# ----------------------------------------------------------------------
def test_pooled_workload_bit_identical():
    farm = diff_scenario(n_servers=8, seed=7, rate_hz=200.0, n_jobs=400)
    assert farm.pool.materializations > 0


def test_pooled_workload_without_sleep_controller():
    # No controller: servers idle in S0 forever; pooling must agree on the
    # core-C6 / package-C6 cascade it absorbs.
    diff_scenario(n_servers=6, seed=11, rate_hz=120.0, n_jobs=250)


def test_pooled_workload_least_loaded_policy():
    diff_scenario(
        n_servers=8, seed=3, rate_hz=300.0, n_jobs=300,
        policy_cls=LeastLoadedPolicy,
    )


def test_pool_executes_fewer_events():
    """The fast path's reason to exist: idle-heavy farms run on far fewer
    engine events (cohort timers instead of per-server cascades)."""
    kwargs = dict(n_servers=32, seed=5, rate_hz=100.0, n_jobs=200)
    exact = run_workload(False, **kwargs)
    pooled = diff_scenario(**kwargs)
    assert pooled.engine.events_executed < exact.engine.events_executed
    assert pooled.pool.peak_pooled > 1


# ----------------------------------------------------------------------
# Directed edge: faults striking pooled / sleeping servers
# ----------------------------------------------------------------------
def _fault_hook(
    sleep_at: Optional[float], fail_at: float, repair_at: float
) -> Callable[[Farm], None]:
    """Fail server 0 at ``fail_at`` and repair it at ``repair_at``.  With
    ``sleep_at``, a direct ``sleep()`` first parks it, as a policy without a
    controller would.  Records on the farm whether the victim was pooled
    when the first of those calls reached it, its state at the fault, and
    whether the repair put it back in the pool."""

    def hook(farm: Farm) -> None:
        victim = farm.servers[0]

        def park() -> None:
            farm.victim_was_pooled = victim._pool_slot >= 0
            assert victim.sleep("s3")

        def fail() -> None:
            if sleep_at is None:
                farm.victim_was_pooled = victim._pool_slot >= 0
            farm.state_at_fail = victim.system_state
            lost = victim.fail()
            farm.scheduler.on_server_failed(victim, lost)

        def repair() -> None:
            if victim.repair():
                farm.victim_repooled = victim._pool_slot >= 0
                farm.scheduler.on_server_repaired(victim)

        if sleep_at is not None:
            farm.engine.schedule_at(sleep_at, park)
        farm.engine.schedule_at(fail_at, fail)
        farm.engine.schedule_at(repair_at, repair)

    return hook


@pytest.mark.parametrize(
    "sleep_at,fail_at,repair_at,state_at_fail,tasks_lost",
    [
        # A task dispatched during the entry queues behind a pending wake,
        # and the fault loses it.
        pytest.param(0.1, 0.3, 2.0, SystemState.ENTERING_SLEEP, 1,
                     id="fail-mid-sleep-entry"),
        # After the last job: nothing wakes the victim before the fault.
        pytest.param(2.6, 3.5, 4.0, SystemState.S3, 0, id="fail-in-settled-s3"),
        pytest.param(None, 0.2, 1.0, SystemState.S0, 0, id="fail-while-pooled"),
    ],
)
def test_fault_mid_sleep_bit_identical(
    sleep_at, fail_at, repair_at, state_at_fail, tasks_lost
):
    """A fault on a pooled server, or on one a direct ``sleep()`` took out of
    the pool, must lose and recover exactly what the exact path does; the
    repaired server rejoins the pool."""
    farm = diff_scenario(
        n_servers=4, seed=13, rate_hz=60.0, n_jobs=150,
        hook=_fault_hook(sleep_at, fail_at, repair_at),
    )
    assert farm.victim_was_pooled
    assert farm.state_at_fail is state_at_fail
    assert farm.scheduler.tasks_lost == tasks_lost
    assert farm.victim_repooled
    victim = farm.servers[0]
    assert victim.failure_count == 1
    assert victim.repair_count == 1


# ----------------------------------------------------------------------
# Directed edge: facility thermal throttle retunes pooled servers
# ----------------------------------------------------------------------
def _throttle_hook(engage_at: float, release_at: float) -> Callable[[Farm], None]:
    def hook(farm: Farm) -> None:
        throttle = ThermalThrottle(
            "zone0",
            farm.servers,
            ThrottleConfig(limit_c=45.0, throttle_frequency_ghz=1.2),
        )
        farm._throttle = throttle  # keep it reachable for assertions
        engine = farm.engine
        engine.schedule_at(engage_at, lambda: throttle.update(50.0, engine.now))
        engine.schedule_at(release_at, lambda: throttle.update(30.0, engine.now))

    return hook


def test_facility_throttle_cap_on_pooled_servers_bit_identical():
    """A thermal throttle capping frequency across the zone hits pooled-idle
    servers too; ``Processor.set_frequency`` must materialize them first so
    the retune's energy accounting replays exactly like the per-server path
    (a retune on a pooled server once froze its energy accounts)."""
    farm = diff_scenario(
        n_servers=6, seed=21, rate_hz=150.0, n_jobs=300,
        hook=_throttle_hook(engage_at=0.4, release_at=1.2),
    )
    throttle = farm._throttle
    assert throttle.engagements == 1
    assert throttle.releases == 1
    # Frequencies were restored on release.
    for server in farm.servers:
        for proc in server.processors:
            assert proc.frequency_ghz == proc.config.frequency_ghz


def test_throttle_engage_while_farm_fully_pooled():
    # No workload at all: every server is captured at t=0 and still pooled,
    # its idle cascade long over, when the throttle engages, so the retune
    # exercises pure pool materialization.
    pooled_before_engage = []

    def run(pool: bool) -> Farm:
        farm = make_farm(pool, n_servers=4, seed=2)
        _throttle_hook(engage_at=1.0, release_at=3.0)(farm)
        if pool:
            farm.engine.schedule_at(
                0.5, lambda: pooled_before_engage.append(farm.pool.pooled_count)
            )
        farm.engine.run()
        audit_farm(farm, audit="strict")
        return farm

    exact, pooled = run(False), run(True)
    # The retune, not anything before it, took the servers out of the pool.
    assert pooled_before_engage == [4]
    assert pooled.pool.materializations == pooled.pool.captures == 4
    assert_equivalent(observables(exact), observables(pooled))
    assert pooled._throttle.engagements == 1


# ----------------------------------------------------------------------
# Directed edge: a controller takes servers out of the pool for good
# ----------------------------------------------------------------------
def test_attached_controller_takes_servers_out_of_the_pool():
    """``attach_controller`` materializes a pooled idle server, and the pool
    never captures a server with a controller again: from then on it runs,
    and sleeps, on the exact path, with the exact path's observables."""
    at_attach: Dict[str, int] = {}

    def hook(farm: Farm) -> None:
        controller = DelayTimerController(farm.engine, tau_s=0.05)

        def attach_all() -> None:
            pool = farm.pool
            if pool is not None:
                at_attach["pooled"] = pool.pooled_count
            for server in farm.servers:
                server.attach_controller(controller)
            if pool is not None:
                assert pool.pooled_count == 0
                at_attach["captures"] = pool.captures

        farm.engine.schedule_at(0.3, attach_all)

    kwargs = dict(n_servers=6, seed=19, rate_hz=150.0, n_jobs=300, hook=hook)
    exact = run_workload(False, **kwargs)
    pooled = run_workload(True, **kwargs)
    pool = pooled.pool
    assert at_attach["pooled"] > 0
    assert pool.captures == at_attach["captures"]
    assert pool.materializations == pool.captures
    assert pool.pooled_count == 0
    assert_equivalent(observables(exact), observables(pooled))
    now = pooled.engine.now
    assert any(
        s.residency.residency(now).get(ResidencyCategory.SYS_SLEEP, 0.0) > 0.0
        for s in pooled.servers
    )


# ----------------------------------------------------------------------
# Randomized workloads: the property itself
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    rate_hz=st.sampled_from([40.0, 150.0, 400.0]),
)
@settings(max_examples=25, deadline=None)
def test_pooled_random_workloads_bit_identical(seed, rate_hz):
    """Any seeded workload, any load: pooled observables are float-for-float
    identical to the exact per-server event path."""
    diff_scenario(n_servers=6, seed=seed, rate_hz=rate_hz, n_jobs=200)
