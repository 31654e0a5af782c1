"""Tests for the adaptive pool manager and the provisioning manager."""

from __future__ import annotations

import math

import pytest

from repro.core.engine import Engine
from repro.jobs.templates import single_task_job
from repro.power.adaptive import AdaptivePoolManager
from repro.power.provisioning import ProvisioningManager
from repro.server.server import Server
from repro.server.states import SystemState


def make_farm(engine, config, n=4):
    return [Server(engine, config, server_id=i) for i in range(n)]


def submit(server, service_s):
    task = single_task_job(service_s).tasks[0]
    task.ready_time = server.engine.now
    server.submit_task(task)
    return task


class TestAdaptivePoolManager:
    def test_initial_pools(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = AdaptivePoolManager(
            engine, servers, t_wakeup=4.0, t_sleep=1.0, initial_active=2
        )
        assert len(manager.active_pool) == 2
        assert len(manager.sleep_pool) == 2
        assert manager.eligible_servers() == manager.active_pool

    def test_validates_thresholds(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        with pytest.raises(ValueError):
            AdaptivePoolManager(engine, servers, t_wakeup=1.0, t_sleep=2.0)
        with pytest.raises(ValueError):
            AdaptivePoolManager(engine, servers, t_wakeup=4.0, t_sleep=1.0,
                                initial_active=0)

    def test_sleep_pool_servers_go_to_deep_sleep(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        AdaptivePoolManager(
            engine, servers, t_wakeup=4.0, t_sleep=1.0,
            initial_active=1, tau_sleep_pool_s=0.1,
        )
        engine.run(until=2.0)
        assert servers[0].system_state is SystemState.S0
        assert all(s.system_state is SystemState.S3 for s in servers[1:])

    def test_promotion_under_load(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = AdaptivePoolManager(
            engine, servers, t_wakeup=3.0, t_sleep=0.5,
            initial_active=1, estimation_interval_s=0.05,
        )
        manager.start()
        # Overload the single active server (2 cores, 8 long tasks pending).
        for _ in range(8):
            submit(servers[0], 5.0)
        engine.run(until=1.0)
        assert len(manager.active_pool) > 1
        assert manager.promotions >= 1

    def test_demotion_when_idle(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = AdaptivePoolManager(
            engine, servers, t_wakeup=3.0, t_sleep=0.5, initial_active=3,
            estimation_interval_s=0.05, demotion_cooldown_s=0.1,
            demotion_patience=2,
        )
        manager.start()
        engine.run(until=5.0)
        assert len(manager.active_pool) == 1
        assert manager.demotions == 2

    def test_never_demotes_last_active(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = AdaptivePoolManager(
            engine, servers, t_wakeup=3.0, t_sleep=0.5, initial_active=1,
            estimation_interval_s=0.05, demotion_cooldown_s=0.1,
        )
        manager.start()
        engine.run(until=5.0)
        assert len(manager.active_pool) == 1

    def test_load_metric(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = AdaptivePoolManager(
            engine, servers, t_wakeup=4.0, t_sleep=1.0, initial_active=2
        )
        submit(servers[0], 10.0)
        submit(servers[0], 10.0)
        submit(servers[1], 10.0)
        assert manager.load_per_active_server() == pytest.approx(1.5)


class TestProvisioningManager:
    def test_all_servers_start_active(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = ProvisioningManager(
            engine, servers, min_load_per_server=0.2, max_load_per_server=2.0
        )
        assert manager.active_server_count == 4

    def test_validates_thresholds(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        with pytest.raises(ValueError):
            ProvisioningManager(engine, servers, min_load_per_server=2.0,
                                max_load_per_server=1.0)

    @pytest.mark.parametrize("lo, hi", [
        (math.nan, 1.0), (0.5, math.nan), (0.0, 1.0), (-0.5, 1.0), (0.5, math.inf),
    ])
    def test_rejects_non_finite_or_non_positive_thresholds(self, fast_sleep_config,
                                                           lo, hi):
        # NaN passes ``min >= max`` and would silently switch parking off.
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        with pytest.raises(ValueError, match="threshold must be finite"):
            ProvisioningManager(engine, servers, min_load_per_server=lo,
                                max_load_per_server=hi)

    def test_parks_servers_when_idle(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = ProvisioningManager(
            engine, servers, min_load_per_server=0.2, max_load_per_server=2.0,
            check_interval_s=0.1,
        )
        manager.start()
        engine.run(until=2.0)
        # Idle farm drains to a single active server.
        assert manager.active_server_count == 1
        parked_states = {s.system_state for s in manager.parked_servers}
        assert parked_states == {SystemState.S3}

    def test_reactivates_under_load(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = ProvisioningManager(
            engine, servers, min_load_per_server=0.2, max_load_per_server=2.0,
            check_interval_s=0.1,
        )
        manager.start()
        engine.run(until=2.0)
        assert manager.active_server_count == 1
        active = manager.active_servers[0]
        for _ in range(10):
            submit(active, 3.0)
        engine.run(until=3.0)
        assert manager.active_server_count > 1

    def test_samples_active_count(self, fast_sleep_config):
        engine = Engine()
        servers = make_farm(engine, fast_sleep_config)
        manager = ProvisioningManager(
            engine, servers, min_load_per_server=0.2, max_load_per_server=2.0,
            check_interval_s=0.5,
        )
        manager.start()
        engine.run(until=3.0)
        assert len(manager.active_count_series) >= 5
