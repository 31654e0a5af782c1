"""Tests for per-server power controllers: Active-Idle, delay timer, dual."""

from __future__ import annotations

import pytest

from repro.core.engine import Engine
from repro.jobs.templates import single_task_job
from repro.power.controller import AlwaysOnController, DelayTimerController
from repro.power.dual_delay import DualDelayTimerPolicy
from repro.server.server import Server
from repro.server.states import SystemState


def make_server(engine, config, controller=None, server_id=0):
    server = Server(engine, config, server_id=server_id)
    if controller is not None:
        server.attach_controller(controller)
    return server


def submit(server, service_s):
    task = single_task_job(service_s).tasks[0]
    task.ready_time = server.engine.now
    server.submit_task(task)
    return task


class TestAlwaysOn:
    def test_never_sleeps(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config, AlwaysOnController())
        submit(server, 0.1)
        engine.run(until=100.0)
        assert server.system_state is SystemState.S0


class TestDelayTimer:
    def test_sleeps_after_tau_idle(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=1.0)
        server = make_server(engine, fast_sleep_config, controller)
        submit(server, 0.5)
        engine.run(until=1.0)
        assert server.system_state is SystemState.S0
        engine.run(until=2.0)  # idle since 0.5; timer fires at 1.5
        assert server.system_state is SystemState.S3

    def test_attach_arms_timer_for_idle_server(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=0.5)
        server = make_server(engine, fast_sleep_config, controller)
        engine.run(until=1.0)
        assert server.system_state is SystemState.S3

    def test_arrival_cancels_timer(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=1.0)
        server = make_server(engine, fast_sleep_config, controller)
        engine.schedule(0.9, lambda: submit(server, 0.5))
        engine.run(until=1.2)
        assert server.system_state is SystemState.S0
        # Timer restarts after the task completes at 1.4: sleeps at 2.4.
        engine.run(until=3.0)
        assert server.system_state is SystemState.S3

    def test_tau_zero_sleeps_immediately(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=0.0)
        server = make_server(engine, fast_sleep_config, controller)
        task = submit(server, 0.5)
        engine.run(until=0.7)
        assert task.finish_time == pytest.approx(0.5)
        assert server.system_state in (SystemState.ENTERING_SLEEP, SystemState.S3)

    def test_tau_none_never_sleeps(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=None)
        server = make_server(engine, fast_sleep_config, controller)
        engine.run(until=50.0)
        assert server.system_state is SystemState.S0

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            DelayTimerController(Engine(), tau_s=-1.0)

    def test_nan_tau_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            DelayTimerController(Engine(), tau_s=float("nan"))

    @pytest.mark.parametrize("tau", [float("nan"), -0.5])
    def test_set_tau_rejects_bad_values(self, fast_sleep_config, tau):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=1.0)
        server = make_server(engine, fast_sleep_config, controller)
        with pytest.raises(ValueError, match="non-negative"):
            controller.set_tau(server, tau)
        # The rejected value left the server's timer as it was.
        assert controller.tau_for(server) == 1.0

    def test_server_wakes_for_new_task_and_resleeps(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=0.2)
        server = make_server(engine, fast_sleep_config, controller)
        engine.run(until=1.0)
        assert server.system_state is SystemState.S3
        task = submit(server, 0.3)
        engine.run(until=1.4)
        assert task.finish_time is not None
        engine.run(until=2.5)
        assert server.system_state is SystemState.S3

    def test_per_server_tau_override(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=None)
        fast = make_server(engine, fast_sleep_config, controller, server_id=0)
        slow = make_server(engine, fast_sleep_config, controller, server_id=1)
        controller.set_tau(fast, 0.1)
        engine.run(until=5.0)
        assert fast.system_state is SystemState.S3
        assert slow.system_state is SystemState.S0
        assert controller.tau_for(fast) == 0.1
        assert controller.tau_for(slow) is None

    def test_sleep_counts_via_residency_transitions(self, fast_sleep_config):
        engine = Engine()
        controller = DelayTimerController(engine, tau_s=0.1)
        server = make_server(engine, fast_sleep_config, controller)
        engine.run(until=1.0)
        assert server.residency.transition_count(dst="SysSleep") == 1


class TestDualDelayTimer:
    def test_pool_split_and_tags(self, fast_sleep_config):
        engine = Engine()
        servers = [
            Server(engine, fast_sleep_config, server_id=i) for i in range(4)
        ]
        policy = DualDelayTimerPolicy(
            engine, servers, high_pool_size=1, tau_high_s=10.0, tau_low_s=0.1
        )
        assert len(policy.high_pool) == 1
        assert len(policy.low_pool) == 3
        assert servers[0].tags["pool"] == "high-tau"
        assert servers[3].tags["pool"] == "low-tau"

    def test_low_pool_sleeps_first(self, fast_sleep_config):
        engine = Engine()
        servers = [
            Server(engine, fast_sleep_config, server_id=i) for i in range(4)
        ]
        DualDelayTimerPolicy(
            engine, servers, high_pool_size=1, tau_high_s=10.0, tau_low_s=0.1
        )
        engine.run(until=1.0)
        assert servers[0].system_state is SystemState.S0
        assert all(s.system_state is SystemState.S3 for s in servers[1:])

    def test_dispatch_order_prioritises_high_pool(self, fast_sleep_config):
        engine = Engine()
        servers = [
            Server(engine, fast_sleep_config, server_id=i) for i in range(4)
        ]
        policy = DualDelayTimerPolicy(
            engine, servers, high_pool_size=2, tau_high_s=10.0, tau_low_s=0.1
        )
        order = policy.dispatch_order()
        assert order[:2] == policy.high_pool

    def test_validates_pool_size(self, fast_sleep_config):
        engine = Engine()
        servers = [Server(engine, fast_sleep_config, server_id=0)]
        with pytest.raises(ValueError):
            DualDelayTimerPolicy(engine, servers, high_pool_size=5,
                                 tau_high_s=1.0, tau_low_s=0.1)
        with pytest.raises(ValueError):
            DualDelayTimerPolicy(engine, servers, high_pool_size=1,
                                 tau_high_s=-1.0, tau_low_s=0.1)
        for taus in ((float("nan"), 0.1), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="non-negative"):
                DualDelayTimerPolicy(engine, servers, high_pool_size=1,
                                     tau_high_s=taus[0], tau_low_s=taus[1])
