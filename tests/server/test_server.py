"""Tests for the Server: queues, sleep state machine, power accounting."""

from __future__ import annotations

import pytest

from repro.core.config import ServerConfig, small_cloud_server
from repro.core.engine import Engine
from repro.jobs.templates import single_task_job
from repro.server.server import Server
from repro.server.states import ResidencyCategory, SystemState


def make_server(engine, config=None, **kwargs):
    return Server(engine, config or small_cloud_server(n_cores=2), **kwargs)


def submit(server, service_s, arrival=None):
    job = single_task_job(service_s, arrival_time=arrival or server.engine.now)
    task = job.tasks[0]
    task.ready_time = server.engine.now
    server.submit_task(task)
    return task


class TestTaskFlow:
    def test_task_executes_and_completes(self):
        engine = Engine()
        server = make_server(engine)
        task = submit(server, 0.5)
        engine.run()
        assert task.finish_time == pytest.approx(0.5)
        assert server.tasks_completed == 1

    def test_completion_callback_fires(self):
        engine = Engine()
        server = make_server(engine)
        seen = []
        server.on_task_complete = lambda srv, task: seen.append((srv, task))
        task = submit(server, 0.5)
        engine.run()
        assert seen == [(server, task)]

    def test_queueing_when_cores_busy(self):
        engine = Engine()
        server = make_server(engine)  # 2 cores
        tasks = [submit(server, 1.0) for _ in range(3)]
        assert server.running_task_count == 2
        assert server.queued_task_count == 1
        engine.run()
        # Third task waits for a core: finishes at ~2.0.
        assert tasks[2].finish_time == pytest.approx(2.0, abs=0.01)

    def test_pending_and_idle_metrics(self):
        engine = Engine()
        server = make_server(engine)
        assert server.is_idle
        submit(server, 1.0)
        assert server.pending_task_count == 1
        engine.run()
        assert server.is_idle

    def test_per_core_queue_policy(self):
        engine = Engine()
        config = small_cloud_server(n_cores=2)
        config = ServerConfig.from_dict({**config.to_dict(), "queue_policy": "per_core"})
        server = make_server(engine, config)
        for _ in range(4):
            submit(server, 1.0)
        # JSQ spreads two tasks per core.
        engine.run()
        assert server.tasks_completed == 4
        assert engine.now == pytest.approx(2.0, abs=0.01)


class TestSleepStateMachine:
    def test_sleep_enters_s3_after_entry_latency(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        assert server.sleep("s3")
        assert server.system_state is SystemState.ENTERING_SLEEP
        engine.run(until=0.02)
        assert server.system_state is SystemState.S3

    def test_sleep_refused_when_busy(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        submit(server, 1.0)
        assert not server.sleep("s3")
        assert server.system_state is SystemState.S0

    def test_sleep_refused_when_queued(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        for _ in range(3):
            submit(server, 1.0)
        assert not server.sleep("s3")

    def test_invalid_level_raises(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        with pytest.raises(ValueError):
            server.sleep("s9")

    def test_wake_returns_to_s0(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        server.sleep("s3")
        engine.run(until=0.02)
        server.request_wake()
        assert server.system_state is SystemState.WAKING
        engine.run(until=0.1)
        assert server.system_state is SystemState.S0

    def test_wake_race_during_entry(self, fast_sleep_config):
        """Wake requested while entering sleep is honoured after entry."""
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        server.sleep("s3")
        server.request_wake()  # still ENTERING_SLEEP
        assert server.system_state is SystemState.ENTERING_SLEEP
        engine.run()
        assert server.system_state is SystemState.S0

    def test_task_arrival_wakes_sleeping_server(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        server.sleep("s3")
        engine.run(until=0.02)
        task = submit(server, 0.5)
        engine.run()
        # Wake latency (0.05) precedes execution.
        assert task.finish_time == pytest.approx(0.02 + 0.05 + 0.5, abs=0.02)

    def test_task_during_entry_queues_then_runs(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        server.sleep("s3")
        task = submit(server, 0.5)  # arrives during ENTERING_SLEEP
        engine.run()
        assert task.finish_time is not None
        assert server.system_state is SystemState.S0

    def test_wake_noop_when_awake(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        server.request_wake()
        assert server.system_state is SystemState.S0

    def test_s5_has_longer_wake(self):
        engine = Engine()
        config = small_cloud_server(n_cores=2)
        server = make_server(engine, config)
        server.sleep("s5")
        engine.run(until=config.platform.s5_entry_latency_s + 0.1)
        assert server.system_state is SystemState.S5
        start = engine.now
        server.request_wake()
        engine.run()
        assert engine.now - start == pytest.approx(
            config.platform.s5_exit_latency_s, abs=0.01
        )


class TestResidencyCategories:
    def test_active_when_core_busy(self):
        engine = Engine()
        server = make_server(engine)
        submit(server, 1.0)
        assert server.residency.state == ResidencyCategory.ACTIVE

    def test_idle_then_pkgc6(self):
        engine = Engine()
        server = make_server(engine)
        assert server.residency.state == ResidencyCategory.IDLE
        engine.run(until=1.0)
        assert server.residency.state == ResidencyCategory.PKG_C6

    def test_syssleep_and_wakeup(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        server.sleep("s3")
        assert server.residency.state == ResidencyCategory.SYS_SLEEP
        engine.run(until=0.02)
        server.request_wake()
        assert server.residency.state == ResidencyCategory.WAKE_UP
        engine.run()
        assert server.residency.state in (
            ResidencyCategory.IDLE,
            ResidencyCategory.PKG_C6,
        )

    def test_fractions_cover_all_categories(self):
        engine = Engine()
        server = make_server(engine)
        submit(server, 0.5)
        engine.run(until=2.0)
        fractions = server.residency_fractions()
        assert set(fractions) == set(ResidencyCategory.ALL)
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestPowerAccounting:
    def test_energy_breakdown_components(self):
        engine = Engine()
        server = make_server(engine)
        submit(server, 1.0)
        engine.run()
        breakdown = server.energy_breakdown_j()
        assert set(breakdown) == {"cpu", "dram", "platform"}
        assert all(v > 0 for v in breakdown.values())

    def test_total_energy_is_component_sum(self):
        engine = Engine()
        server = make_server(engine)
        submit(server, 1.0)
        engine.run()
        assert server.total_energy_j() == pytest.approx(
            sum(server.energy_breakdown_j().values())
        )

    def test_busy_power_exceeds_idle_power(self):
        engine = Engine()
        server = make_server(engine)
        idle_power = server.power_w
        submit(server, 1.0)
        assert server.power_w > idle_power

    def test_s3_power_far_below_idle(self, fast_sleep_config):
        engine = Engine()
        server = make_server(engine, fast_sleep_config)
        idle_power = server.power_w
        server.sleep("s3")
        engine.run(until=0.02)
        assert server.power_w < idle_power / 5

    def test_busy_energy_exceeds_idle_energy(self):
        engine_busy, engine_idle = Engine(), Engine()
        busy = make_server(engine_busy)
        idle = make_server(engine_idle)
        submit(busy, 2.0)
        engine_busy.run(until=2.0)
        engine_idle.run(until=2.0)
        # Idle engine has only C6-timer events; advance clock to equal time.
        assert busy.total_energy_j(2.0) > idle.total_energy_j(2.0)

    def test_sleeping_server_consumes_less_energy(self, fast_sleep_config):
        engine_a, engine_b = Engine(), Engine()
        awake = make_server(engine_a, fast_sleep_config)
        asleep = make_server(engine_b, fast_sleep_config)
        asleep.sleep("s3")
        engine_a.run(until=10.0)
        engine_b.run(until=10.0)
        assert asleep.total_energy_j(10.0) < awake.total_energy_j(10.0) / 3


class TestFootprint:
    """Bytes per built server, the quantity that caps how large a farm one
    host can hold.  The parent layout took 6,947 B per server here; the
    slotted layout measures 3,844 B (CPython 3.11.7)."""

    CEILING_B = 4_300

    def test_bytes_per_built_server(self):
        import tracemalloc

        from repro.scheduling.global_scheduler import GlobalScheduler

        config = small_cloud_server(n_cores=4)
        engine = Engine()
        # Per-config caches are shared by every server; warm them first.
        [Server(engine, config, server_id=i) for i in range(10)]
        n = 2_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            servers = [Server(engine, config, server_id=i) for i in range(n)]
            GlobalScheduler(engine, servers)
            per_server = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            tracemalloc.stop()
        assert per_server < self.CEILING_B, f"{per_server:.0f} B per server"

    def test_layout_the_ceiling_rests_on(self):
        from repro.scheduling.global_scheduler import GlobalScheduler

        engine = Engine()
        server = make_server(engine)
        GlobalScheduler(engine, [server])
        # Everything but the per-instance completion hook lives in slots.
        assert set(vars(server)) == {"on_task_complete"}
        assert not hasattr(server.residency, "__dict__")
        core = server.all_cores()[0]
        assert not hasattr(core, "__dict__")
        assert not hasattr(server.processors[0], "__dict__")
        # No queue until the first task is queued.
        assert server.local_scheduler._queue is None
        assert server.queued_task_count == 0
