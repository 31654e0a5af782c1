"""Tests for service-time samplers, job factories, and the workload driver."""

from __future__ import annotations

import pytest

from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.server.server import Server
from repro.workload.arrivals import TraceProcess
from repro.workload.driver import WorkloadDriver
from repro.workload.profiles import (
    DeterministicService,
    ExponentialService,
    SingleTaskJobFactory,
    UniformService,
    web_search_profile,
    web_serving_profile,
)


class TestSamplers:
    def test_deterministic(self, rng):
        sampler = DeterministicService(0.005)
        assert sampler.sample(rng) == 0.005
        assert sampler.mean_s == 0.005

    def test_deterministic_validates(self):
        with pytest.raises(ValueError):
            DeterministicService(0.0)

    def test_exponential_mean(self, rng):
        sampler = ExponentialService(0.01)
        samples = [sampler.sample(rng) for _ in range(20000)]
        assert sum(samples) / len(samples) == pytest.approx(0.01, rel=0.05)

    def test_exponential_validates(self):
        with pytest.raises(ValueError):
            ExponentialService(-1.0)

    def test_uniform_bounds_and_mean(self, rng):
        sampler = UniformService(0.003, 0.010)
        samples = [sampler.sample(rng) for _ in range(2000)]
        assert all(0.003 <= s <= 0.010 for s in samples)
        assert sampler.mean_s == pytest.approx(0.0065)

    def test_uniform_validates(self):
        with pytest.raises(ValueError):
            UniformService(0.0, 0.01)
        with pytest.raises(ValueError):
            UniformService(0.02, 0.01)


class TestProfiles:
    def test_web_search_is_5ms(self):
        assert web_search_profile().mean_service_s == pytest.approx(0.005)

    def test_web_serving_is_120ms(self):
        assert web_serving_profile().mean_service_s == pytest.approx(0.120)

    def test_qos_latency(self):
        profile = web_search_profile()
        assert profile.qos_latency_s == pytest.approx(0.010)

    def test_job_factory_builds_single_task_jobs(self, rng):
        factory = web_search_profile().job_factory(rng)
        job = factory(3.0)
        assert len(job.tasks) == 1
        assert job.arrival_time == 3.0
        assert job.job_type == "web-search"

    def test_unknown_distribution_raises(self):
        from repro.workload.profiles import WorkloadProfile

        with pytest.raises(ValueError):
            WorkloadProfile("x", 0.01, distribution="zipf").sampler()


class TestWorkloadDriver:
    def _farm(self):
        from repro.core.config import small_cloud_server

        engine = Engine()
        servers = [Server(engine, small_cloud_server(), server_id=0)]
        scheduler = GlobalScheduler(engine, servers)
        return engine, scheduler

    def test_injects_trace_arrivals(self, rng):
        engine, scheduler = self._farm()
        factory = SingleTaskJobFactory(DeterministicService(0.001), rng)
        driver = WorkloadDriver(engine, scheduler, TraceProcess([1.0, 2.0, 3.0]), factory)
        driver.start()
        engine.run()
        assert driver.jobs_injected == 3
        assert scheduler.jobs_completed == 3

    def test_max_jobs_cap(self, rng):
        engine, scheduler = self._farm()
        factory = SingleTaskJobFactory(DeterministicService(0.001), rng)
        driver = WorkloadDriver(
            engine, scheduler, TraceProcess([0.1, 0.2, 0.3, 0.4]), factory, max_jobs=2
        )
        driver.start()
        engine.run()
        assert driver.jobs_injected == 2

    def test_until_horizon(self, rng):
        engine, scheduler = self._farm()
        factory = SingleTaskJobFactory(DeterministicService(0.001), rng)
        driver = WorkloadDriver(
            engine, scheduler, TraceProcess([1.0, 2.0, 50.0]), factory, until=10.0
        )
        driver.start()
        engine.run()
        assert driver.jobs_injected == 2

    def test_double_start_raises(self, rng):
        engine, scheduler = self._farm()
        factory = SingleTaskJobFactory(DeterministicService(0.001), rng)
        driver = WorkloadDriver(engine, scheduler, TraceProcess([1.0]), factory)
        driver.start()
        with pytest.raises(RuntimeError):
            driver.start()

    def test_invalid_max_jobs(self, rng):
        engine, scheduler = self._farm()
        factory = SingleTaskJobFactory(DeterministicService(0.001), rng)
        with pytest.raises(ValueError):
            WorkloadDriver(engine, scheduler, TraceProcess([1.0]), factory, max_jobs=0)

    @pytest.mark.parametrize("until", [float("nan"), 0.0, 0.5])
    def test_until_must_be_later_than_the_clock(self, rng, until):
        engine, scheduler = self._farm()
        engine.run(until=0.5)
        factory = SingleTaskJobFactory(DeterministicService(0.001), rng)
        with pytest.raises(ValueError, match="until must be later"):
            WorkloadDriver(engine, scheduler, TraceProcess([1.0]), factory, until=until)
