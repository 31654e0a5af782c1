"""Unit tests for experiment plumbing: Farm helpers, result dataclasses."""

from __future__ import annotations

import pytest

from repro.core.config import small_cloud_server
from repro.core.rng import RandomSource
from repro.experiments.common import Farm, build_farm, drive
from repro.experiments.delay_timer import DelayTimerPoint, DelayTimerSweep
from repro.experiments.dual_timer import DualTimerConfig, DualTimerResult
from repro.scheduling.policies import LeastLoadedPolicy
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import (
    BimodalService,
    DeterministicService,
    SingleTaskJobFactory,
)


class TestBuildFarm:
    def test_validates_server_count(self):
        with pytest.raises(ValueError):
            build_farm(0, small_cloud_server())

    def test_builds_wired_farm(self):
        farm = build_farm(3, small_cloud_server(), policy=LeastLoadedPolicy())
        assert len(farm.servers) == 3
        assert farm.scheduler.servers == farm.servers
        # Completion callbacks are wired.
        assert all(s.on_task_complete is not None for s in farm.servers)

    def test_energy_breakdown_aggregates(self):
        farm = build_farm(2, small_cloud_server())
        farm.engine.schedule(1.0, lambda: None)
        farm.run()
        breakdown = farm.energy_breakdown_j(1.0)
        assert set(breakdown) == {"cpu", "dram", "platform"}
        assert farm.total_energy_j(1.0) == pytest.approx(sum(breakdown.values()))

    def test_mean_residency_normalised(self):
        farm = build_farm(2, small_cloud_server())
        farm.engine.schedule(1.0, lambda: None)
        farm.run()
        fractions = farm.mean_residency_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)


class TestDrive:
    def test_drain_completes_all_jobs(self):
        farm = build_farm(1, small_cloud_server(n_cores=1))
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(DeterministicService(0.01), rng.stream("s"))
        drive(farm, PoissonProcess(50.0, rng.stream("a")), factory,
              max_jobs=100, drain=True)
        assert farm.scheduler.jobs_completed == 100

    def test_no_drain_stops_at_horizon(self):
        farm = build_farm(1, small_cloud_server(n_cores=1))
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(DeterministicService(0.5), rng.stream("s"))
        drive(farm, PoissonProcess(100.0, rng.stream("a")), factory,
              duration_s=1.0, drain=False)
        assert farm.engine.now == pytest.approx(1.0)
        assert farm.scheduler.active_jobs > 0


class TestBimodalService:
    def test_mean(self):
        sampler = BimodalService(0.005, 0.125, 0.04)
        assert sampler.mean_s == pytest.approx(0.96 * 0.005 + 0.04 * 0.125)

    def test_samples_are_one_of_two_modes(self, rng):
        sampler = BimodalService(0.005, 0.125, 0.2)
        values = {sampler.sample(rng) for _ in range(500)}
        assert values == {0.005, 0.125}

    def test_long_fraction_respected(self, rng):
        sampler = BimodalService(0.005, 0.125, 0.1)
        samples = [sampler.sample(rng) for _ in range(20000)]
        long_fraction = sum(1 for s in samples if s == 0.125) / len(samples)
        assert long_fraction == pytest.approx(0.1, abs=0.02)

    def test_validates(self):
        with pytest.raises(ValueError):
            BimodalService(0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            BimodalService(0.2, 0.1, 0.1)
        with pytest.raises(ValueError):
            BimodalService(0.01, 0.1, 1.5)


class TestResultDataclasses:
    def _point(self, tau, energy, utilization=0.3):
        return DelayTimerPoint(
            workload="w", utilization=utilization, tau_s=tau, energy_j=energy,
            jobs_completed=10, mean_latency_s=0.01, p90_latency_s=0.02,
            sleep_transitions=1,
        )

    def test_sweep_optimal_tau(self):
        sweep = DelayTimerSweep(
            workload="w", tau_values=[0.0, 1.0, 2.0], utilizations=[0.3],
            points=[self._point(0.0, 100), self._point(1.0, 50), self._point(2.0, 80)],
        )
        assert sweep.optimal_tau(0.3) == 1.0
        assert ("optimal tau" in sweep.render())

    def test_sweep_missing_utilization_raises(self):
        sweep = DelayTimerSweep("w", [1.0], [0.3], [self._point(1.0, 50)])
        with pytest.raises(ValueError):
            sweep.optimal_tau(0.9)

    def test_dual_result_reductions(self):
        result = DualTimerResult(
            workload="w", n_servers=20, utilization=0.3,
            baseline_energy_j=100.0, baseline_p90_s=0.01,
            single_energy_j=80.0, single_tau_s=1.0, single_p90_s=0.01,
            dual_energy_j=60.0, dual_config=DualTimerConfig(0.5, 1.0, 0.1),
            dual_p90_s=0.012,
        )
        assert result.reduction_vs_baseline == pytest.approx(0.4)
        assert result.reduction_vs_single == pytest.approx(0.25)
        assert "save_vs_idle" in result.render()


class TestScalabilityResult:
    def test_throughput_properties(self):
        from repro.experiments.scalability import ScalabilityResult

        result = ScalabilityResult(
            n_servers=100, n_jobs=1000, sim_duration_s=1.0,
            wall_seconds=2.0, events_executed=5000,
        )
        assert result.events_per_second == 2500
        assert result.jobs_per_wall_second == 500
        assert "100" in result.render()

    def test_zero_wall_time_guard(self):
        from repro.experiments.scalability import ScalabilityResult

        result = ScalabilityResult(100, 1000, 1.0, 0.0, 5000)
        assert result.events_per_second == 0.0


class TestPoolAutoSelection:
    def test_chooses_exact_path_below_idle_threshold(self):
        from repro.experiments.scalability import choose_pool

        # At 4,096 servers and rho = 0.3 (idle population ~2,867) the pooled
        # path ran at 0.75x the exact path's jobs/s (ROADMAP.md, "Delete the
        # pooled idle-server fast path"): auto must pick exact there.
        assert choose_pool(4096, 0.3) is False

    def test_chooses_pooled_path_for_big_idle_farms(self):
        from repro.experiments.scalability import choose_pool

        assert choose_pool(20_480, 0.3) is True
        assert choose_pool(65_536, 0.3) is True
        # High utilization shrinks the idle population and flips the choice.
        assert choose_pool(65_536, 0.95) is False

    def test_resolve_pool_tri_state(self):
        from repro.experiments.scalability import resolve_pool

        assert resolve_pool("auto", 4096, 0.3) is False
        assert resolve_pool("auto", 65_536, 0.3) is True
        # Explicit overrides always win over the auto heuristic.
        assert resolve_pool(True, 4096, 0.3) is True
        assert resolve_pool(False, 65_536, 0.3) is False
        with pytest.raises(ValueError):
            resolve_pool("yes", 100, 0.3)


class TestDagJobFactory:
    def test_mean_work_and_structure(self, rng):
        from repro.experiments.joint_energy import _DagJobFactory

        factory = _DagJobFactory(rng, n_stages=3, service_low_s=0.1,
                                 service_high_s=0.3, transfer_bytes=5e6)
        assert factory.mean_job_work_s == pytest.approx(3 * 0.2)
        job = factory(7.0)
        assert len(job.tasks) == 3
        assert len(job.edges) == 2
        assert job.arrival_time == 7.0
        assert all(b == 5e6 for _, _, b in job.edges)
        assert all(0.1 <= t.service_time_s <= 0.3 for t in job.tasks)
