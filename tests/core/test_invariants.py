"""Conservation audits (repro.core.invariants).

The key acceptance test lives in TestBrokenCounters: run a real farm,
deliberately corrupt one counter, and assert the audit reports a structured
violation instead of letting the run publish a silently wrong number.
"""

from __future__ import annotations

from types import SimpleNamespace as NS

import pytest

from repro.core.config import small_cloud_server
from repro.core.engine import Engine
from repro.core.invariants import (
    AuditReport,
    InvariantError,
    Violation,
    audit_availability,
    audit_collective,
    audit_energy,
    audit_engine,
    audit_facility,
    audit_jobs,
    audit_pool,
    audit_residencies,
    audit_run,
    audit_tasks,
)
from repro.core.rng import RandomSource
from repro.core.stats import AvailabilityTracker
from repro.experiments.common import audit_farm, build_farm, drive
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import DeterministicService, SingleTaskJobFactory


def _driven_farm(n_servers: int = 2, seed: int = 7):
    """A small farm after a complete run, with its driver."""
    farm = build_farm(n_servers, small_cloud_server(n_cores=2), seed=seed)
    rng = RandomSource(seed)
    factory = SingleTaskJobFactory(DeterministicService(0.02), rng.stream("s"))
    driver = drive(
        farm, PoissonProcess(40.0, rng.stream("a")), factory,
        duration_s=2.0, audit="off",
    )
    return farm, driver


class TestAuditReport:
    def test_empty_report_is_ok(self):
        report = AuditReport()
        assert report.ok
        assert report.checks_run == 0
        assert "0 checks passed" in report.render()

    def test_record_counts_and_collects(self):
        report = AuditReport()
        report.record("a.check", "thing", True, "fine")
        report.record("b.check", "thing", False, "broken")
        assert report.checks_run == 2
        assert not report.ok
        assert report.violations == [Violation("b.check", "thing", "broken")]

    def test_merge_accumulates(self):
        left = AuditReport()
        left.record("a", "x", True, "")
        right = AuditReport()
        right.record("b", "y", False, "bad")
        merged = left.merge(right)
        assert merged is left
        assert left.checks_run == 2
        assert [v.check for v in left.violations] == ["b"]

    def test_render_lists_each_violation(self):
        report = AuditReport()
        report.record("jobs.conservation", "scheduler", False, "off by one")
        text = report.render()
        assert "1 violation(s)" in text
        assert "[jobs.conservation] scheduler: off by one" in text

    def test_raise_if_violated(self):
        report = AuditReport()
        report.record("x", "y", False, "nope")
        with pytest.raises(InvariantError) as excinfo:
            report.raise_if_violated()
        assert excinfo.value.report is report
        # InvariantError is an AssertionError so strict audits read as
        # assertion failures to callers and test harnesses alike.
        assert isinstance(excinfo.value, AssertionError)

    def test_clean_report_does_not_raise(self):
        report = AuditReport()
        report.record("x", "y", True, "")
        report.raise_if_violated()


class TestCleanRun:
    def test_full_audit_passes_on_real_run(self):
        farm, driver = _driven_farm()
        report = audit_run(
            farm.engine, servers=farm.servers,
            scheduler=farm.scheduler, driver=driver,
        )
        assert report.ok, report.render()
        assert report.checks_run > 10

    def test_audit_farm_strict_passes_on_real_run(self):
        farm, driver = _driven_farm()
        report = audit_farm(farm, driver=driver, audit="strict")
        assert report is not None and report.ok

    def test_audit_farm_off_skips(self):
        farm, driver = _driven_farm()
        assert audit_farm(farm, driver=driver, audit="off") is None

    def test_audit_farm_rejects_unknown_mode(self):
        farm, _ = _driven_farm(n_servers=1)
        with pytest.raises(ValueError, match="audit mode"):
            audit_farm(farm, audit="loud")


class TestBrokenCounters:
    """An intentionally corrupted simulation must fail the audit, loudly."""

    def test_job_counter_drift_is_caught(self):
        farm, driver = _driven_farm()
        farm.scheduler.jobs_completed += 1  # the silent-wrong-number bug
        report = audit_run(
            farm.engine, servers=farm.servers,
            scheduler=farm.scheduler, driver=driver,
        )
        assert not report.ok
        assert "jobs.conservation" in {v.check for v in report.violations}

    def test_strict_mode_raises_on_corrupt_counter(self):
        farm, driver = _driven_farm()
        farm.scheduler.jobs_completed += 1
        with pytest.raises(InvariantError, match="jobs.conservation"):
            audit_farm(farm, driver=driver, audit="strict")

    def test_warn_mode_reports_to_stderr_without_raising(self, capsys):
        farm, driver = _driven_farm()
        farm.scheduler.jobs_completed += 1
        report = audit_farm(farm, driver=driver, audit="warn")
        assert report is not None and not report.ok
        err = capsys.readouterr().err
        assert "[repro.invariants]" in err
        assert "jobs.conservation" in err

    def test_negative_counter_is_caught(self):
        farm, driver = _driven_farm()
        farm.scheduler.tasks_lost = -3
        report = audit_jobs(farm.scheduler, driver)
        assert {"jobs.counter-sign"} <= {v.check for v in report.violations}

    def test_driver_scheduler_mismatch_is_caught(self):
        farm, driver = _driven_farm()
        driver.jobs_injected += 2
        report = audit_jobs(farm.scheduler, driver)
        assert "jobs.injected" in {v.check for v in report.violations}

    def test_tampered_energy_account_is_caught(self):
        farm, driver = _driven_farm(n_servers=1)
        farm.servers[0].cpu_energy._energy_j = -50.0
        report = audit_energy(farm.servers, farm.engine.now)
        assert "energy.finite" in {v.check for v in report.violations}

    def test_tampered_residency_is_caught(self):
        farm, driver = _driven_farm(n_servers=1)
        tracker = farm.servers[0].residency
        state = tracker.state
        tracker._totals[state] = tracker._totals.get(state, 0.0) + 10.0
        report = audit_residencies(farm.servers, farm.engine.now)
        assert "residency.conservation" in {v.check for v in report.violations}


class TestEngineAudit:
    def test_clean_engine(self):
        engine = Engine()
        engine.run()
        assert audit_engine(engine).ok

    def test_undrained_queue_flagged_when_drain_expected(self):
        engine = Engine()
        engine.post(5.0, lambda: None)
        engine.run(until=1.0)
        report = audit_engine(engine, expect_drained=True)
        assert "engine.drained" in {v.check for v in report.violations}
        # Without the drain expectation a pending event is legitimate.
        assert audit_engine(engine, expect_drained=False).ok

    def test_explicit_stop_excuses_pending_events(self):
        engine = Engine()
        engine.post(0.5, engine.stop)
        engine.post(5.0, lambda: None)
        engine.run()
        assert engine.stopped
        assert audit_engine(engine, expect_drained=True).ok


class TestAvailabilityAudit:
    def test_consistent_tracker_passes(self):
        tracker = AvailabilityTracker("srv-0")
        tracker.mark_down(1.0)
        tracker.mark_up(2.0)
        report = audit_availability([tracker], now=3.0)
        assert report.ok, report.render()

    def test_inconsistent_transition_counts_are_caught(self):
        tracker = AvailabilityTracker("srv-0")
        tracker.mark_down(1.0)
        tracker.mark_up(2.0)
        tracker.repairs += 1  # bookkeeping corrupted
        report = audit_availability([tracker], now=3.0)
        assert "availability.transitions" in {v.check for v in report.violations}


# ----------------------------------------------------------------------
# Violation text: every check failing at once, on stand-in objects
# ----------------------------------------------------------------------
class _Account:
    def __init__(self, name, power_w, energy):
        self.name, self.power_w, self._energy = name, power_w, energy

    def energy_j(self, t):
        return self._energy + 2.0 * self.power_w * (t - 10.0)


class _BrokenServer:
    def __init__(self, name):
        self.name = name
        self.residency = NS(start_time=0.0,
                            residency=lambda now: {"idle": 3.25, "active": 1.0 / 3.0})
        self.cpu_energy = _Account("cpu", 12.5, -4.0)
        self.dram_energy = _Account("dram", 0.1, float("nan"))
        self.platform_energy = _Account("platform", 1.0 / 7.0, 2.0)
        self._pool_slot = 5
        self.is_idle = False
        self.is_failed = True
        self._transition = "handle"
        self.pending_task_count = 3
        self.tasks_submitted = 7
        self.tasks_completed = 9

    def energy_breakdown_j(self, now):
        return {"cpu": -4.0, "dram": float("nan"), "platform": 2.0}

    def total_energy_j(self, now):
        return 1.0 / 3.0


def _every_check_failing() -> AuditReport:
    servers = [_BrokenServer("s-0"), _BrokenServer("s-1")]
    engine = NS(now=float("nan"), peek_time=lambda: 5.5, stopped=False)
    sched = NS(jobs_submitted=-1, jobs_completed=4, jobs_failed=-2, active_jobs=1,
               tasks_lost=-3, tasks_retried=-4, tasks_abandoned=-5, slo_violations=-6,
               job_latency=[1.0, 2.0], servers=servers, total_pending_tasks=lambda: 2,
               transfers_launched=7, transfer_bytes_launched=1e6 / 3,
               transfers_dropped=2)
    pool = NS(iter_pooled=lambda: iter([(4, servers[0]), (6, servers[1])]),
              pooled_count=5, slot_cohort=lambda slot: NS(members=3), captures=2,
              materializations=4)
    trackers = [
        NS(name="srv:1", is_up=True, failures=2, repairs=0,
           uptime_fraction=lambda now: 1.5),
        NS(name="sw:2", is_up=False, failures=1, repairs=1,
           uptime_fraction=lambda now: -0.25),
    ]
    zone = NS(name="z0",
              thermal=NS(config=NS(min_physical_c=10.0, max_physical_c=45.5),
                         temp_c=20.0),
              temp_series=NS(values=[50.25, 20.0, 60.0]),
              throttle=NS(engaged=True, engagements=3, releases=3))
    facility = NS(
        it_energy=_Account("it", 100.0, float("inf")),
        cooling_energy=_Account("cooling", 3.0, -2.0),
        overhead_energy=_Account("overhead", 1.0, 0.0),
        facility_energy_j=lambda now: 10.0,
        energy_breakdown_j=lambda now: {"a": 1.0 / 3.0, "b": 2.0},
        pue_series=NS(values=[1.2, 0.5, 0.75]), zones=[zone],
        gco2_g=float("nan"), cost_usd=-1.0,
    )
    jobs = [NS(job_id=3, collective=NS(wire_bytes=-1.5, n_transfers=-2)),
            NS(job_id=4, collective=None)]
    network = NS(bytes_delivered=12345.678, transfers_stranded=4)

    report = audit_engine(engine, expect_drained=True)
    report.merge(audit_jobs(sched, NS(jobs_injected=11)))
    report.merge(audit_tasks(sched))
    report.merge(audit_residencies(servers, 10.0))
    report.merge(audit_energy(servers, 10.0))
    report.merge(audit_pool(pool))
    report.merge(audit_availability(trackers, 10.0))
    report.merge(audit_facility(facility, 10.0))
    for distinct in (True, False):
        report.merge(audit_collective(sched, network, jobs=jobs,
                                      distinct_servers=distinct))
    return report


#: The report above, as the audits rendered it when they formatted every
#: message eagerly.
_EVERY_VIOLATION = [
    '[engine.clock] engine: simulation clock is nan',
    '[engine.drained] engine: event queue not drained (next event at t=5.5) and the engine was not explicitly stopped',
    '[jobs.counter-sign] scheduler: jobs_submitted is negative (-1)',
    '[jobs.counter-sign] scheduler: jobs_failed is negative (-2)',
    '[jobs.counter-sign] scheduler: tasks_lost is negative (-3)',
    '[jobs.counter-sign] scheduler: tasks_retried is negative (-4)',
    '[jobs.counter-sign] scheduler: tasks_abandoned is negative (-5)',
    '[jobs.counter-sign] scheduler: slo_violations is negative (-6)',
    '[jobs.conservation] scheduler: submitted (-1) != completed (4) + failed (-2) + active (1)',
    '[jobs.latency-samples] scheduler: 2 latency samples for 4 completed jobs',
    '[jobs.injected] driver: driver injected 11 jobs but the scheduler admitted -1',
    '[tasks.conservation] farm: submitted (14) - completed (18) - pending (2) = -6, outside [0, tasks_lost=-3]',
    '[residency.conservation] s-0: state residencies sum to 3.58333333s over a 10s tracked interval',
    '[residency.conservation] s-1: state residencies sum to 3.58333333s over a 10s tracked interval',
    '[energy.finite] s-0.cpu: energy is -4.0 J',
    '[energy.finite] s-0.dram: energy is nan J',
    '[energy.breakdown-sum] s-0: total energy 0.333333333 J != sum of components nan J',
    '[energy.integral] s-0.cpu: energy grew 25 J over 1 s at a declared draw of 12.5 W',
    '[energy.integral] s-0.dram: energy grew nan J over 1 s at a declared draw of 0.1 W',
    '[energy.integral] s-0.platform: energy grew 0.285714286 J over 1 s at a declared draw of 0.142857143 W',
    '[energy.finite] s-1.cpu: energy is -4.0 J',
    '[energy.finite] s-1.dram: energy is nan J',
    '[energy.breakdown-sum] s-1: total energy 0.333333333 J != sum of components nan J',
    '[energy.integral] s-1.cpu: energy grew 25 J over 1 s at a declared draw of 12.5 W',
    '[energy.integral] s-1.dram: energy grew nan J over 1 s at a declared draw of 0.1 W',
    '[energy.integral] s-1.platform: energy grew 0.285714286 J over 1 s at a declared draw of 0.142857143 W',
    '[pool.population] pool: 2 servers hold pool slots but pooled_count is 5',
    '[pool.slot-binding] s-0: slot 4 does not map back to this server (server records 5)',
    "[pool.pooled-state] s-0: pooled server has pending=3 failed=True transition='handle'",
    '[pool.slot-binding] s-1: slot 6 does not map back to this server (server records 5)',
    "[pool.pooled-state] s-1: pooled server has pending=3 failed=True transition='handle'",
    '[pool.cohort-conservation] pool: slots reference 2 cohort memberships but cohorts count 6 members',
    '[pool.counters] pool: captures (2) - materializations (4) != pooled_count (5)',
    '[availability.transitions] srv:1: 2 failures vs 0 repairs while up',
    '[availability.fraction] srv:1: uptime fraction 1.5 outside [0, 1]',
    '[availability.transitions] sw:2: 1 failures vs 1 repairs while down',
    '[availability.fraction] sw:2: uptime fraction -0.25 outside [0, 1]',
    '[facility.energy-finite] facility.it: energy is inf J',
    '[facility.energy-integral] facility.it: energy grew nan J over 1 s at a declared draw of 100 W',
    '[facility.energy-finite] facility.cooling: energy is -2.0 J',
    '[facility.energy-integral] facility.cooling: energy grew 6 J over 1 s at a declared draw of 3 W',
    '[facility.energy-integral] facility.overhead: energy grew 2 J over 1 s at a declared draw of 1 W',
    '[facility.energy-breakdown-sum] facility: facility energy 10 J != sum of components 2.33333333 J',
    '[facility.pue-floor] facility: 2/3 PUE samples below 1 (worst 0.5)',
    '[facility.temperature-bounds] facility.z0: 2/3 samples outside [10.0, 45.5] °C (e.g. 50.25)',
    '[facility.throttle-transitions] facility.z0: 3 engagements vs 3 releases while engaged',
    '[facility.signal-totals] facility.gco2_g: gco2_g is nan',
    '[facility.signal-totals] facility.cost_usd: cost_usd is -1.0',
    '[collective.spec-sign] job-3: spec has wire_bytes=-1.5 n_transfers=-2',
    '[collective.transfers-launched] scheduler: launched 7 transfers but the specs promise -2',
    '[collective.bytes-launched] scheduler: launched 333333.333 B but the specs promise -1.5 B',
    '[collective.bytes-delivered] network: network delivered 12345.678 B of 333333.333 B launched',
    '[collective.stranded] network: 4 transfer(s) stranded by tail drops',
    '[collective.dropped] scheduler: 2 result transfer(s) reported dropped',
    '[collective.spec-sign] job-3: spec has wire_bytes=-1.5 n_transfers=-2',
    "[collective.transfers-bounded] scheduler: launched 7 transfers, more than the specs' upper bound -2",
    '[collective.bytes-delivered] network: network delivered 12345.678 B of 333333.333 B launched',
    '[collective.stranded] network: 4 transfer(s) stranded by tail drops',
    '[collective.dropped] scheduler: 2 result transfer(s) reported dropped',
]


def test_every_violation_renders_its_pinned_text():
    """Messages are formatted only when a check fails, so only failing
    checks exercise the templates: every one of them fails here."""
    report = _every_check_failing()
    assert report.checks_run == 64
    lines = report.render().split("\n")
    assert lines[0] == 'invariant audit: 59 violation(s) in 64 checks'
    assert [line.strip() for line in lines[1:]] == _EVERY_VIOLATION
