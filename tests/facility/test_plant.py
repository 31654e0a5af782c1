"""Tests for the Facility coordinator: ticks, accounting, telemetry, audits."""

from __future__ import annotations

import math

import pytest

from repro.core.config import small_cloud_server
from repro.core.engine import Engine
from repro.core.invariants import audit_facility
from repro.experiments.common import build_farm
from repro.facility import (
    Facility,
    FacilityConfig,
    Signal,
    ThermalConfig,
    ThrottleConfig,
    carbon_profile,
    price_profile,
)
from repro.facility.plant import _partition
from repro.telemetry import session as telemetry


def idle_facility(duration_s=10.0, n_servers=4, config=None, **kwargs):
    """Run an idle farm (constant IT power) under a ticking facility."""
    farm = build_farm(n_servers, small_cloud_server(), seed=1)
    facility = Facility(
        farm.engine, farm.servers,
        config or FacilityConfig(tick_s=0.5),
        **kwargs,
    )
    facility.start(until=duration_s)
    farm.engine.run(until=duration_s)
    facility.stop()
    return farm, facility


class TestPartition:
    def test_even_split(self):
        chunks = _partition(list(range(6)), 2)
        assert [len(c) for c in chunks] == [3, 3]

    def test_remainder_goes_to_early_zones(self):
        chunks = _partition(list(range(5)), 2)
        assert [len(c) for c in chunks] == [3, 2]

    def test_never_more_zones_than_servers(self):
        chunks = _partition(list(range(2)), 8)
        assert [len(c) for c in chunks] == [1, 1]

    def test_partition_preserves_order_and_coverage(self):
        servers = list(range(7))
        chunks = _partition(servers, 3)
        assert [s for chunk in chunks for s in chunk] == servers


class TestLifecycle:
    def test_tick_count_matches_horizon(self):
        _, facility = idle_facility(duration_s=10.0)
        # 20 scheduled ticks plus the final stop() flush at t=10.
        assert facility.ticks == 20
        assert facility._last_t == pytest.approx(10.0)

    def test_horizon_bounds_event_queue(self):
        """With a horizon the tick chain must not keep the engine alive."""
        farm, facility = idle_facility(duration_s=5.0)
        assert farm.engine.peek_time() is None

    def test_stop_cancels_pending_tick(self):
        farm = build_farm(2, small_cloud_server(), seed=1)
        facility = Facility(farm.engine, farm.servers, FacilityConfig(tick_s=1.0))
        facility.start()  # unbounded
        farm.engine.run(until=3.25)
        facility.stop()
        assert farm.engine.peek_time() is None
        # stop() closed the open interval at the stop time.
        assert facility._last_t == pytest.approx(3.25)

    def test_start_is_idempotent(self):
        farm = build_farm(2, small_cloud_server(), seed=1)
        facility = Facility(farm.engine, farm.servers, FacilityConfig(tick_s=1.0))
        facility.start(until=2.0)
        facility.start(until=2.0)
        farm.engine.run(until=2.0)
        facility.stop()
        assert facility.ticks == 2

    def test_needs_servers(self):
        with pytest.raises(ValueError):
            Facility(Engine(), [], FacilityConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FacilityConfig(tick_s=0.0)
        with pytest.raises(ValueError):
            FacilityConfig(n_zones=0)

    @pytest.mark.parametrize("field", ["setpoint_c", "tick_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            FacilityConfig(**{field: value})

    def test_config_json_round_trip(self):
        config = FacilityConfig(
            setpoint_c=26.0,
            thermal=ThermalConfig(recirculation_fraction=0.15),
            throttle=ThrottleConfig(limit_c=50.0),
        )
        back = FacilityConfig.from_dict(config.to_dict())
        assert back == config


class TestAccounting:
    def test_facility_energy_is_sum_of_components(self):
        _, facility = idle_facility()
        breakdown = facility.energy_breakdown_j()
        assert facility.facility_energy_j() == pytest.approx(
            sum(breakdown.values())
        )
        assert all(v > 0 for v in breakdown.values())

    def test_energy_integrates_declared_power(self):
        """Each account's energy equals Σ declared-power × interval — checked
        against the recorded power trajectory."""
        _, facility = idle_facility(duration_s=8.0)
        times = list(facility.power_series.times)
        powers = list(facility.power_series.values)
        expected = sum(
            p * (t1 - t0)
            for p, (t0, t1) in zip(powers, zip(times, times[1:]))
        )
        assert facility.facility_energy_j(times[-1]) == pytest.approx(expected)

    def test_flat_signals_integrate_exactly(self):
        """With constant carbon/price, totals reduce to energy × rate."""
        _, facility = idle_facility(
            duration_s=10.0,
            carbon=carbon_profile("flat"),
            price=price_profile("flat"),
        )
        energy_kwh = facility.facility_energy_j(10.0) / 3.6e6
        assert facility.gco2_g == pytest.approx(400.0 * energy_kwh, rel=1e-9)
        assert facility.cost_usd == pytest.approx(0.10 * energy_kwh, rel=1e-9)

    def test_time_varying_signal_integrates_piecewise(self):
        """gCO2 must equal the hand-computed Σ P_i × ∫carbon over each
        declared-power interval."""
        carbon = Signal([(0.0, 100.0), (5.0, 500.0)], mode="step")
        _, facility = idle_facility(duration_s=10.0, carbon=carbon)
        times = list(facility.power_series.times)
        powers = list(facility.power_series.values)
        expected = sum(
            p * carbon.integrate(t0, t1) / 3.6e6
            for p, (t0, t1) in zip(powers, zip(times, times[1:]))
        )
        assert facility.gco2_g == pytest.approx(expected, rel=1e-9)

    def test_pue_floor_holds(self):
        _, facility = idle_facility()
        assert len(facility.pue_series) > 0
        assert min(facility.pue_series.values) >= 1.0
        assert facility.mean_pue() >= 1.0

    def test_zone_temps_rise_toward_steady_state(self):
        _, facility = idle_facility(duration_s=20.0)
        zone = facility.zones[0]
        assert zone.temp_series.values[-1] > zone.temp_series.values[0]
        t_ss = zone.thermal.steady_state_c(zone.declared_it_w)
        assert zone.temp_series.values[-1] <= t_ss + 1e-6

    def test_summary_is_json_friendly(self):
        import json

        _, facility = idle_facility()
        doc = json.dumps(facility.summary())
        assert "facility_energy_j" in doc


class TestTelemetry:
    def test_facility_events_emitted_under_session(self):
        with telemetry.session(trace=True, metrics=False) as sess:
            idle_facility(duration_s=3.0)
        cats = {ev[1] for ev in sess.recorder.events}
        assert "facility" in cats
        names = {ev[2] for ev in sess.recorder.events if ev[1] == "facility"}
        assert {"zone", "plant"} <= names

    def test_filtered_category_emits_nothing(self):
        with telemetry.session(trace=True, categories=("task",),
                               metrics=False) as sess:
            idle_facility(duration_s=3.0)
        assert all(ev[1] != "facility" for ev in sess.recorder.events)

    def test_counter_events_export_as_chrome_counters(self):
        from repro.telemetry.trace import chrome_trace, check_chrome_trace

        with telemetry.session(trace=True, metrics=False) as sess:
            idle_facility(duration_s=2.0)
        doc = chrome_trace(sess.recorder.events)
        check_chrome_trace(doc)
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters and all(e["cat"] == "facility" for e in counters)

    def test_metrics_registered_under_facility_namespace(self):
        with telemetry.session(trace=False, metrics=True) as sess:
            idle_facility(duration_s=3.0)
            snapshot = sess.metrics.snapshot()
        flat = str(sorted(snapshot.items()))
        for key in ("facility.ticks", "facility.power_w", "facility.gco2_g",
                    "facility.pue_trajectory", "facility.zone0.temp_trajectory"):
            assert key in flat, key

    def test_second_facility_gets_numbered_prefix(self):
        with telemetry.session(trace=False, metrics=True) as sess:
            farm = build_farm(2, small_cloud_server(), seed=1)
            for _ in range(2):
                facility = Facility(
                    farm.engine, farm.servers, FacilityConfig(tick_s=1.0)
                )
                facility.start(until=1.0)
            flat = str(sorted(sess.metrics.snapshot().items()))
        assert "facility.ticks" in flat and "facility1.ticks" in flat


class TestAudits:
    def test_healthy_facility_passes(self):
        farm, facility = idle_facility()
        report = audit_facility(facility, farm.engine.now)
        assert report.ok, report.render()

    def test_broken_pue_sample_flagged(self):
        farm, facility = idle_facility()
        facility.pue_series.append(farm.engine.now, 0.8)
        report = audit_facility(facility, farm.engine.now)
        assert any(v.check == "facility.pue-floor" for v in report.violations)

    def test_unphysical_temperature_flagged(self):
        farm, facility = idle_facility()
        facility.zones[0].temp_series.append(farm.engine.now, 400.0)
        report = audit_facility(facility, farm.engine.now)
        assert any(
            v.check == "facility.temperature-bounds" for v in report.violations
        )

    def test_account_that_stops_integrating_is_flagged(self):
        farm, facility = idle_facility()

        class FrozenAccount:
            """Claims a 50 W draw but its energy never grows."""

            name = "cooling"
            power_w = 50.0

            def energy_j(self, now):
                return 1234.0

        facility.cooling_energy = FrozenAccount()
        report = audit_facility(facility, farm.engine.now)
        assert any(
            v.check == "facility.energy-integral" for v in report.violations
        )

    def test_inconsistent_throttle_counts_flagged(self):
        farm, facility = idle_facility()
        facility.zones[0].throttle.engagements += 1
        report = audit_facility(facility, farm.engine.now)
        assert any(
            v.check == "facility.throttle-transitions"
            for v in report.violations
        )

    def test_nan_gco2_flagged(self):
        farm, facility = idle_facility()
        facility.gco2_g = math.nan
        report = audit_facility(facility, farm.engine.now)
        assert any(
            v.check == "facility.signal-totals" for v in report.violations
        )
