"""Tests for the facility_carbon experiment: physics outcomes + telemetry.

That its results and telemetry are byte-identical inline, across pool
workers and through a journal resume is the ``facility-carbon`` row of
``tests/test_execution_matrix.py``.
"""

from __future__ import annotations

import pytest

from repro.experiments.facility_carbon import (
    run_facility_carbon_point,
    run_facility_carbon_sweep,
)
from repro.runner import SweepSpec, run_sweep
from repro.telemetry import session as telemetry

FAST = dict(n_servers=4, n_cores=2, n_zones=2, utilization=0.3,
            duration_s=4.0, audit="off")


def _spec():
    spec = SweepSpec("facility-carbon")
    for setpoint, carbon in ((22.0, "solar"), (30.0, "evening-peak")):
        spec.add(run_facility_carbon_point, setpoint_c=setpoint,
                 carbon=carbon, **FAST)
    return spec


class TestPhysics:
    def test_point_passes_strict_audit(self):
        point = run_facility_carbon_point(
            24.0, carbon="solar", n_servers=4, utilization=0.3,
            duration_s=5.0, audit="strict",
        )
        assert point.jobs_completed > 0
        assert point.facility_energy_j == pytest.approx(
            point.it_energy_j + point.cooling_energy_j
            + point.overhead_energy_j
        )
        assert point.mean_pue >= 1.0
        assert point.gco2_g > 0.0 and point.cost_usd > 0.0

    def test_raising_setpoint_cuts_cooling_energy(self):
        cool = run_facility_carbon_point(22.0, duration_s=10.0, **{
            k: v for k, v in FAST.items() if k != "duration_s"})
        warm = run_facility_carbon_point(30.0, duration_s=10.0, **{
            k: v for k, v in FAST.items() if k != "duration_s"})
        assert warm.cooling_energy_j < cool.cooling_energy_j
        assert warm.peak_zone_temp_c > cool.peak_zone_temp_c

    def test_throttle_measurably_stretches_latency(self):
        """Past the thermal limit the DVFS cap must show up in task latency —
        the whole point of co-simulating the facility."""
        baseline = run_facility_carbon_point(
            22.0, duration_s=20.0, audit="strict")
        throttled = run_facility_carbon_point(
            30.0, duration_s=20.0, audit="strict")
        assert baseline.throttle_engagements == 0
        assert throttled.throttle_engagements >= 1
        assert throttled.throttled_s > 0.0
        assert throttled.mean_latency_s > 1.5 * baseline.mean_latency_s

    def test_carbon_profile_changes_gco2_not_energy(self):
        solar = run_facility_carbon_point(22.0, carbon="solar", **FAST)
        evening = run_facility_carbon_point(22.0, carbon="evening-peak", **FAST)
        assert solar.facility_energy_j == pytest.approx(
            evening.facility_energy_j
        )
        assert solar.gco2_g != pytest.approx(evening.gco2_g)

    def test_sweep_covers_grid(self):
        sweep = run_facility_carbon_sweep(
            setpoints_c=(22.0, 26.0), carbon_profiles=("flat",),
            n_servers=4, utilization=0.3, duration_s=3.0, audit="off",
        )
        assert len(sweep.points) == 2
        assert "PUE" in sweep.render()


class TestDeterminism:
    """The point payloads whose byte-identity the matrix checks carry the
    facility's own trace events."""

    def test_facility_trace_category_is_captured(self):
        with telemetry.session(trace=True, metrics=True) as sess:
            run_sweep(_spec())
        label, payload = sess.point_captures[0]
        cats = {ev[1] for ev in payload["events"]}
        assert "facility" in cats
