"""Tests for the hysteretic thermal throttle (zone temperature → DVFS)."""

from __future__ import annotations

import math

import pytest

from repro.core.config import ProcessorConfig, ServerConfig
from repro.core.engine import Engine
from repro.facility.throttle import ThermalThrottle, ThrottleConfig
from repro.power.dvfs import DvfsGovernor
from repro.server.server import Server


def make_server(engine, frequency_ghz=2.8):
    return Server(engine, ServerConfig(
        processor=ProcessorConfig(
            n_cores=2,
            frequency_ghz=frequency_ghz,
            nominal_frequency_ghz=2.8,
            available_frequencies_ghz=(1.2, 1.6, 2.0, 2.4, 2.8),
        )
    ))


CFG = ThrottleConfig(limit_c=45.0, hysteresis_k=3.0)


class TestHysteresis:
    def test_engages_at_limit(self):
        throttle = ThermalThrottle("z", [make_server(Engine())], CFG)
        assert throttle.update(44.9, 0.0) is None
        assert throttle.update(45.0, 1.0) == "engage"
        assert throttle.engaged

    def test_no_release_inside_deadband(self):
        throttle = ThermalThrottle("z", [make_server(Engine())], CFG)
        throttle.update(46.0, 0.0)
        # Below the limit but above release_c = 42: stays engaged.
        assert throttle.update(43.0, 1.0) is None
        assert throttle.engaged

    def test_releases_below_deadband(self):
        throttle = ThermalThrottle("z", [make_server(Engine())], CFG)
        throttle.update(46.0, 0.0)
        assert throttle.update(42.0, 5.0) == "release"
        assert not throttle.engaged
        assert (throttle.engagements, throttle.releases) == (1, 1)

    def test_no_double_engage(self):
        throttle = ThermalThrottle("z", [make_server(Engine())], CFG)
        throttle.update(46.0, 0.0)
        assert throttle.update(50.0, 1.0) is None
        assert throttle.engagements == 1

    def test_throttled_time_accounts_open_interval(self):
        throttle = ThermalThrottle("z", [make_server(Engine())], CFG)
        throttle.update(46.0, 2.0)
        assert throttle.throttled_time_s(5.0) == pytest.approx(3.0)
        throttle.update(40.0, 7.0)
        assert throttle.throttled_time_s(100.0) == pytest.approx(5.0)


class TestFrequencyActuation:
    def test_engage_drops_to_lowest_rung_by_default(self):
        server = make_server(Engine())
        throttle = ThermalThrottle("z", [server], CFG)
        throttle.update(46.0, 0.0)
        assert server.processors[0].frequency_ghz == 1.2

    def test_explicit_ceiling_caps_at_highest_allowed_rung(self):
        server = make_server(Engine())
        config = ThrottleConfig(limit_c=45.0, throttle_frequency_ghz=2.1)
        throttle = ThermalThrottle("z", [server], config)
        throttle.update(46.0, 0.0)
        assert server.processors[0].frequency_ghz == 2.0

    def test_release_without_governor_restores_saved_frequency(self):
        server = make_server(Engine(), frequency_ghz=2.4)
        throttle = ThermalThrottle("z", [server], CFG)
        throttle.update(46.0, 0.0)
        assert server.processors[0].frequency_ghz == 1.2
        throttle.update(40.0, 1.0)
        assert server.processors[0].frequency_ghz == 2.4

    def test_governor_holds_cap_while_engaged(self):
        engine = Engine()
        server = make_server(engine, frequency_ghz=1.2)
        governor = DvfsGovernor(engine, [server], interval_s=0.05)
        governor.start()
        throttle = ThermalThrottle("z", [server], CFG, governor=governor)
        throttle.update(46.0, 0.0)
        assert server.server_id in governor.frequency_caps
        # Keep the server fully busy: without the cap it would climb.
        from repro.jobs.templates import single_task_job

        for _ in range(2):
            task = single_task_job(100.0).tasks[0]
            task.ready_time = engine.now
            server.submit_task(task)
        engine.run(until=1.0)
        assert server.processors[0].frequency_ghz == 1.2
        throttle.update(40.0, engine.now)
        assert server.server_id not in governor.frequency_caps
        engine.run(until=2.0)
        assert server.processors[0].frequency_ghz == 2.8


class TestConfigValidation:
    def test_hysteresis_nonnegative(self):
        with pytest.raises(ValueError):
            ThrottleConfig(hysteresis_k=-1.0)

    @pytest.mark.parametrize("field", ["limit_c", "hysteresis_k"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError):
            ThrottleConfig(**{field: value})

    def test_throttle_frequency_positive(self):
        with pytest.raises(ValueError):
            ThrottleConfig(throttle_frequency_ghz=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_throttle_frequency_finite(self, value):
        # A NaN ceiling used to throttle to the lowest rung and +inf to cap
        # nothing; both are refused at construction, naming the field.
        with pytest.raises(ValueError, match="throttle_frequency_ghz"):
            ThrottleConfig(throttle_frequency_ghz=value)

    def test_release_threshold(self):
        assert ThrottleConfig(limit_c=45.0, hysteresis_k=3.0).release_c == 42.0

    def test_json_round_trip(self):
        assert ThrottleConfig.from_dict(CFG.to_dict()) == CFG
