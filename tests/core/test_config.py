"""Tests for configuration dataclasses and their JSON round-trips."""

from __future__ import annotations

import math

import pytest

from repro.core.config import (
    CorePowerProfile,
    FaultConfig,
    LinkConfig,
    PlatformPowerProfile,
    ProcessorConfig,
    ServerConfig,
    SwitchConfig,
    cisco_2960_switch,
    datacenter_switch,
    small_cloud_server,
    validation_cpu_profile,
    xeon_e5_2680_server,
)


class TestValidation:
    def test_processor_needs_positive_cores(self):
        with pytest.raises(ValueError):
            ProcessorConfig(n_cores=0)

    def test_processor_needs_positive_frequency(self):
        with pytest.raises(ValueError):
            ProcessorConfig(frequency_ghz=0)

    def test_speed_factor_length_must_match(self):
        with pytest.raises(ValueError):
            ProcessorConfig(n_cores=4, core_speed_factors=(1.0, 2.0))

    def test_heterogeneous_factors_accepted(self):
        config = ProcessorConfig(n_cores=2, core_speed_factors=(1.0, 2.0))
        assert config.core_speed_factors == (1.0, 2.0)

    def test_server_rejects_unknown_queue_policy(self):
        with pytest.raises(ValueError):
            ServerConfig(queue_policy="magic")

    def test_server_rejects_zero_sockets(self):
        with pytest.raises(ValueError):
            ServerConfig(n_sockets=0)

    def test_total_cores(self):
        config = ServerConfig(n_sockets=2, processor=ProcessorConfig(n_cores=8))
        assert config.total_cores == 16

    def test_switch_needs_linecards(self):
        with pytest.raises(ValueError):
            SwitchConfig(n_linecards=0)

    def test_switch_total_ports(self):
        config = SwitchConfig(n_linecards=3, ports_per_linecard=8)
        assert config.total_ports == 24

    def test_link_needs_positive_rate(self):
        with pytest.raises(ValueError):
            LinkConfig(rate_bps=0)

    def test_link_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            LinkConfig(propagation_delay_s=-1e-6)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "factory",
        [
            xeon_e5_2680_server,
            small_cloud_server,
            validation_cpu_profile,
        ],
    )
    def test_server_config_roundtrip(self, factory):
        config = factory()
        rebuilt = ServerConfig.from_json(config.to_json())
        assert rebuilt == config

    @pytest.mark.parametrize("factory", [cisco_2960_switch, datacenter_switch])
    def test_switch_config_roundtrip(self, factory):
        config = factory()
        rebuilt = SwitchConfig.from_json(config.to_json())
        assert rebuilt == config

    def test_nested_override_via_dict(self):
        data = xeon_e5_2680_server().to_dict()
        data["processor"]["n_cores"] = 6
        rebuilt = ServerConfig.from_dict(data)
        assert rebuilt.processor.n_cores == 6
        # Other nested values survive.
        assert rebuilt.processor.core_profile == CorePowerProfile()

    def test_tuple_fields_survive_json(self):
        config = ProcessorConfig(available_frequencies_ghz=(1.0, 2.0))
        rebuilt = ProcessorConfig.from_json(config.to_json())
        assert tuple(rebuilt.available_frequencies_ghz) == (1.0, 2.0)

    def test_link_roundtrip_with_adaptive_rates(self):
        config = LinkConfig(rate_bps=1e9, adaptive_rates_bps=(1e8, 1e9))
        rebuilt = LinkConfig.from_json(config.to_json())
        assert tuple(rebuilt.adaptive_rates_bps) == (1e8, 1e9)

    def test_fault_config_roundtrip_with_trace(self):
        config = FaultConfig(
            enabled=True,
            distribution="weibull",
            server_mtbf_s=50.0,
            slo_latency_s=0.1,
            trace=((1.0, "server", "0", "fail"), (2.5, "server", "0", "repair")),
        )
        rebuilt = FaultConfig.from_json(config.to_json())
        # JSON turns the trace tuples into lists; __post_init__ normalises
        # them back so round-tripped configs compare equal.
        assert rebuilt == config


class TestFaultConfigValidation:
    def test_disabled_by_default(self):
        config = FaultConfig()
        assert not config.enabled
        assert not config.any_stochastic

    def test_any_stochastic_requires_enabled_and_mtbf(self):
        assert not FaultConfig(server_mtbf_s=10.0).any_stochastic
        assert not FaultConfig(enabled=True).any_stochastic
        assert FaultConfig(enabled=True, link_mtbf_s=30.0).any_stochastic

    def test_rejects_unknown_distribution(self):
        with pytest.raises(ValueError):
            FaultConfig(distribution="lognormal")

    def test_rejects_negative_mtbf(self):
        with pytest.raises(ValueError):
            FaultConfig(server_mtbf_s=-1.0)

    def test_rejects_nonpositive_mttr(self):
        with pytest.raises(ValueError):
            FaultConfig(switch_mttr_s=0.0)

    def test_rejects_bad_retry_settings(self):
        with pytest.raises(ValueError):
            FaultConfig(retry_limit=-1)
        with pytest.raises(ValueError):
            FaultConfig(retry_backoff_factor=0.5)

    @pytest.mark.parametrize("field", [
        "server_mtbf_s", "switch_mtbf_s", "link_mtbf_s",
        "server_mttr_s", "switch_mttr_s", "link_mttr_s",
        "weibull_failure_shape", "weibull_repair_shape",
        "retry_backoff_s", "retry_backoff_factor",
    ])
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            FaultConfig(**{field: math.nan})

    @pytest.mark.parametrize("slo", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_slo_that_is_not_finite_and_positive(self, slo):
        with pytest.raises(ValueError, match="slo_latency_s"):
            FaultConfig(slo_latency_s=slo)


class TestStockProfiles:
    def test_cisco_matches_paper_numbers(self):
        config = cisco_2960_switch()
        assert config.chassis_base_w == pytest.approx(14.7)
        assert config.port_profile.active_w == pytest.approx(0.23)
        assert config.total_ports == 24

    def test_xeon_has_ten_cores(self):
        assert xeon_e5_2680_server().processor.n_cores == 10

    def test_validation_profile_power_range(self):
        """RAPL-like package power spans roughly 5..27 W (Fig. 12's range)."""
        config = validation_cpu_profile()
        proc = config.processor
        idle = proc.package_profile.pc6_w + proc.n_cores * proc.core_profile.c6_w
        busy = proc.package_profile.pc0_w + proc.n_cores * proc.core_profile.active_w
        assert 3.0 <= idle <= 8.0
        assert 22.0 <= busy <= 30.0

    def test_package_c6_exit_under_1ms(self):
        """The paper picks package C6 because wake is below 1 ms (§IV-C)."""
        for factory in (xeon_e5_2680_server, small_cloud_server):
            profile = factory().processor.package_profile
            assert profile.pc6_exit_latency_s < 1e-3

    def test_immutable(self):
        config = xeon_e5_2680_server()
        with pytest.raises(Exception):
            config.name = "other"
