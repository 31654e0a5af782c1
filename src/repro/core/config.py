"""Configuration dataclasses for servers, processors, switches and links.

The paper's HolDCSim takes "a workload model, server and switch profile as
inputs" (§III, Fig. 1).  These dataclasses are those profiles.  They are plain
frozen dataclasses with JSON round-trip helpers so experiments can be driven
from configuration files (the paper's "configurable user script").

Two calibrated profiles ship with the library:

* :func:`xeon_e5_2680_server` — a full-server profile (CPU + DRAM + platform)
  modelled after the Intel Xeon E5-2680 v2 machine used in the paper's case
  studies and server validation (§IV-C, §V-A);
* :func:`cisco_2960_switch` — the Cisco WS-C2960-24-S profile used in the
  switch validation (§V-B): 24 ports, 14.7 W base, 0.23 W per active port.

Absolute watt numbers for the server are calibrated to plausible published
ranges, not to the authors' private measurements; every experiment in
``EXPERIMENTS.md`` therefore compares *shapes*, not joules.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Type, TypeVar

T = TypeVar("T")


def _from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
    """Rebuild a (possibly nested) config dataclass from a plain dict."""
    hints = typing.get_type_hints(cls)
    kwargs: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        ftype = hints.get(f.name, f.type)
        if dataclasses.is_dataclass(ftype) and isinstance(value, dict):
            kwargs[f.name] = _from_dict(ftype, value)
        elif isinstance(value, list):
            # JSON has no tuples; all sequence-valued config fields are tuples.
            kwargs[f.name] = tuple(value)
        else:
            kwargs[f.name] = value
    return cls(**kwargs)


class ConfigMixin:
    """JSON round-trip helpers shared by all configuration dataclasses."""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
        return _from_dict(cls, data)

    @classmethod
    def from_json(cls: Type[T], text: str) -> T:
        return _from_dict(cls, json.loads(text))


# ----------------------------------------------------------------------
# Server-side profiles (ACPI hierarchy: C-states, package C-states, S-states)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CorePowerProfile(ConfigMixin):
    """Per-core power in each C-state plus exit latencies.

    ``active_w`` is the dynamic + static draw at nominal frequency while
    retiring instructions (C0 active); ``c1_w`` is the clock-gated halt state;
    ``c6_w`` is the power-gated deep core sleep.  DVFS scales the active power
    by ``(f / f_nominal) ** dvfs_exponent``.
    """

    active_w: float = 9.0
    c1_w: float = 2.0
    c6_w: float = 0.1
    c1_exit_latency_s: float = 1e-6
    c6_exit_latency_s: float = 1e-4
    dvfs_exponent: float = 2.2


@dataclass(frozen=True)
class PackagePowerProfile(ConfigMixin):
    """Uncore/package power: PC0 (active) vs PC6 (package sleep)."""

    pc0_w: float = 18.0
    pc6_w: float = 4.0
    pc6_exit_latency_s: float = 8e-4  # paper: "less than 1ms" (§IV-C)


@dataclass(frozen=True)
class PlatformPowerProfile(ConfigMixin):
    """DRAM + the rest of the platform (PSU, fans, disks, NIC), per S-state.

    System sleep states follow ACPI: S0 (working), S3 (suspend-to-RAM, DRAM in
    self-refresh), S5 (soft off).  ``s3_exit_latency_s`` is the wake-up phase
    the scheduler pays before a sleeping server can serve tasks; during that
    phase the platform draws ``wake_w`` (components powering up at full tilt).
    """

    dram_active_w: float = 12.0
    dram_idle_w: float = 4.0
    dram_selfrefresh_w: float = 1.0
    other_active_w: float = 45.0
    other_idle_w: float = 38.0
    s3_w: float = 3.5
    s5_w: float = 1.0
    s3_entry_latency_s: float = 0.5
    s3_exit_latency_s: float = 4.0
    s5_entry_latency_s: float = 5.0
    s5_exit_latency_s: float = 60.0
    wake_w: float = 80.0


@dataclass(frozen=True)
class ProcessorConfig(ConfigMixin):
    """One processor package: cores, frequency, C-state policy timers.

    ``core_speed_factors`` models heterogeneous processors (Table I): entry
    ``i`` multiplies core ``i``'s execution speed (1.0 = nominal).  ``None``
    means a homogeneous package.
    """

    n_cores: int = 10
    frequency_ghz: float = 2.8
    nominal_frequency_ghz: float = 2.8
    available_frequencies_ghz: tuple = (1.2, 1.6, 2.0, 2.4, 2.8)
    core_speed_factors: Optional[tuple] = None
    core_profile: CorePowerProfile = field(default_factory=CorePowerProfile)
    package_profile: PackagePowerProfile = field(default_factory=PackagePowerProfile)
    core_c6_timer_s: float = 0.002
    package_c6_timer_s: float = 0.005

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError(f"n_cores must be positive, got {self.n_cores}")
        if self.frequency_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_ghz}")
        if self.core_speed_factors is not None and len(self.core_speed_factors) != self.n_cores:
            raise ValueError(
                f"core_speed_factors has {len(self.core_speed_factors)} entries "
                f"for {self.n_cores} cores"
            )


@dataclass(frozen=True)
class ServerConfig(ConfigMixin):
    """A complete server: sockets × processor, platform profile, local queue model.

    ``queue_policy`` selects the local scheduler (§II: "a unified task queue
    or per-core task queue"): ``"unified"`` keeps one server-wide FIFO,
    ``"per_core"`` statically assigns arrivals to per-core FIFOs.
    """

    name: str = "server"
    n_sockets: int = 1
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    platform: PlatformPowerProfile = field(default_factory=PlatformPowerProfile)
    queue_policy: str = "unified"

    def __post_init__(self) -> None:
        if self.n_sockets <= 0:
            raise ValueError(f"n_sockets must be positive, got {self.n_sockets}")
        if self.queue_policy not in ("unified", "per_core"):
            raise ValueError(f"unknown queue_policy {self.queue_policy!r}")

    @property
    def total_cores(self) -> int:
        """Total execution units across all sockets."""
        return self.n_sockets * self.processor.n_cores


# ----------------------------------------------------------------------
# Network-side profiles (ports, line cards, switches, links)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PortPowerProfile(ConfigMixin):
    """Per-port power states: active, LPI (IEEE 802.3az Low Power Idle), off."""

    active_w: float = 0.23  # Cisco WS-C2960-24-S per-port draw (§V-B)
    lpi_w: float = 0.023
    off_w: float = 0.0
    lpi_entry_latency_s: float = 2.88e-6
    lpi_exit_latency_s: float = 4.48e-6
    lpi_timer_s: float = 1e-3


@dataclass(frozen=True)
class LineCardPowerProfile(ConfigMixin):
    """Line-card power states: active, sleep, off (paper §III-B)."""

    active_w: float = 2.0
    sleep_w: float = 0.3
    off_w: float = 0.0
    sleep_exit_latency_s: float = 0.01
    sleep_timer_s: float = 0.1


@dataclass(frozen=True)
class SwitchConfig(ConfigMixin):
    """A network switch: chassis + line cards + ports.

    ``chassis_base_w`` is drawn whenever the switch is powered on; a whole
    switch can additionally be put to sleep (``sleep_w``) by network-aware
    policies, paying ``wake_latency_s`` to come back.
    """

    name: str = "switch"
    n_linecards: int = 1
    ports_per_linecard: int = 24
    chassis_base_w: float = 14.7  # Cisco WS-C2960-24-S base power (§V-B)
    sleep_w: float = 1.2
    wake_latency_s: float = 1.5
    port_profile: PortPowerProfile = field(default_factory=PortPowerProfile)
    linecard_profile: LineCardPowerProfile = field(default_factory=LineCardPowerProfile)

    def __post_init__(self) -> None:
        if self.n_linecards <= 0:
            raise ValueError(f"n_linecards must be positive, got {self.n_linecards}")
        if self.ports_per_linecard <= 0:
            raise ValueError(f"ports_per_linecard must be positive")

    @property
    def total_ports(self) -> int:
        return self.n_linecards * self.ports_per_linecard


@dataclass(frozen=True)
class LinkConfig(ConfigMixin):
    """A network link: capacity and propagation delay.

    ``adaptive_rates_bps`` lists the discrete rates available to dynamic link
    rate adaptation (ALR); empty means the link always runs at full rate.
    """

    rate_bps: float = 1e9
    propagation_delay_s: float = 5e-7
    adaptive_rates_bps: tuple = ()

    def __post_init__(self) -> None:
        if not 0 < self.rate_bps < math.inf:
            raise ValueError(f"rate_bps must be finite and positive, got {self.rate_bps}")
        if not 0 <= self.propagation_delay_s < math.inf:
            raise ValueError(
                "propagation_delay_s must be finite and non-negative, "
                f"got {self.propagation_delay_s}"
            )


# ----------------------------------------------------------------------
# Fault injection (see repro.faults)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultConfig(ConfigMixin):
    """Configuration for the fault-injection subsystem (:mod:`repro.faults`).

    Disabled by default: with ``enabled=False`` a simulation is bit-identical
    to one with no fault machinery at all.  Per-component failure processes
    are parameterised by mean time between failures (MTBF) and mean time to
    repair (MTTR) in seconds; an MTBF of 0 disables faults for that component
    class.  ``distribution`` selects the stochastic model (``"exponential"``
    memoryless processes or ``"weibull"`` with the configured shapes); the
    ``trace`` field instead scripts deterministic fault events as
    ``(time_s, kind, target, action)`` entries where ``kind`` is one of
    ``server`` / ``switch`` / ``link``, ``target`` is a server id, switch
    name, or ``"u|v"`` link key, and ``action`` is ``fail`` or ``repair``.

    Retry fields mirror :class:`repro.scheduling.GlobalScheduler`'s recovery
    knobs so a whole resilience study round-trips through one JSON document.
    """

    enabled: bool = False
    distribution: str = "exponential"
    weibull_failure_shape: float = 1.5
    weibull_repair_shape: float = 1.0
    server_mtbf_s: float = 0.0
    server_mttr_s: float = 10.0
    switch_mtbf_s: float = 0.0
    switch_mttr_s: float = 10.0
    link_mtbf_s: float = 0.0
    link_mttr_s: float = 5.0
    retry_limit: int = 3
    retry_backoff_s: float = 0.1
    retry_backoff_factor: float = 2.0
    slo_latency_s: Optional[float] = None
    trace: tuple = ()

    def __post_init__(self) -> None:
        # Normalise trace entries (JSON yields lists) so round-trips compare equal.
        object.__setattr__(self, "trace", tuple(tuple(e) for e in self.trace))
        if self.distribution not in ("exponential", "weibull"):
            raise ValueError(
                f"unknown fault distribution {self.distribution!r}; "
                f"expected 'exponential' or 'weibull'"
            )
        # Every check is written so that NaN fails it.
        for name in ("server_mtbf_s", "switch_mtbf_s", "link_mtbf_s"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("server_mttr_s", "switch_mttr_s", "link_mttr_s"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}"
                )
        if not (self.weibull_failure_shape > 0 and self.weibull_repair_shape > 0):
            raise ValueError("weibull shapes must be positive")
        if self.retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {self.retry_limit}")
        if not self.retry_backoff_s >= 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if not self.retry_backoff_factor >= 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.slo_latency_s is not None and not 0 < self.slo_latency_s < math.inf:
            raise ValueError(
                f"slo_latency_s must be None or positive and finite, "
                f"got {self.slo_latency_s}"
            )

    @property
    def any_stochastic(self) -> bool:
        """True when at least one component class has a failure process."""
        return self.enabled and (
            self.server_mtbf_s > 0 or self.switch_mtbf_s > 0 or self.link_mtbf_s > 0
        )


# ----------------------------------------------------------------------
# Calibrated stock profiles
# ----------------------------------------------------------------------
def xeon_e5_2680_server(
    n_cores: int = 10,
    queue_policy: str = "unified",
    name: str = "xeon-e5-2680",
) -> ServerConfig:
    """The 10-core Intel Xeon E5-2680 server profile used throughout §IV/§V-A."""
    return ServerConfig(
        name=name,
        n_sockets=1,
        processor=ProcessorConfig(
            n_cores=n_cores,
            frequency_ghz=2.8,
            nominal_frequency_ghz=2.8,
        ),
        platform=PlatformPowerProfile(),
        queue_policy=queue_policy,
    )


def small_cloud_server(n_cores: int = 4, name: str = "cloud-4c") -> ServerConfig:
    """The 4-core commodity server used by the 50-server case studies (§IV-A/B)."""
    return ServerConfig(
        name=name,
        n_sockets=1,
        processor=ProcessorConfig(
            n_cores=n_cores,
            frequency_ghz=2.4,
            nominal_frequency_ghz=2.4,
            core_profile=CorePowerProfile(active_w=8.0, c1_w=1.8, c6_w=0.1),
            package_profile=PackagePowerProfile(pc0_w=12.0, pc6_w=3.0),
        ),
        platform=PlatformPowerProfile(
            dram_active_w=8.0,
            dram_idle_w=3.0,
            other_active_w=40.0,
            other_idle_w=34.0,
        ),
        queue_policy="unified",
    )


def onoff_cloud_server(n_cores: int = 4, name: str = "cloud-4c-onoff") -> ServerConfig:
    """The §IV-B on-off server: deep sleep behaves like a machine power-off.

    The delay-timer case study studies a "system on-off mechanism": servers
    are *turned off* after the timer expires, so coming back costs a long
    resume (15 s here) at high inrush power.  This is what makes τ=0
    catastrophic and produces Fig. 5's U-shape; with a cheap 4 s
    suspend-to-RAM wake, sleeping immediately would always win on energy.
    """
    base = small_cloud_server(n_cores=n_cores, name=name)
    platform = base.platform.to_dict()
    platform.update(
        s3_entry_latency_s=2.0,
        s3_exit_latency_s=15.0,
        wake_w=110.0,
        s3_w=2.0,
    )
    return ServerConfig.from_dict({**base.to_dict(), "platform": platform})


def validation_cpu_profile() -> ServerConfig:
    """A profile whose *CPU package* power matches the Fig. 12 trace range.

    The paper's validation measures RAPL package power (roughly 5 W idle to
    27 W fully loaded on the 10-core machine); this profile reproduces that
    range so the server-validation experiment compares like with like.
    """
    return ServerConfig(
        name="xeon-e5-2680-rapl",
        n_sockets=1,
        processor=ProcessorConfig(
            n_cores=10,
            frequency_ghz=2.8,
            nominal_frequency_ghz=2.8,
            core_profile=CorePowerProfile(
                active_w=2.2, c1_w=0.5, c6_w=0.05, c6_exit_latency_s=1e-4
            ),
            package_profile=PackagePowerProfile(pc0_w=5.0, pc6_w=4.3),
        ),
        platform=PlatformPowerProfile(),
    )


def cisco_2960_switch(name: str = "cisco-ws-c2960-24-s") -> SwitchConfig:
    """The Cisco WS-C2960-24-S profile from the switch validation (§V-B)."""
    return SwitchConfig(
        name=name,
        n_linecards=1,
        ports_per_linecard=24,
        chassis_base_w=14.7,
        port_profile=PortPowerProfile(active_w=0.23, lpi_w=0.023),
        linecard_profile=LineCardPowerProfile(active_w=0.0, sleep_w=0.0),
    )


def datacenter_switch(
    n_linecards: int = 2,
    ports_per_linecard: int = 8,
    rate_bps: float = 1e9,
    name: str = "dc-switch",
) -> SwitchConfig:
    """A modular data center switch with sleep-capable line cards (§IV-D)."""
    return SwitchConfig(
        name=name,
        n_linecards=n_linecards,
        ports_per_linecard=ports_per_linecard,
        chassis_base_w=30.0,
        sleep_w=2.5,
        wake_latency_s=1.0,
        port_profile=PortPowerProfile(active_w=0.9, lpi_w=0.09),
        linecard_profile=LineCardPowerProfile(active_w=12.0, sleep_w=1.5),
    )
