"""The facility plant: zones + cooling + signals on one engine tick.

:class:`Facility` co-simulates the physical plant alongside the IT
simulation.  It partitions the farm's servers into thermal zones and runs a
fixed-period tick on the discrete-event engine; every tick it

1. **advances physics** over the elapsed interval — each zone's RC state
   moves under the IT power declared at the interval's start (exact
   exponential update, see :mod:`repro.facility.thermal`), and carbon/cost
   totals accrue ``P_facility × ∫signal`` (exact, because facility power is
   piecewise-constant between ticks);
2. **re-samples** live IT power from the servers (``server.power_w``, the
   same integrators the energy audits check), recomputes cooling power from
   the extracted heat at the current COP and the affine overhead, and
   declares the new powers into per-component
   :class:`~repro.core.stats.EnergyAccount`\\ s — so *facility energy =
   ∫ facility power* holds by construction and is audited the same way
   server energy is;
3. runs each zone's **thermal throttle** (hysteretic DVFS cap, see
   :mod:`repro.facility.throttle`) and emits ``facility``-category trace
   counters/instants under the PR-5 null-guard pattern (zero cost with
   telemetry off or the category filtered).

The tick is scheduled with :meth:`Engine.schedule` so :meth:`Facility.stop`
can cancel the pending event; pass ``until`` to :meth:`start` when the run
drains via ``engine.run(until=None)`` (an unbounded tick chain would keep
the queue non-empty forever).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.core.config import ConfigMixin
from repro.core.engine import Engine
from repro.core.stats import EnergyAccount, TimeSeries
from repro.facility.cooling import CoolingConfig, CoolingModel
from repro.facility.signals import Signal
from repro.facility.thermal import ThermalConfig, ThermalZone
from repro.facility.throttle import ThermalThrottle, ThrottleConfig
from repro.telemetry import session as telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.power.dvfs import DvfsGovernor
    from repro.server.server import Server

__all__ = ["FacilityConfig", "FacilityZone", "Facility"]


@dataclass(frozen=True)
class FacilityConfig(ConfigMixin):
    """Everything the facility layer needs, JSON round-trippable."""

    enabled: bool = True
    tick_s: float = 1.0
    setpoint_c: float = 22.0
    n_zones: int = 1
    #: Constant outside temperature used when no weather signal is attached.
    outside_temp_c: float = 20.0
    thermal: ThermalConfig = ThermalConfig()
    cooling: CoolingConfig = CoolingConfig()
    throttle: ThrottleConfig = ThrottleConfig()

    def __post_init__(self) -> None:
        if self.tick_s <= 0:
            raise ValueError(f"facility tick must be positive, got {self.tick_s}")
        if self.n_zones < 1:
            raise ValueError(f"need at least one zone, got {self.n_zones}")


class FacilityZone:
    """One thermal zone: a contiguous slice of servers plus its RC state."""

    def __init__(
        self,
        name: str,
        servers: Sequence["Server"],
        thermal: ThermalZone,
        throttle: Optional[ThermalThrottle],
    ):
        self.name = name
        self.servers = list(servers)
        self.thermal = thermal
        self.throttle = throttle
        self.temp_series = TimeSeries(f"{name}.temp_c")
        #: IT power in effect over the current tick interval (W).
        self.declared_it_w = 0.0

    def it_power_w(self) -> float:
        """Live IT power of the zone's servers (same source as the audits)."""
        return sum(server.power_w for server in self.servers)


def _partition(servers: Sequence["Server"], n_zones: int) -> List[List["Server"]]:
    """Contiguous near-equal slices; never more zones than servers."""
    n_zones = max(1, min(n_zones, len(servers)))
    base, extra = divmod(len(servers), n_zones)
    chunks: List[List["Server"]] = []
    cursor = 0
    for i in range(n_zones):
        size = base + (1 if i < extra else 0)
        chunks.append(list(servers[cursor:cursor + size]))
        cursor += size
    return chunks


def _as_signal(value: Union[Signal, float, None], name: str) -> Optional[Signal]:
    if value is None or isinstance(value, Signal):
        return value
    return Signal.constant(float(value), name=name)


class Facility:
    """Thermal/cooling/carbon/price co-simulation for one farm."""

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        config: Optional[FacilityConfig] = None,
        carbon: Union[Signal, float, None] = None,
        price: Union[Signal, float, None] = None,
        outside: Union[Signal, float, None] = None,
        governor: Optional["DvfsGovernor"] = None,
    ):
        if not servers:
            raise ValueError("facility needs at least one server")
        self.engine = engine
        self.config = config or FacilityConfig()
        self.carbon = _as_signal(carbon, "carbon")
        self.price = _as_signal(price, "price")
        self.outside = (
            _as_signal(outside, "outside")
            or Signal.constant(self.config.outside_temp_c, name="outside")
        )
        self.governor = governor
        self.cooling = CoolingModel(self.config.cooling)

        self.zones: List[FacilityZone] = []
        for i, chunk in enumerate(_partition(servers, self.config.n_zones)):
            name = f"zone{i}"
            thermal = ThermalZone(self.config.thermal, self.config.setpoint_c)
            throttle = None
            if self.config.throttle.enabled:
                throttle = ThermalThrottle(
                    name, chunk, self.config.throttle, governor=governor
                )
            self.zones.append(FacilityZone(name, chunk, thermal, throttle))

        now = engine.now
        self.it_energy = EnergyAccount("it", 0.0, now)
        self.cooling_energy = EnergyAccount("cooling", 0.0, now)
        self.overhead_energy = EnergyAccount("overhead", 0.0, now)
        self.pue_series = TimeSeries("facility.pue")
        self.power_series = TimeSeries("facility.power_w")
        self.gco2_g = 0.0
        self.cost_usd = 0.0
        self.ticks = 0
        self._declared_w = 0.0
        self._last_t = now
        self._until: Optional[float] = None
        self._handle = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, until: Optional[float] = None) -> None:
        """Begin ticking; ``until`` bounds the tick chain (see module doc).

        When a telemetry session is active, the facility registers its
        metrics into the session registry here, as the run opens, so a run
        that stops early still exports them: under ``facility.*``, then
        ``facility1.*`` for a second facility in the session (see
        :meth:`~repro.telemetry.metrics.MetricsRegistry.namespace`).
        """
        if self._running:
            return
        self._running = True
        self._until = until
        ts = telemetry.ACTIVE
        if ts is not None and ts.metrics is not None:
            self.register_metrics(ts.metrics, prefix=ts.metrics.namespace("facility"))
        self._declare(self.engine.now)
        self._schedule_next()

    def stop(self, now: Optional[float] = None) -> None:
        """Cancel the pending tick and close all open integrals at ``now``."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if not self._running:
            return
        self._running = False
        t = self.engine.now if now is None else now
        if t > self._last_t:
            self._step(t)

    @property
    def running(self) -> bool:
        return self._running

    def _schedule_next(self) -> None:
        next_t = self.engine.now + self.config.tick_s
        if self._until is not None and next_t > self._until + 1e-12:
            return
        self._handle = self.engine.schedule(self.config.tick_s, self._tick)

    def _tick(self) -> None:
        self._handle = None
        self._step(self.engine.now)
        self._schedule_next()

    # ------------------------------------------------------------------
    # Physics
    # ------------------------------------------------------------------
    def _step(self, now: float) -> None:
        """Advance the elapsed interval, then re-declare powers at ``now``."""
        dt = now - self._last_t
        if dt > 0:
            scale = self._declared_w / 3.6e6  # W × (per-kWh × s) → total
            if self.carbon is not None:
                self.gco2_g += scale * self.carbon.integrate(self._last_t, now)
            if self.price is not None:
                self.cost_usd += scale * self.price.integrate(self._last_t, now)
            for zone in self.zones:
                zone.thermal.advance(dt, zone.declared_it_w)
        self._last_t = now
        self._declare(now)
        self.ticks += 1

    def _declare(self, now: float) -> None:
        """Sample IT power, run throttles, declare powers for the next interval."""
        ts = telemetry.ACTIVE
        recorder = ts.facility if ts is not None else None

        outside_c = self.outside.value(now)
        total_it = 0.0
        total_heat = 0.0
        for zone in self.zones:
            temp_c = zone.thermal.temp_c
            transition = None
            if zone.throttle is not None:
                transition = zone.throttle.update(temp_c, now)
            # Sample *after* the throttle acted so a fresh cap's lower power
            # is what the next interval integrates.
            p_it = zone.it_power_w()
            zone.declared_it_w = p_it
            total_it += p_it
            total_heat += zone.thermal.extraction_w()
            zone.temp_series.append(now, temp_c)
            if recorder is not None:
                track = f"facility/{zone.name}"
                recorder.counter(
                    "facility", "zone", track, now,
                    {"temp_c": temp_c, "inlet_c": zone.thermal.inlet_c,
                     "it_w": p_it},
                )
                if transition is not None:
                    recorder.instant(
                        "facility", f"throttle-{transition}", track, now,
                        {"temp_c": temp_c},
                    )

        cooling_w = self.cooling.cooling_power_w(
            total_heat, self.config.setpoint_c, outside_c
        )
        overhead_w = self.cooling.overhead_power_w(total_it)
        self.it_energy.set_power(total_it, now)
        self.cooling_energy.set_power(cooling_w, now)
        self.overhead_energy.set_power(overhead_w, now)
        facility_w = total_it + cooling_w + overhead_w
        self._declared_w = facility_w
        self.power_series.append(now, facility_w)
        if total_it > 0:
            pue = CoolingModel.pue(total_it, cooling_w, overhead_w)
            self.pue_series.append(now, pue)
        if recorder is not None:
            recorder.counter(
                "facility", "plant", "facility/plant", now,
                {"power_w": facility_w, "cooling_w": cooling_w,
                 "it_w": total_it, "outside_c": outside_c},
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def energy_breakdown_j(self, now: Optional[float] = None) -> Dict[str, float]:
        t = self.engine.now if now is None else now
        return {
            "it": self.it_energy.energy_j(t),
            "cooling": self.cooling_energy.energy_j(t),
            "overhead": self.overhead_energy.energy_j(t),
        }

    def facility_energy_j(self, now: Optional[float] = None) -> float:
        return sum(self.energy_breakdown_j(now).values())

    def mean_pue(self) -> float:
        if not len(self.pue_series):
            return float("nan")
        return self.pue_series.mean()

    def peak_zone_temp_c(self) -> float:
        peaks = [
            max(zone.temp_series.values) if len(zone.temp_series)
            else zone.thermal.temp_c
            for zone in self.zones
        ]
        return max(peaks)

    def throttle_engagements(self) -> int:
        return sum(
            zone.throttle.engagements
            for zone in self.zones if zone.throttle is not None
        )

    def throttle_releases(self) -> int:
        return sum(
            zone.throttle.releases
            for zone in self.zones if zone.throttle is not None
        )

    def throttled_time_s(self, now: Optional[float] = None) -> float:
        t = self.engine.now if now is None else now
        return sum(
            zone.throttle.throttled_time_s(t)
            for zone in self.zones if zone.throttle is not None
        )

    def summary(self, now: Optional[float] = None) -> Dict[str, float]:
        """One JSON-serialisable dict with the run's facility outcomes."""
        t = self.engine.now if now is None else now
        breakdown = self.energy_breakdown_j(t)
        return {
            "ticks": self.ticks,
            "it_energy_j": breakdown["it"],
            "cooling_energy_j": breakdown["cooling"],
            "overhead_energy_j": breakdown["overhead"],
            "facility_energy_j": sum(breakdown.values()),
            "mean_pue": self.mean_pue(),
            "peak_zone_temp_c": self.peak_zone_temp_c(),
            "gco2_g": self.gco2_g,
            "cost_usd": self.cost_usd,
            "throttle_engagements": self.throttle_engagements(),
            "throttled_s": self.throttled_time_s(t),
        }

    def register_metrics(self, registry, prefix: str = "facility.") -> None:
        """Register facility state under ``facility.*`` (lazy sources)."""
        registry.register_counter(f"{prefix}ticks", lambda: self.ticks)
        registry.register_counter(
            f"{prefix}throttle_engagements", self.throttle_engagements
        )
        registry.register_counter(
            f"{prefix}throttle_releases", self.throttle_releases
        )
        registry.register_gauge(f"{prefix}power_w", lambda: self._declared_w)
        registry.register_gauge(f"{prefix}gco2_g", lambda: self.gco2_g)
        registry.register_gauge(f"{prefix}cost_usd", lambda: self.cost_usd)
        registry.register_gauge(f"{prefix}mean_pue", self.mean_pue)
        registry.register_gauge(
            f"{prefix}throttled_s", lambda: self.throttled_time_s()
        )
        for component in ("it", "cooling", "overhead"):
            registry.register_gauge(
                f"{prefix}energy_j.{component}",
                (lambda c=component: self.energy_breakdown_j()[c]),
            )
        registry.register_gauge(
            f"{prefix}energy_j.total", lambda: self.facility_energy_j()
        )
        registry.register_series(f"{prefix}pue_trajectory", self.pue_series)
        registry.register_series(f"{prefix}power_trajectory", self.power_series)
        for zone in self.zones:
            registry.register_series(
                f"{prefix}{zone.name}.temp_trajectory", zone.temp_series
            )
