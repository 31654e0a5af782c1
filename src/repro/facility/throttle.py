"""Thermal throttling: the feedback loop from zone temperature to DVFS.

When a zone's temperature crosses its thermal limit, every server in the
zone has its processor frequency capped (stepped down immediately, and —
when a :class:`~repro.power.dvfs.DvfsGovernor` governs the zone — held down
via :meth:`~repro.power.dvfs.DvfsGovernor.set_frequency_cap` so the
governor cannot ramp back up while hot).  The cap is released only after the
zone cools below ``limit_c − hysteresis_k``, giving the engage/release pair
a deadband so the loop cannot chatter around the limit.

Capping frequency lowers CPU power (``(f/f_nom)**dvfs_exponent`` in the core
power model) which lowers the zone's thermal steady state — and lengthens
compute-bound task execution (``Core.execution_time`` scales with the
frequency ratio).  This is the energy ↔ latency ↔ temperature interaction
the facility experiment measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.config import ConfigMixin

if TYPE_CHECKING:  # pragma: no cover
    from repro.power.dvfs import DvfsGovernor
    from repro.server.server import Server

__all__ = ["ThrottleConfig", "ThermalThrottle"]


@dataclass(frozen=True)
class ThrottleConfig(ConfigMixin):
    """Engage/release policy for one zone's thermal throttle."""

    enabled: bool = True
    limit_c: float = 45.0
    hysteresis_k: float = 3.0
    #: Frequency ceiling while engaged; ``None`` drops to each processor's
    #: lowest P-state.  Values between ladder rungs cap at the highest rung
    #: at or below the ceiling.
    throttle_frequency_ghz: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.limit_c):
            raise ValueError(f"throttle limit must be finite, got {self.limit_c}")
        if not 0 <= self.hysteresis_k < math.inf:
            raise ValueError(f"hysteresis must be finite and >= 0, got {self.hysteresis_k}")
        if (self.throttle_frequency_ghz is not None
                and not 0 < self.throttle_frequency_ghz < math.inf):
            raise ValueError(
                f"throttle_frequency_ghz must be None or finite and positive, "
                f"got {self.throttle_frequency_ghz}"
            )

    @property
    def release_c(self) -> float:
        return self.limit_c - self.hysteresis_k


class ThermalThrottle:
    """Hysteretic over-temperature throttle for one zone's servers."""

    def __init__(
        self,
        zone_name: str,
        servers: Sequence["Server"],
        config: ThrottleConfig,
        governor: Optional["DvfsGovernor"] = None,
    ):
        self.zone_name = zone_name
        self.servers = list(servers)
        self.config = config
        self.governor = governor
        self.engaged = False
        self.engagements = 0
        self.releases = 0
        self._throttled_s = 0.0
        self._engaged_at: Optional[float] = None
        self._saved_frequencies: Dict[int, List[float]] = {}

    # ------------------------------------------------------------------
    def update(self, temp_c: float, now: float) -> Optional[str]:
        """Apply the hysteresis law; returns ``"engage"``/``"release"``/None."""
        if not self.engaged and temp_c >= self.config.limit_c:
            self._engage(now)
            return "engage"
        if self.engaged and temp_c <= self.config.release_c:
            self._release(now)
            return "release"
        return None

    def throttled_time_s(self, now: float) -> float:
        """Cumulative seconds spent engaged, including any open interval."""
        open_s = (now - self._engaged_at) if self._engaged_at is not None else 0.0
        return self._throttled_s + open_s

    # ------------------------------------------------------------------
    def _cap_for(self, processor) -> float:
        """The highest allowed rung for one processor while engaged."""
        ladder = sorted(processor.config.available_frequencies_ghz)
        ceiling = self.config.throttle_frequency_ghz
        if ceiling is None:
            return ladder[0]
        allowed = [f for f in ladder if f <= ceiling]
        return allowed[-1] if allowed else ladder[0]

    def _engage(self, now: float) -> None:
        self.engaged = True
        self.engagements += 1
        self._engaged_at = now
        for server in self.servers:
            saved = []
            cap = None
            for processor in server.processors:
                saved.append(processor.frequency_ghz)
                rung = self._cap_for(processor)
                cap = rung if cap is None else min(cap, rung)
                if processor.frequency_ghz > rung:
                    processor.set_frequency(rung)
            self._saved_frequencies[server.server_id] = saved
            if self.governor is not None and cap is not None:
                self.governor.set_frequency_cap(server, cap)

    def _release(self, now: float) -> None:
        self.engaged = False
        self.releases += 1
        if self._engaged_at is not None:
            self._throttled_s += now - self._engaged_at
            self._engaged_at = None
        for server in self.servers:
            if self.governor is not None:
                # The governor ramps back on demand once the cap is lifted.
                self.governor.clear_frequency_cap(server)
                continue
            saved = self._saved_frequencies.get(server.server_id)
            if saved:
                for processor, frequency in zip(server.processors, saved):
                    if processor.frequency_ghz != frequency:
                        processor.set_frequency(frequency)
        self._saved_frequencies.clear()
