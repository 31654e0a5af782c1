"""Switches, line cards and ports with hierarchical power states.

Mirrors the paper's switch model (Fig. 3): a switch contains several line
cards; each line card has packet-processing hardware, packet buffers, a power
state controller, and a set of ports.  Power states:

* port — active / LPI (IEEE 802.3az Low Power Idle) / off;
* line card — active / sleep / off;
* switch — on / (entering) sleep / waking, for network-aware policies that
  park entire switches.

The default controllers follow §III-F: a port drops to LPI once its queue
has been empty for the LPI timer; a line card sleeps once all of its ports
have been idle for the sleep timer; waking charges the configured exit
latencies to the traffic that caused the wake.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.core.config import SwitchConfig
from repro.core.engine import Engine, EventHandle
from repro.core.stats import EnergyAccount, StateTracker
from repro.telemetry import session as telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.network.link import Link


class PortState(enum.Enum):
    ACTIVE = "active"
    LPI = "lpi"
    OFF = "off"


class LineCardState(enum.Enum):
    ACTIVE = "active"
    SLEEP = "sleep"
    OFF = "off"


class SwitchState(enum.Enum):
    ON = "on"
    SLEEP = "sleep"
    WAKING = "waking"
    FAILED = "failed"


class Port:
    """One switch port; its activity is driven by the attached link."""

    def __init__(self, linecard: "LineCard", index: int):
        self.linecard = linecard
        self.index = index
        self.engine: Engine = linecard.engine
        self.profile = linecard.switch.config.port_profile
        self.state = PortState.LPI  # quiescent until traffic appears
        self.tracker = StateTracker(self.state.value, self.engine.now)
        self.energy = EnergyAccount(f"{self}", self._state_power(), self.engine.now)
        self.link: Optional["Link"] = None
        self._active_users = 0
        self._lpi_timer: Optional[EventHandle] = None
        # Latest instant a user ended while others were still active.  When a
        # *batched* end (``quiet_since``) later brings the count to zero, the
        # true quiet instant is the max of the batch's window end and this
        # candidate — exact even when full-duplex traffic interleaved with a
        # packet-train window held open across the interleaving.
        self._quiet_candidate: Optional[float] = None
        # Rate scaling factor set by adaptive link rate (1.0 = full rate).
        self.rate_factor = 1.0

    # ------------------------------------------------------------------
    def begin_activity(self) -> float:
        """Traffic starts using this port; returns the wake latency to charge.

        A sleeping line card wakes with the port and adds its exit latency.
        """
        card = self.linecard
        self._active_users += 1
        if self._active_users == 1:
            card._busy_ports += 1
        if self._lpi_timer is not None:
            self._cancel_lpi_timer()
        wake = 0.0
        if self.state is not PortState.ACTIVE:
            if self.state is PortState.LPI:
                wake = self.profile.lpi_exit_latency_s
            self._set_state(PortState.ACTIVE)
        if card._sleep_timer is not None:
            card._cancel_sleep_timer()
        if card.state is LineCardState.SLEEP:
            card._set_state(LineCardState.ACTIVE)
            wake += card.profile.sleep_exit_latency_s
        return wake

    def end_activity(self, quiet_since: Optional[float] = None) -> None:
        """One unit of traffic stopped using this port.

        ``quiet_since`` lets a batched caller settle an ``end`` that
        logically happened earlier: the LPI timer is armed at the absolute
        deadline ``quiet_since + lpi_timer_s``, exactly where a live call
        at ``quiet_since`` would have put it.
        """
        if self._active_users <= 0:
            raise RuntimeError(f"{self} has no active users to end")
        self._active_users -= 1
        basis = self.engine.now if quiet_since is None else quiet_since
        if self._active_users == 0:
            self.linecard._busy_ports -= 1
            if self._quiet_candidate is not None and self._quiet_candidate > basis:
                basis = self._quiet_candidate
            self._quiet_candidate = None
            self._arm_lpi_timer_at(basis + self.profile.lpi_timer_s)
        elif self._quiet_candidate is None or basis > self._quiet_candidate:
            self._quiet_candidate = basis

    @property
    def busy(self) -> bool:
        return self._active_users > 0

    def power_off(self) -> None:
        """Hard-off an unused port (configuration-time decision)."""
        if self.busy:
            raise RuntimeError(f"cannot power off busy {self}")
        self._cancel_lpi_timer()
        self._set_state(PortState.OFF)

    # ------------------------------------------------------------------
    def _arm_lpi_timer_at(self, deadline: float) -> None:
        self._cancel_lpi_timer()
        self._lpi_timer = self.engine.schedule_at(deadline, self._enter_lpi)

    def _cancel_lpi_timer(self) -> None:
        if self._lpi_timer is not None and self._lpi_timer.pending:
            self._lpi_timer.cancel()
        self._lpi_timer = None

    def _enter_lpi(self) -> None:
        self._lpi_timer = None
        if self._active_users == 0 and self.state is PortState.ACTIVE:
            self._set_state(PortState.LPI)
            self.linecard.note_port_quiet()

    def _set_state(self, state: PortState) -> None:
        if state is self.state:
            return
        self.state = state
        now = self.engine.now
        self.tracker.set_state(state.value, now)
        self.energy.set_power(self._state_power(), now)

    def _state_power(self) -> float:
        if self.state is PortState.OFF:
            return self.profile.off_w
        if self.state is PortState.LPI:
            return self.profile.lpi_w
        # Active power scales with the adapted link rate (ALR, §III-B):
        # a port running at a lower rate burns proportionally less.
        return self.profile.lpi_w + (self.profile.active_w - self.profile.lpi_w) * self.rate_factor

    def set_rate_factor(self, factor: float) -> None:
        """Adaptive link rate changed; refresh active power accordingly."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"rate factor {factor} outside (0, 1]")
        self.rate_factor = factor
        self.energy.set_power(self._state_power(), self.engine.now)

    def power_w(self) -> float:
        return self._state_power()

    def __repr__(self) -> str:
        return f"<Port {self.linecard.switch.name}/lc{self.linecard.index}/p{self.index}>"


class LineCard:
    """A line card: packet-processing hardware plus a group of ports."""

    def __init__(self, switch: "Switch", index: int, n_ports: int):
        self.switch = switch
        self.index = index
        self.engine: Engine = switch.engine
        self.profile = switch.config.linecard_profile
        self.state = LineCardState.ACTIVE
        self.tracker = StateTracker(self.state.value, self.engine.now)
        self.energy = EnergyAccount(f"{self}", self.profile.active_w, self.engine.now)
        # Count of ports with active users, maintained by the ports
        # themselves, so quiet checks are O(1) instead of scanning ports.
        # A port's ``begin_activity`` also cancels this card's sleep timer
        # and wakes it from SLEEP.
        self._busy_ports = 0
        self.ports: List[Port] = [Port(self, i) for i in range(n_ports)]
        self._sleep_timer: Optional[EventHandle] = None
        # Newly built line cards are idle; start the race to sleep.
        self._arm_sleep_timer()

    # ------------------------------------------------------------------
    def note_port_quiet(self) -> None:
        """A port went quiet; if all are quiet, start the sleep timer."""
        if self._busy_ports == 0:
            self._arm_sleep_timer()

    @property
    def all_ports_quiet(self) -> bool:
        return self._busy_ports == 0

    # ------------------------------------------------------------------
    def _arm_sleep_timer(self) -> None:
        if self.profile.sleep_timer_s is None:
            return
        self._cancel_sleep_timer()
        self._sleep_timer = self.engine.schedule(self.profile.sleep_timer_s, self._enter_sleep)

    def _cancel_sleep_timer(self) -> None:
        if self._sleep_timer is not None and self._sleep_timer.pending:
            self._sleep_timer.cancel()
        self._sleep_timer = None

    def _enter_sleep(self) -> None:
        self._sleep_timer = None
        if self.all_ports_quiet and self.state is LineCardState.ACTIVE:
            self._set_state(LineCardState.SLEEP)

    def _set_state(self, state: LineCardState) -> None:
        if state is self.state:
            return
        self.state = state
        now = self.engine.now
        self.tracker.set_state(state.value, now)
        self.energy.set_power(self._state_power(), now)

    def _state_power(self) -> float:
        if self.state is LineCardState.OFF:
            return self.profile.off_w
        if self.state is LineCardState.SLEEP:
            return self.profile.sleep_w
        return self.profile.active_w

    def power_w(self) -> float:
        """Line-card power including its ports."""
        return self._state_power() + sum(p.power_w() for p in self.ports)

    def energy_j(self, now: Optional[float] = None) -> float:
        t = self.engine.now if now is None else now
        return self.energy.energy_j(t) + sum(p.energy.energy_j(t) for p in self.ports)

    def __repr__(self) -> str:
        return f"<LineCard {self.switch.name}/lc{self.index} {self.state.value}>"


class Switch:
    """A network switch with chassis, line cards, ports, and sleep support."""

    def __init__(
        self,
        engine: Engine,
        config: SwitchConfig,
        name: Optional[str] = None,
        n_ports: Optional[int] = None,
    ):
        self.engine = engine
        self.config = config
        self.name = name or config.name
        total_ports = n_ports if n_ports is not None else config.total_ports
        if total_ports <= 0:
            raise ValueError(f"switch needs at least one port, got {total_ports}")
        per_card = config.ports_per_linecard
        n_cards = (total_ports + per_card - 1) // per_card
        self.state = SwitchState.ON
        self._state_since = engine.now
        self.tracker = StateTracker(self.state.value, engine.now)
        self.chassis_energy = EnergyAccount(f"{self.name}/chassis", config.chassis_base_w, engine.now)
        self.linecards: List[LineCard] = []
        remaining = total_ports
        for i in range(n_cards):
            ports = min(per_card, remaining)
            self.linecards.append(LineCard(self, i, ports))
            remaining -= ports
        self._next_free_port = 0
        self._wake_event: Optional[EventHandle] = None
        self._wake_waiters: List[Callable[[], None]] = []
        self.wake_count = 0
        self.failure_count = 0
        self.repair_count = 0

    # ------------------------------------------------------------------
    # Port allocation (used by topology builders)
    # ------------------------------------------------------------------
    @property
    def ports(self) -> List[Port]:
        return [p for lc in self.linecards for p in lc.ports]

    def allocate_port(self) -> Port:
        """Hand out the next unused port; topology builders call this once
        per incident link."""
        ports = self.ports
        if self._next_free_port >= len(ports):
            raise RuntimeError(f"{self.name} is out of ports ({len(ports)} total)")
        port = ports[self._next_free_port]
        self._next_free_port += 1
        return port

    # ------------------------------------------------------------------
    # Switch-level sleep (driven by network-aware policies, §IV-D)
    # ------------------------------------------------------------------
    @property
    def is_on(self) -> bool:
        return self.state is SwitchState.ON

    def sleep(self) -> bool:
        """Park the whole switch; refuses while any port carries traffic."""
        if self.state is not SwitchState.ON:
            return False
        if any(lc._busy_ports for lc in self.linecards):
            return False
        # Power down the hierarchy so per-component energy accounts stop.
        for lc in self.linecards:
            lc._cancel_sleep_timer()
            lc._set_state(LineCardState.OFF)
            for port in lc.ports:
                port._cancel_lpi_timer()
                port._set_state(PortState.OFF)
        self._set_state(SwitchState.SLEEP)
        return True

    def fail(self) -> bool:
        """Crash the switch: all line cards and ports go dark, power drops to
        zero, and any in-flight wake is aborted.  Waiters registered through
        :meth:`request_wake` are dropped — the flow layer re-routes the
        traffic that was waiting (see ``FlowNetwork.reroute_around_failures``).
        Returns False if the switch had already failed.
        """
        if self.state is SwitchState.FAILED:
            return False
        if self._wake_event is not None and self._wake_event.pending:
            self._wake_event.cancel()
        self._wake_event = None
        self._wake_waiters = []
        for lc in self.linecards:
            lc._cancel_sleep_timer()
            lc._set_state(LineCardState.OFF)
            for port in lc.ports:
                port._cancel_lpi_timer()
                port._set_state(PortState.OFF)
        self.failure_count += 1
        self._set_state(SwitchState.FAILED)
        return True

    def repair(self) -> bool:
        """Return a failed switch to ON with all ports quiescent (LPI)."""
        if self.state is not SwitchState.FAILED:
            return False
        self.repair_count += 1
        for lc in self.linecards:
            lc._set_state(LineCardState.ACTIVE)
            for port in lc.ports:
                port._set_state(PortState.LPI)
            lc._arm_sleep_timer()
        self._set_state(SwitchState.ON)
        return True

    def request_wake(self, on_ready: Optional[Callable[[], None]] = None) -> float:
        """Wake a sleeping switch; returns the remaining time until ready.

        ``on_ready`` (if given) fires when the switch reaches ON.  Calling on
        an already-on switch returns 0 and fires immediately.
        """
        if self.state is SwitchState.FAILED:
            raise RuntimeError(f"cannot wake failed switch {self.name}")
        if self.state is SwitchState.ON:
            if on_ready is not None:
                on_ready()
            return 0.0
        if on_ready is not None:
            self._wake_waiters.append(on_ready)
        if self.state is SwitchState.SLEEP:
            self.wake_count += 1
            self._set_state(SwitchState.WAKING)
            self._wake_event = self.engine.schedule(
                self.config.wake_latency_s, self._wake_complete
            )
            return self.config.wake_latency_s
        # WAKING: report remaining time on the in-flight transition.
        assert self._wake_event is not None
        return max(0.0, self._wake_event.time - self.engine.now)

    def _wake_complete(self) -> None:
        self._wake_event = None
        for lc in self.linecards:
            lc._set_state(LineCardState.ACTIVE)
            for port in lc.ports:
                port._set_state(PortState.LPI)
            lc._arm_sleep_timer()
        self._set_state(SwitchState.ON)
        waiters, self._wake_waiters = self._wake_waiters, []
        for callback in waiters:
            callback()

    def _set_state(self, state: SwitchState) -> None:
        if state is self.state:
            return
        now = self.engine.now
        ts = telemetry.ACTIVE
        if ts is not None and ts.power is not None:
            # Close the span for the state we are leaving.
            ts.power.complete(
                "power", self.state.value, f"switch/{self.name}",
                self._state_since, now - self._state_since,
            )
        self._state_since = now
        self.state = state
        self.tracker.set_state(state.value, now)
        self.chassis_energy.set_power(self._chassis_power(), now)

    def _chassis_power(self) -> float:
        if self.state is SwitchState.FAILED:
            return 0.0
        if self.state is SwitchState.SLEEP:
            return self.config.sleep_w
        # WAKING draws full chassis power while components come up.
        return self.config.chassis_base_w

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def power_w(self) -> float:
        """Instantaneous switch power: chassis + line cards + ports."""
        if self.state is SwitchState.FAILED:
            return 0.0
        if self.state is SwitchState.SLEEP:
            return self.config.sleep_w
        return self._chassis_power() + sum(lc.power_w() for lc in self.linecards)

    def energy_j(self, now: Optional[float] = None) -> float:
        """Total switch energy (chassis + line cards + ports) up to ``now``."""
        t = self.engine.now if now is None else now
        return self.chassis_energy.energy_j(t) + sum(lc.energy_j(t) for lc in self.linecards)

    def active_port_count(self) -> int:
        return sum(1 for p in self.ports if p.state is PortState.ACTIVE)

    def energy_breakdown_j(self, now: Optional[float] = None) -> Dict[str, float]:
        """Energy up to ``now`` per component: chassis, line cards, ports."""
        t = self.engine.now if now is None else now
        return {
            "chassis": self.chassis_energy.energy_j(t),
            "linecards": sum(lc.energy.energy_j(t) for lc in self.linecards),
            "ports": sum(p.energy.energy_j(t) for p in self.ports),
        }

    def register_metrics(self, registry, prefix: str = "switch.") -> None:
        """Register power, energy and active ports under ``switch.*`` (lazy
        sources)."""
        registry.register_gauge(f"{prefix}power_w", self.power_w)
        registry.register_gauge(f"{prefix}active_ports", self.active_port_count)
        for component in ("chassis", "linecards", "ports"):
            registry.register_gauge(
                f"{prefix}energy_j.{component}",
                (lambda c=component: self.energy_breakdown_j()[c]),
            )
        registry.register_gauge(f"{prefix}energy_j.total", self.energy_j)

    def __repr__(self) -> str:
        return f"<Switch {self.name} {self.state.value} ports={len(self.ports)}>"
