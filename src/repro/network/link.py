"""Network links: capacity, propagation delay, adaptive link rate.

A link joins two topology nodes (server or switch).  Each direction has the
full configured capacity (full-duplex).  Links know about the switch ports
they terminate on so traffic can drive port/line-card power states, and they
implement dynamic link rate adaptation (ALR, Gunaratne et al.): when demand
is low the link steps down to the smallest configured rate that still covers
demand, which proportionally reduces active port power.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.config import LinkConfig
from repro.network.switch import LineCardState, Port, PortState


class Link:
    """An undirected, full-duplex link between two topology nodes."""

    def __init__(self, u: str, v: str, config: LinkConfig):
        if u == v:
            raise ValueError(f"link endpoints must differ, got {u!r} twice")
        self.u = u
        self.v = v
        self.config = config
        self.current_rate_bps = config.rate_bps
        # The highest rate adapt_rate() can select.
        rates = config.adaptive_rates_bps
        self.peak_rate_bps = min(max(rates), config.rate_bps) if rates else config.rate_bps
        # Ports indexed by the node the port belongs to (switch endpoints only).
        self.ports: Dict[str, Port] = {}
        # The same ports in attach order, for the per-transmission loops.
        self._ports: Tuple[Port, ...] = ()
        # Independent per-direction counters of active users (flows/packets).
        self._active: Dict[Tuple[str, str], int] = {
            (u, v): 0,
            (v, u): 0,
        }

    # ------------------------------------------------------------------
    @property
    def propagation_delay_s(self) -> float:
        return self.config.propagation_delay_s

    def attach_port(self, node: str, port: Port) -> None:
        """Bind the switch-side port terminating this link at ``node``."""
        if node not in (self.u, self.v):
            raise ValueError(f"{node!r} is not an endpoint of {self}")
        if node in self.ports:
            raise ValueError(f"{self} already has a port at {node!r}")
        self.ports[node] = port
        self._ports += (port,)
        port.link = self

    # ------------------------------------------------------------------
    # Activity tracking (drives port/line-card power states)
    # ------------------------------------------------------------------
    def begin_activity(self, src: str, dst: str) -> float:
        """Traffic begins traversing ``src -> dst``; returns wake latency."""
        self._active[(src, dst)] += 1
        wake = 0.0
        for port in self._ports:
            port_wake = port.begin_activity()
            if port_wake > wake:
                wake = port_wake
        return wake

    def end_activity(self, src: str, dst: str, quiet_since: Optional[float] = None) -> None:
        """Traffic stopped traversing ``src -> dst``.

        ``quiet_since`` settles a batched end that logically happened at an
        earlier instant (see :meth:`Port.end_activity`).
        """
        key = (src, dst)
        if self._active[key] <= 0:
            raise RuntimeError(f"no active traffic on {self} {key}")
        self._active[key] -= 1
        for port in self._ports:
            port.end_activity(quiet_since)

    def awake(self) -> bool:
        """True when ending and re-beginning activity now would change nothing.

        That holds while every port on the link and its line card is ACTIVE
        and no line card has a sleep timer pending: a begin then charges no
        wake latency and changes no state, and the LPI timer an end arms is
        cancelled by the begin that follows it.  The per-packet path keeps a
        busy queue's activity open across back-to-back packets only then.
        """
        for port in self._ports:
            if port.state is not PortState.ACTIVE:
                return False
            card = port.linecard
            if card.state is not LineCardState.ACTIVE or card._sleep_timer is not None:
                return False
        return True

    def active_count(self, src: str, dst: str) -> int:
        return self._active[(src, dst)]

    # ------------------------------------------------------------------
    # Adaptive link rate (ALR)
    # ------------------------------------------------------------------
    def adapt_rate(self, demanded_bps: float) -> float:
        """Step to the smallest configured rate covering ``demanded_bps``.

        Returns the selected rate.  Links without ``adaptive_rates_bps`` stay
        at full rate.  Active port power is scaled by ``rate / full_rate``.
        """
        rates = self.config.adaptive_rates_bps
        if not rates:
            return self.current_rate_bps
        candidates = [r for r in sorted(rates) if r >= demanded_bps]
        selected = candidates[0] if candidates else max(rates)
        selected = min(selected, self.config.rate_bps)
        if selected != self.current_rate_bps:
            self.current_rate_bps = selected
            factor = selected / self.config.rate_bps
            for port in self._ports:
                port.set_rate_factor(factor)
        return self.current_rate_bps

    def __repr__(self) -> str:
        return f"<Link {self.u}<->{self.v} {self.current_rate_bps/1e9:g}Gbps>"
