"""Dual delay timer policy (§IV-B, after Yao et al., CloudCom'15).

Instead of a single τ for every server, servers are split into two pools:

* a **high-τ pool** prioritised to receive incoming work — these servers
  rarely sleep, so they serve requests without wake latency;
* a **low-τ pool** whose servers drop into system sleep almost immediately
  after draining, capturing deep-sleep savings during lulls.

The policy therefore needs two pieces: per-pool delay-timer controllers
(this class) and a dispatch preference that fills the high-τ pool first
(:class:`repro.scheduling.policies.PackingPolicy` over the server order this
class establishes).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.core.engine import Engine
from repro.power.controller import DelayTimerController, check_tau

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server


class DualDelayTimerPolicy:
    """Configure a farm with a high-τ serving pool and a low-τ sleeping pool."""

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        high_pool_size: int,
        tau_high_s: float,
        tau_low_s: float,
        sleep_level: str = "s3",
    ):
        if not 0 < high_pool_size <= len(servers):
            raise ValueError(
                f"high_pool_size {high_pool_size} outside 1..{len(servers)}"
            )
        check_tau(tau_high_s)
        check_tau(tau_low_s)
        self.engine = engine
        self.servers = list(servers)
        self.high_pool: List["Server"] = self.servers[:high_pool_size]
        self.low_pool: List["Server"] = self.servers[high_pool_size:]
        self._dispatch_order = self.high_pool + self.low_pool
        self.tau_high_s = tau_high_s
        self.tau_low_s = tau_low_s
        self.high_controller = DelayTimerController(engine, tau_high_s, sleep_level)
        self.low_controller = DelayTimerController(engine, tau_low_s, sleep_level)
        for server in self.high_pool:
            server.tags["pool"] = "high-tau"
            server.attach_controller(self.high_controller)
        for server in self.low_pool:
            server.tags["pool"] = "low-tau"
            server.attach_controller(self.low_controller)

    def dispatch_order(self) -> List["Server"]:
        """Server priority order for the packing dispatcher: high-τ pool
        first.  The pools are fixed, so this is one list; callers must not
        mutate it."""
        return self._dispatch_order
