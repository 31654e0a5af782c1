"""Dynamic resource provisioning (§IV-A).

The global scheduler predicts the load per server as it dispatches jobs.
Each deployment is configured with a minimum and maximum load-per-server
threshold: when current load per active server drops below the minimum, one
server is put aside (it drains, then enters low power); when it exceeds the
maximum, one parked server is reactivated.  Tracking the active-server count
over time (Fig. 4) tells operators how much capacity a workload really needs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.engine import Engine
from repro.core.stats import TimeSeries
from repro.power.controller import DelayTimerController

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server


class ProvisioningManager(DelayTimerController):
    """Threshold-based active-server provisioning with load monitoring."""

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        min_load_per_server: float,
        max_load_per_server: float,
        check_interval_s: float = 1.0,
        park_tau_s: float = 0.0,
        sleep_level: str = "s3",
    ):
        for name, load in (("min", min_load_per_server), ("max", max_load_per_server)):
            # NaN passes every comparison below and would switch parking off.
            if not 0 < load < math.inf:
                raise ValueError(f"{name} threshold must be finite and > 0, got {load}")
        if min_load_per_server >= max_load_per_server:
            raise ValueError(
                f"min threshold {min_load_per_server} must be below "
                f"max threshold {max_load_per_server}"
            )
        super().__init__(engine, tau_s=None, sleep_level=sleep_level)
        self.min_load = min_load_per_server
        self.max_load = max_load_per_server
        self.check_interval_s = check_interval_s
        self.park_tau_s = park_tau_s
        self.servers = list(servers)
        # Initially all servers are in the active state (§IV-A).
        self.active_servers: List["Server"] = list(servers)
        self.parked_servers: List["Server"] = []
        # eligible_servers()'s list, rebuilt after a park or an activation.
        self._eligible: Optional[List["Server"]] = None
        self.active_count_series = TimeSeries("active_servers")
        self._started = False
        for server in self.servers:
            server.attach_controller(self)
            server.tags["provisioning"] = "active"

    # ------------------------------------------------------------------
    def eligible_servers(self) -> List["Server"]:
        """Servers currently receiving dispatched work.

        The same list until a server is parked or activated; callers must
        not mutate it.
        """
        if self._eligible is None:
            self._eligible = list(self.active_servers)
        return self._eligible

    @property
    def active_server_count(self) -> int:
        return len(self.active_servers)

    def load_per_active_server(self) -> float:
        """Current pending tasks per active server (the predicted load)."""
        pending = sum(s.pending_task_count for s in self.servers)
        return pending / max(1, len(self.active_servers))

    def start(self) -> None:
        """Begin periodic threshold checks and active-count sampling."""
        if self._started:
            return
        self._started = True
        self.engine.post(self.check_interval_s, self._check)

    # ------------------------------------------------------------------
    def _check(self) -> None:
        load = self.load_per_active_server()
        if load < self.min_load and len(self.active_servers) > 1:
            self._park_one()
        elif load > self.max_load and self.parked_servers:
            self._activate_one()
        self.active_count_series.append(self.engine.now, float(len(self.active_servers)))
        self.engine.post(self.check_interval_s, self._check)

    def _park_one(self) -> None:
        server = min(self.active_servers, key=lambda s: (s.pending_task_count, s.server_id))
        self._eligible = None
        self.active_servers.remove(server)
        self.parked_servers.append(server)
        server.tags["provisioning"] = "parked"
        # "One server will be put aside after finishing its pending tasks":
        # the park timer arms once the server drains.
        self.set_tau(server, self.park_tau_s)

    def _activate_one(self) -> None:
        awake = [s for s in self.parked_servers if s.can_execute]
        server = awake[0] if awake else self.parked_servers[0]
        self._eligible = None
        self.parked_servers.remove(server)
        self.active_servers.append(server)
        server.tags["provisioning"] = "active"
        self.set_tau(server, None)
        server.request_wake()
