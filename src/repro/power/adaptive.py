"""Workload-adaptive energy-latency optimization framework (§IV-C).

Servers are coordinated between two pools (Fig. 7a):

* **active pool** — local controller allows only shallow sleep (package C6);
  the front-end load balancer dispatches tasks to this pool only;
* **sleep pool** — each server's controller transitions it between shallow
  sleep (package C6) and deep sleep (suspend-to-RAM) via a short delay timer.

A load estimator monitors the number of pending jobs per active server at a
fixed interval.  When the load rises above ``t_wakeup`` a server is promoted
from the sleep pool to the active pool (and woken); when it falls below
``t_sleep`` one active server is demoted, drains, and drops to deep sleep.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.engine import Engine
from repro.power.controller import DelayTimerController

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server


class AdaptivePoolManager(DelayTimerController):
    """Active/sleep pool coordination with threshold-driven migration."""

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        t_wakeup: float,
        t_sleep: float,
        tau_sleep_pool_s: float = 0.1,
        estimation_interval_s: float = 0.1,
        initial_active: int = 1,
        sleep_level: str = "s3",
        demotion_cooldown_s: Optional[float] = None,
        demotion_patience: int = 3,
    ):
        if t_sleep >= t_wakeup:
            raise ValueError(
                f"t_sleep ({t_sleep}) must be below t_wakeup ({t_wakeup}) "
                "or the pools will thrash"
            )
        if not 1 <= initial_active <= len(servers):
            raise ValueError(f"initial_active {initial_active} outside 1..{len(servers)}")
        super().__init__(engine, tau_s=None, sleep_level=sleep_level)
        self.t_wakeup = t_wakeup
        self.t_sleep = t_sleep
        self.tau_sleep_pool_s = tau_sleep_pool_s
        self.estimation_interval_s = estimation_interval_s
        self.servers = list(servers)
        self.active_pool: List["Server"] = []
        self.sleep_pool: List["Server"] = []
        # eligible_servers()'s list, rebuilt after the pools change.
        self._eligible: Optional[List["Server"]] = None
        self.promotions = 0
        self.demotions = 0
        self._started = False
        # Hysteresis against pool thrashing: after any migration, demotions
        # pause for a cooldown (default: twice the wake latency, so a freshly
        # woken server is never immediately sent back to sleep), and the load
        # must sit below t_sleep for `demotion_patience` consecutive
        # estimates before a server is shed.
        if demotion_cooldown_s is None:
            demotion_cooldown_s = 2.0 * servers[0].config.platform.s3_exit_latency_s
        self.demotion_cooldown_s = demotion_cooldown_s
        self.demotion_patience = demotion_patience
        self._low_load_streak = 0
        self._last_migration_at = engine.now

        for i, server in enumerate(self.servers):
            server.attach_controller(self)
            if i < initial_active:
                self._make_active(server, initial=True)
            else:
                self._make_sleeping(server, initial=True)

    # ------------------------------------------------------------------
    # Pool membership
    # ------------------------------------------------------------------
    def eligible_servers(self) -> List["Server"]:
        """Servers the front-end load balancer may dispatch to (active pool).

        The same list until a server moves between pools; callers must not
        mutate it.
        """
        if self._eligible is None:
            self._eligible = list(self.active_pool)
        return self._eligible

    def _make_active(self, server: "Server", initial: bool = False) -> None:
        self._eligible = None
        if server in self.sleep_pool:
            self.sleep_pool.remove(server)
        if server not in self.active_pool:
            self.active_pool.append(server)
        server.tags["pool"] = "active"
        self.set_tau(server, None)  # shallow sleep (package C6) only
        server.request_wake()
        if not initial:
            self.promotions += 1

    def _make_sleeping(self, server: "Server", initial: bool = False) -> None:
        self._eligible = None
        if server in self.active_pool:
            self.active_pool.remove(server)
        if server not in self.sleep_pool:
            self.sleep_pool.append(server)
        server.tags["pool"] = "sleep"
        self.set_tau(server, self.tau_sleep_pool_s)  # drains, then deep sleep
        if not initial:
            self.demotions += 1

    # ------------------------------------------------------------------
    # Load estimation loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic load estimation loop."""
        if self._started:
            return
        self._started = True
        self.engine.post(self.estimation_interval_s, self._estimate)

    def load_per_active_server(self) -> float:
        """Pending (running + queued) tasks per active-pool server."""
        pending = sum(s.pending_task_count for s in self.servers)
        return pending / max(1, len(self.active_pool))

    def _estimate(self) -> None:
        now = self.engine.now
        load = self.load_per_active_server()
        if load > self.t_wakeup and self.sleep_pool:
            self._make_active(self._pick_promotion())
            self._last_migration_at = now
            self._low_load_streak = 0
        elif load < self.t_sleep and len(self.active_pool) > 1:
            self._low_load_streak += 1
            cooled = now - self._last_migration_at >= self.demotion_cooldown_s
            victim = self._pick_demotion()
            if cooled and self._low_load_streak >= self.demotion_patience and victim:
                self._make_sleeping(victim)
                self._last_migration_at = now
                self._low_load_streak = 0
        else:
            self._low_load_streak = 0
        self.engine.post(self.estimation_interval_s, self._estimate)

    def _pick_promotion(self) -> "Server":
        # Prefer a sleep-pool server that is still awake (no wake latency),
        # then the one that went to sleep most recently is as good as any.
        awake = [s for s in self.sleep_pool if s.can_execute]
        return awake[0] if awake else self.sleep_pool[0]

    def _pick_demotion(self) -> Optional["Server"]:
        # Only drained servers are demotion candidates: shedding a loaded
        # server would trade its queue for wake latency later.
        idle = [s for s in self.active_pool if s.is_idle and s.can_execute]
        if not idle:
            return None
        return min(idle, key=lambda s: s.server_id)
