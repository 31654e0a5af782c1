"""Per-server power controllers: the Active-Idle baseline and delay timers.

A controller observes one server's activity via four hooks and drives its
system sleep state.  Core/package C-states are managed by the hardware-level
timers inside :mod:`repro.server`; controllers operate at the system (Sx)
level, which is where the interesting energy/latency trade-off lives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.engine import Engine, EventHandle
from repro.jobs.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server


def check_tau(tau_s: Optional[float]) -> None:
    """Reject a delay timer the engine cannot run: NaN or negative.

    Written as ``not >=`` so NaN fails here, at construction, instead of at
    the first idle server with an engine error.
    """
    if tau_s is not None and not tau_s >= 0:
        raise ValueError(f"delay timer must be non-negative, got {tau_s}")


class ServerPowerController:
    """Base controller: all hooks are no-ops; attach() may be called for
    several servers (a single controller instance can manage a whole farm).
    """

    def attach(self, server: "Server") -> None:
        """Called by :meth:`Server.attach_controller`; override to initialise."""

    def on_task_arrival(self, server: "Server", task: Task) -> None:
        """A task was enqueued at ``server`` (it may be asleep)."""

    def on_task_complete(self, server: "Server", task: Task) -> None:
        """A task finished executing at ``server``."""

    def on_server_idle(self, server: "Server") -> None:
        """``server`` has no running and no queued tasks."""

    def on_server_awake(self, server: "Server") -> None:
        """``server`` completed a wake transition back to S0."""

    # -- Pool fast-path protocol (repro.server.pool) -------------------
    # A controller that can describe its idle behaviour analytically opts
    # into pooling by implementing sleep_plan().  Returning None keeps the
    # server on the exact per-event path.
    def sleep_plan(self, server: "Server"):
        """Return ``(tau_s | None, sleep_level)`` or None if not poolable."""
        return None

    def clear_idle_timer(self, server: "Server") -> None:
        """Cancel any real delay timer; the pool virtualises it."""

    def restore_idle_timer(self, server: "Server", deadline: float) -> None:
        """Re-arm the delay timer at an absolute deadline on materialization."""


class AlwaysOnController(ServerPowerController):
    """Active-Idle baseline: the server never enters a system sleep state.

    Cores and packages still use their C-states, so an idle Active-Idle
    server sits at package-C6 idle power — exactly the baseline Fig. 6
    measures energy reductions against.
    """

    def sleep_plan(self, server: "Server"):
        # Never sleeps: the pool only has to cascade core/package C-states.
        return (None, "s3")


class DelayTimerController(ServerPowerController):
    """Single delay timer τ: sleep after the server stays idle for τ seconds.

    The commonly studied mechanism of §IV-B: aggressive sleeping (small τ)
    wastes energy on wake transitions when arrivals fluctuate; conservative
    sleeping (large τ) burns idle power.  The optimum τ depends on the idle
    gap distribution, i.e. on the workload.

    ``tau = 0`` sleeps immediately on idle; ``tau = None`` never sleeps
    (equivalent to :class:`AlwaysOnController`).
    """

    def __init__(self, engine: Engine, tau_s: Optional[float], sleep_level: str = "s3"):
        check_tau(tau_s)
        self.engine = engine
        self.tau_s = tau_s
        self.sleep_level = sleep_level
        self._timers: Dict[int, EventHandle] = {}
        self._per_server_tau: Dict[int, Optional[float]] = {}

    def attach(self, server: "Server") -> None:
        # A freshly attached idle server starts its timer immediately.
        if server.is_idle and server.can_execute:
            self.on_server_idle(server)

    def on_task_arrival(self, server: "Server", task: Task) -> None:
        self._cancel_timer(server)
        # The server wakes itself on arrival; nothing else to do.

    def tau_for(self, server: "Server") -> Optional[float]:
        """The timer value in force for ``server`` (per-server override wins)."""
        return self._per_server_tau.get(server.server_id, self.tau_s)

    def on_server_idle(self, server: "Server") -> None:
        tau = self.tau_for(server)
        if tau is None or not server.can_execute:
            return
        self._cancel_timer(server)
        self._timers[server.server_id] = self.engine.schedule(
            tau, self._timer_fired, server
        )

    def on_server_awake(self, server: "Server") -> None:
        if server.is_idle:
            self.on_server_idle(server)

    def set_tau(self, server: "Server", tau_s: Optional[float]) -> None:
        """Retune one server's timer (used by pool policies that migrate servers)."""
        check_tau(tau_s)
        server.ensure_materialized()
        self._per_server_tau[server.server_id] = tau_s
        self._cancel_timer(server)
        if server.is_idle and server.can_execute:
            self.on_server_idle(server)

    # -- Pool fast-path protocol (repro.server.pool) -------------------
    def sleep_plan(self, server: "Server"):
        return (self.tau_for(server), self.sleep_level)

    def clear_idle_timer(self, server: "Server") -> None:
        self._cancel_timer(server)

    def restore_idle_timer(self, server: "Server", deadline: float) -> None:
        self._cancel_timer(server)
        self._timers[server.server_id] = self.engine.schedule_at(
            deadline, self._timer_fired, server
        )

    def _timer_fired(self, server: "Server") -> None:
        self._timers.pop(server.server_id, None)
        if server.is_idle and server.can_execute:
            server.sleep(self.sleep_level)

    def _cancel_timer(self, server: "Server") -> None:
        handle = self._timers.pop(server.server_id, None)
        if handle is not None:
            handle.cancel()  # a no-op once the timer has fired
