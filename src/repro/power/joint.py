"""Server-network cooperative energy optimization (§IV-D).

Two strategies over the same fat-tree data center:

* **Server-Balanced** — jobs are strictly load balanced among all servers;
  every server (and hence every switch) stays powered.  This is the paper's
  comparison baseline.
* **Server-Network-Aware** — tasks are consolidated onto a small active
  server set; idle servers drop to system sleep via a delay timer and idle
  switches are parked by a switch sleep controller.  Whenever an additional
  server must transition to active, the policy picks the sleeping server
  with the least *network cost* — the number of additional switches that
  would have to be woken to communicate with the currently active set.

The manager implements the per-server controller interface (it extends the
delay-timer controller), provides the dispatch policy and the eligible-server
set for the global scheduler, and runs the switch sleep scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.engine import Engine
from repro.jobs.task import Task
from repro.network.routing import Router
from repro.network.topology import Topology
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import DispatchPolicy
from repro.server.server import first_startable

if TYPE_CHECKING:  # pragma: no cover
    from repro.server.server import Server

MODES = ("balanced", "network-aware")


class SwitchSleepController:
    """Parks switches whose ports have been quiet for an idle threshold."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        idle_threshold_s: float = 2.0,
        scan_interval_s: float = 0.5,
        always_on: Optional[Sequence[str]] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.idle_threshold_s = idle_threshold_s
        self.scan_interval_s = scan_interval_s
        self.always_on = set(always_on or ())
        self._last_busy: Dict[str, float] = {name: engine.now for name in topology.switches}
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.engine.post(self.scan_interval_s, self._scan)

    def _scan(self) -> None:
        now = self.engine.now
        for name, switch in self.topology.switches.items():
            if any(p.busy for p in switch.ports):
                self._last_busy[name] = now
                continue
            if name in self.always_on or not switch.is_on:
                continue
            if now - self._last_busy[name] >= self.idle_threshold_s:
                switch.sleep()
        self.engine.post(self.scan_interval_s, self._scan)


class JointDispatchPolicy(DispatchPolicy):
    """Dispatch through the :class:`JointEnergyManager`'s active set."""

    def __init__(self, manager: "JointEnergyManager"):
        self.manager = manager

    def select_server(self, task: Task, candidates: Sequence["Server"]):
        return self.manager.select_server(task, candidates)


class JointEnergyManager(DelayTimerController):
    """Coordinates server consolidation with network wake costs."""

    def __init__(
        self,
        engine: Engine,
        servers: Sequence["Server"],
        topology: Topology,
        router: Optional[Router] = None,
        mode: str = "network-aware",
        tau_s: float = 1.0,
        switch_idle_threshold_s: float = 2.0,
        initial_active: Optional[int] = None,
        scale_down_interval_s: float = 1.0,
        target_pending_per_server: float = 1.0,
        sleep_level: str = "s3",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        super().__init__(engine, tau_s=None, sleep_level=sleep_level)
        self.mode = mode
        self.servers = list(servers)
        self.topology = topology
        self.router = router or Router(topology)
        self.tau_s = None  # per-server overrides drive everything
        self._tau_value = tau_s
        self.target_pending_per_server = target_pending_per_server
        self.scale_down_interval_s = scale_down_interval_s
        self.activations = 0
        # eligible_servers()'s list, rebuilt after the active set changes.
        self._eligible: Optional[List["Server"]] = None

        for server in self.servers:
            server.attach_controller(self)

        if mode == "balanced":
            # Everything stays on; no switch sleeping, no server timers.
            self.active_order: List["Server"] = list(self.servers)
            self.switch_controller = None
        else:
            # Default to starting with the whole farm active (as deployed
            # systems do) and consolidating down; a cold start from one
            # server would charge every ramp-up with a wake transition.
            if initial_active is None:
                initial_active = len(self.servers)
            initial_active = max(1, min(initial_active, len(self.servers)))
            self.active_order = []
            for server in self.servers[:initial_active]:
                self._activate(server)
            for server in self.servers[initial_active:]:
                self.set_tau(server, self._tau_value)
            self.switch_controller = SwitchSleepController(
                engine, topology, idle_threshold_s=switch_idle_threshold_s
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the switch sleep scan and periodic scale-down check."""
        if self.switch_controller is not None:
            self.switch_controller.start()
            self.engine.post(self.scale_down_interval_s, self._scale_down_check)

    def make_policy(self) -> JointDispatchPolicy:
        """The dispatch policy to hand to the global scheduler."""
        return JointDispatchPolicy(self)

    def eligible_servers(self) -> List["Server"]:
        """The servers dispatch may use: the whole farm when balanced, else
        the active set.  The same list until the active set changes;
        callers must not mutate it."""
        if self._eligible is None:
            self._eligible = list(
                self.servers if self.mode == "balanced" else self.active_order
            )
        return self._eligible

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def select_server(self, task: Task, candidates: Sequence["Server"]):
        if self.mode == "balanced":
            return min(candidates, key=lambda s: (s.pending_task_count, s.server_id))
        # Consolidate: first active server that can start the task now.
        server = first_startable(self.active_order)
        if server is not None:
            return server
        # Active set saturated: activate the cheapest additional server in
        # the background.  The triggering task still goes to an already-awake
        # server — queueing it behind a multi-second wake would be worse than
        # a short queueing delay.
        new_server = self._activate_best()
        awake = [s for s in self.active_order if s.can_execute]
        if awake:
            return min(awake, key=lambda s: (s.pending_task_count, s.server_id))
        if new_server is not None:
            return new_server
        return min(
            self.active_order, key=lambda s: (s.pending_task_count, s.server_id)
        )

    # ------------------------------------------------------------------
    # Activation / deactivation
    # ------------------------------------------------------------------
    def _activate(self, server: "Server") -> None:
        if server in self.active_order:
            return
        self._eligible = None
        self.active_order.append(server)
        server.tags["joint_pool"] = "active"
        self.set_tau(server, None)
        server.request_wake()
        self.activations += 1

    def _deactivate(self, server: "Server") -> None:
        if server not in self.active_order or len(self.active_order) <= 1:
            return
        self._eligible = None
        self.active_order.remove(server)
        server.tags["joint_pool"] = "parked"
        self.set_tau(server, self._tau_value)

    def network_cost(self, server: "Server") -> int:
        """Additional switches to wake so ``server`` can talk to the active set.

        This is the §IV-D metric: the minimum, over members of the active
        set, of the number of sleeping switches on the cheapest path.
        """
        node = self.topology.server_node(server.server_id)
        if not self.active_order:
            return 0
        return min(
            self.router.min_wake_cost(
                node, self.topology.server_node(a.server_id)
            )
            for a in self.active_order
        )

    def _activate_best(self) -> Optional["Server"]:
        parked = [s for s in self.servers if s not in self.active_order]
        if not parked:
            return None
        best = min(parked, key=lambda s: (self.network_cost(s), s.server_id))
        self._activate(best)
        return best

    def _scale_down_check(self) -> None:
        pending = sum(s.pending_task_count for s in self.servers)
        # Keep enough servers for the current load plus one hot spare.
        needed = int(pending / max(self.target_pending_per_server, 1e-9)) + 1
        if len(self.active_order) > max(1, needed):
            idle_active = [s for s in self.active_order if s.is_idle]
            if idle_active:
                # Shed the idle server that is *most expensive* to keep
                # connected (frees the most network hardware).
                victim = max(
                    idle_active, key=lambda s: (self.network_cost(s), -s.server_id)
                )
                self._deactivate(victim)
        self.engine.post(self.scale_down_interval_s, self._scale_down_check)
