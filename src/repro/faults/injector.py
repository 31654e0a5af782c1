"""The fault injector: failures and repairs as first-class engine events.

:class:`FaultInjector` drives per-component fail -> repair -> fail loops
against servers, switches, and links (a link fault models the failure of the
port pair it joins).  Every pending fault event is a cancellable
:class:`~repro.core.engine.EventHandle`, so :meth:`stop` cleanly quiesces the
subsystem mid-run.  All stochastic intervals are drawn from the run's shared
``"faults"`` stream, which keeps fault sequences reproducible and — because
streams are derived independently — leaves arrival/service draws untouched.

On a server failure the injector calls :meth:`Server.fail` (aborting
in-flight tasks) and hands the lost tasks to the global scheduler for
re-dispatch with backoff.  Switch and link failures are pushed into the
:class:`~repro.network.topology.Topology` fault state so routing recomputes
around the dead component, and the flow network re-routes (or strands) the
transfers that were crossing it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import FaultConfig
from repro.core.engine import Engine, EventHandle
from repro.core.rng import RandomSource
from repro.core.stats import AvailabilityTracker
from repro.faults.models import FaultModel, TraceFaultSchedule, make_fault_model
from repro.telemetry import session as telemetry


class _FaultProcess:
    """One component's stochastic fail/repair loop."""

    __slots__ = ("label", "model", "kind", "target", "handle")

    def __init__(self, label: str, model: FaultModel, kind: str, target):
        self.label = label
        self.model = model
        self.kind = kind
        self.target = target
        self.handle: Optional[EventHandle] = None


class FaultInjector:
    """Schedules component failures and repairs against a running simulation.

    Args:
        engine: the simulation's event engine.
        config: the :class:`~repro.core.config.FaultConfig` to apply.
        rng: the run's root :class:`~repro.core.rng.RandomSource`; intervals
            are drawn from its ``"faults"`` stream.
        servers: servers subject to server faults (and trace targets).
        scheduler: optional :class:`~repro.scheduling.GlobalScheduler`
            notified of failures/repairs so lost tasks are re-dispatched.
        topology: optional :class:`~repro.network.topology.Topology` whose
            switches and links are subject to faults.
        network: optional :class:`~repro.network.flow.FlowNetwork` asked to
            re-route flows around newly failed components.
    """

    def __init__(
        self,
        engine: Engine,
        config: FaultConfig,
        rng: RandomSource,
        servers: Sequence = (),
        scheduler=None,
        topology=None,
        network=None,
    ):
        self.engine = engine
        self.config = config
        self.servers = list(servers)
        self.scheduler = scheduler
        self.topology = topology
        self.network = network
        self._stream = rng.stream("faults")
        self._processes: List[_FaultProcess] = []
        self._trace_handles: List[EventHandle] = []
        self._started = False
        self.failures_injected = 0
        self.repairs_applied = 0
        self.trackers: Dict[str, AvailabilityTracker] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the fault processes and register ``faults.*`` metrics in an
        active telemetry session; a no-op when the config is disabled."""
        if not self.config.enabled or self._started:
            return
        self._started = True
        ts = telemetry.ACTIVE
        if ts is not None and ts.metrics is not None:
            self.register_metrics(ts.metrics, prefix=ts.metrics.namespace("faults"))
        cfg = self.config
        if cfg.server_mtbf_s > 0:
            model = self._make_model(cfg.server_mtbf_s, cfg.server_mttr_s)
            for server in self.servers:
                proc = _FaultProcess(
                    f"server:{server.server_id}", model, "server", server
                )
                self._processes.append(proc)
        if self.topology is not None and cfg.switch_mtbf_s > 0:
            model = self._make_model(cfg.switch_mtbf_s, cfg.switch_mttr_s)
            for name, switch in self.topology.switches.items():
                proc = _FaultProcess(f"switch:{name}", model, "switch", switch)
                self._processes.append(proc)
        if self.topology is not None and cfg.link_mtbf_s > 0:
            model = self._make_model(cfg.link_mtbf_s, cfg.link_mttr_s)
            for key in self.topology.links:
                proc = _FaultProcess(f"link:{key[0]}|{key[1]}", model, "link", key)
                self._processes.append(proc)
        for proc in self._processes:
            self.trackers[proc.label] = AvailabilityTracker(
                proc.label, start_time=self.engine.now
            )
            self._arm_failure(proc)
        schedule = TraceFaultSchedule(cfg.trace)
        for time_s, kind, target, action in schedule:
            handle = self.engine.schedule_at(
                time_s, self._apply_trace_event, kind, target, action
            )
            self._trace_handles.append(handle)

    def stop(self) -> None:
        """Cancel every pending fault/repair event (components stay as-is)."""
        for proc in self._processes:
            if proc.handle is not None and proc.handle.pending:
                proc.handle.cancel()
            proc.handle = None
        for handle in self._trace_handles:
            if handle.pending:
                handle.cancel()
        self._trace_handles = []

    def _make_model(self, mtbf_s: float, mttr_s: float) -> FaultModel:
        cfg = self.config
        return make_fault_model(
            cfg.distribution,
            mtbf_s,
            mttr_s,
            failure_shape=cfg.weibull_failure_shape,
            repair_shape=cfg.weibull_repair_shape,
        )

    # ------------------------------------------------------------------
    # Stochastic fail/repair loop
    # ------------------------------------------------------------------
    def _arm_failure(self, proc: _FaultProcess) -> None:
        delay = proc.model.time_to_failure(self._stream)
        proc.handle = self.engine.schedule(delay, self._on_failure, proc)

    def _on_failure(self, proc: _FaultProcess) -> None:
        proc.handle = None
        self._apply_fail(proc.kind, proc.target, proc.label)
        delay = proc.model.time_to_repair(self._stream)
        proc.handle = self.engine.schedule(delay, self._on_repair, proc)

    def _on_repair(self, proc: _FaultProcess) -> None:
        proc.handle = None
        self._apply_repair(proc.kind, proc.target, proc.label)
        self._arm_failure(proc)

    # ------------------------------------------------------------------
    # Applying fault events
    # ------------------------------------------------------------------
    def _apply_fail(self, kind: str, target, label: str) -> None:
        now = self.engine.now
        changed = False
        if kind == "server":
            # A pooled (fast-path) server must be restored to exact per-server
            # state before the crash is applied — fail() does this itself, but
            # be explicit: fault injection is a materialization trigger.
            target.ensure_materialized()
            lost = target.fail()
            changed = True
            if self.scheduler is not None:
                self.scheduler.on_server_failed(target, lost)
        elif kind == "switch":
            changed = target.fail()
            if changed and self.topology is not None:
                self.topology.fail_node(target.name)
                if self.network is not None:
                    self.network.reroute_around_failures()
        elif kind == "link":
            u, v = target
            changed = self.topology.fail_link(u, v)
            if changed and self.network is not None:
                self.network.reroute_around_failures()
        else:  # pragma: no cover - guarded by TraceFaultSchedule validation
            raise ValueError(f"unknown fault kind {kind!r}")
        if changed:
            self.failures_injected += 1
        ts = telemetry.ACTIVE
        if ts is not None and ts.fault is not None:
            ts.fault.instant(
                "fault", "fail", f"fault/{label}", now,
                args={"kind": kind, "applied": changed},
            )
        self._tracker(label).mark_down(now)

    def _apply_repair(self, kind: str, target, label: str) -> None:
        now = self.engine.now
        changed = False
        if kind == "server":
            changed = target.repair()
            if changed and self.scheduler is not None:
                self.scheduler.on_server_repaired(target)
        elif kind == "switch":
            if self.topology is not None:
                self.topology.repair_node(target.name)
            changed = target.repair()
            if changed and self.network is not None:
                self.network.retry_stranded()
        elif kind == "link":
            u, v = target
            changed = self.topology.repair_link(u, v)
            if changed and self.network is not None:
                self.network.retry_stranded()
        else:  # pragma: no cover - guarded by TraceFaultSchedule validation
            raise ValueError(f"unknown fault kind {kind!r}")
        if changed:
            self.repairs_applied += 1
        ts = telemetry.ACTIVE
        if ts is not None and ts.fault is not None:
            ts.fault.instant(
                "fault", "repair", f"fault/{label}", now,
                args={"kind": kind, "applied": changed},
            )
        self._tracker(label).mark_up(now)

    def _apply_trace_event(self, kind: str, target: str, action: str) -> None:
        resolved, label = self._resolve_trace_target(kind, target)
        if action == "fail":
            self._apply_fail(kind, resolved, label)
        else:
            self._apply_repair(kind, resolved, label)

    def _resolve_trace_target(self, kind: str, target: str) -> Tuple[object, str]:
        if kind == "server":
            server_id = int(target)
            for server in self.servers:
                if server.server_id == server_id:
                    return server, f"server:{server_id}"
            raise KeyError(f"trace names unknown server id {server_id}")
        if self.topology is None:
            raise RuntimeError(f"trace has {kind} events but no topology was given")
        if kind == "switch":
            try:
                return self.topology.switches[target], f"switch:{target}"
            except KeyError:
                raise KeyError(f"trace names unknown switch {target!r}") from None
        # kind == "link": target is "u|v"
        u, _, v = target.partition("|")
        key = self.topology._link_key(u, v)
        if key not in self.topology.links:
            raise KeyError(f"trace names unknown link {target!r}")
        return key, f"link:{key[0]}|{key[1]}"

    def _tracker(self, label: str) -> AvailabilityTracker:
        tracker = self.trackers.get(label)
        if tracker is None:
            # Trace-only targets get a tracker on first touch; it starts at
            # t=0 so uptime fractions share the stochastic trackers' horizon.
            tracker = AvailabilityTracker(label, start_time=0.0)
            self.trackers[label] = tracker
        return tracker

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def register_metrics(self, registry, prefix: str = "faults.") -> None:
        """Expose injector stats through a telemetry metrics registry."""
        registry.register_counter(
            f"{prefix}failures_injected", lambda: self.failures_injected
        )
        registry.register_counter(
            f"{prefix}repairs_applied", lambda: self.repairs_applied
        )
        registry.register_gauge(
            f"{prefix}fleet_availability",
            lambda: self.summary()["fleet_availability"],
        )

    def summary(self, now: Optional[float] = None) -> Dict:
        """Reliability metrics: per-component and fleet-wide availability."""
        if now is None:
            now = self.engine.now
        components = {}
        for label, tracker in sorted(self.trackers.items()):
            components[label] = {
                "availability": tracker.uptime_fraction(now),
                "failures": tracker.failures,
                "repairs": tracker.repairs,
                "observed_mttf_s": tracker.observed_mttf_s(now),
                "observed_mttr_s": tracker.observed_mttr_s(now),
            }
        if components:
            fleet = sum(c["availability"] for c in components.values()) / len(
                components
            )
        else:
            fleet = 1.0
        return {
            "failures_injected": self.failures_injected,
            "repairs_applied": self.repairs_applied,
            "fleet_availability": fleet,
            "components": components,
        }

    def render(self, now: Optional[float] = None) -> str:
        """Human-readable availability table."""
        data = self.summary(now)
        lines = [
            f"Fault injection: {data['failures_injected']} failures, "
            f"{data['repairs_applied']} repairs, "
            f"fleet availability {data['fleet_availability']:.6f}",
            f"{'component':<20} {'avail':>10} {'fails':>6} "
            f"{'MTTF(s)':>12} {'MTTR(s)':>12}",
        ]
        for label, comp in data["components"].items():
            mttf = comp["observed_mttf_s"]
            mttr = comp["observed_mttr_s"]
            lines.append(
                f"{label:<20} {comp['availability']:>10.6f} {comp['failures']:>6d} "
                f"{(f'{mttf:.2f}' if mttf is not None else '-'):>12} "
                f"{(f'{mttr:.2f}' if mttr is not None else '-'):>12}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector processes={len(self._processes)} "
            f"failures={self.failures_injected}>"
        )
