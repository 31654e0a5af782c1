"""Switch power validation — Figs. 13/14 (§V-B).

The paper connects 24 servers to a Cisco WS-C2960-24-S in a star topology,
simulates a Wikipedia web service, logs each port's state for two hours, and
replays that log on the physical switch while measuring power (1 Hz).  The
simulated and measured traces track each other with mean |Δ| < 0.12 W and
σ ≈ 0.04 W; in some segments the physical switch sits consistently slightly
higher (Fig. 14b).

Here the power-logger side is :class:`repro.validation.PhysicalSwitchModel`:
the simulator's port-state log drives an independent base+per-port model with
logger noise and a configurable bias segment reproducing the Fig. 14b
artefact.  Port state follows server link state — a port is active while its
server is up and drops to LPI when the server suspends (servers are managed
by a delay-timer policy under a diurnal trace, so the active-port count, and
hence switch power, swings over the two hours).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import SwitchConfig, cisco_2960_switch, small_cloud_server
from repro.core.rng import RandomSource
from repro.core.stats import TimeSeriesSampler
from repro.experiments.common import build_farm, drive
from repro.network.topology import star
from repro.power.controller import DelayTimerController
from repro.scheduling.policies import PackingPolicy
from repro.server.states import SystemState
from repro.telemetry import session as telemetry
from repro.validation.harness import TraceComparison, compare_power_traces
from repro.validation.physical import PhysicalSwitchModel
from repro.workload.arrivals import TraceProcess
from repro.workload.profiles import SingleTaskJobFactory, ExponentialService
from repro.workload.trace import synthesize_wikipedia_trace

LINK_DOWN_STATES = (SystemState.S3, SystemState.S5)


class _LinkUpTracker:
    """Holds each star port active while its server's link is up.

    Mirrors the paper's methodology: the simulation log of port states is
    what drives the (physical|reference) switch, and a port's state follows
    whether its attached server is powered.
    """

    def __init__(self, engine, topology, servers, switch_name: str, interval_s: float = 0.2):
        self.engine = engine
        self.topology = topology
        self.servers = servers
        self.switch_name = switch_name
        self.interval_s = interval_s
        self._up: Dict[int, bool] = {}
        for server in servers:
            node = topology.server_node(server.server_id)
            link = topology.link_between(node, switch_name)
            up = server.system_state not in LINK_DOWN_STATES
            if up:
                link.begin_activity(node, switch_name)
            self._up[server.server_id] = up

    def start(self) -> None:
        self.engine.post(self.interval_s, self._sync)

    def _sync(self) -> None:
        for server in self.servers:
            up = server.system_state not in LINK_DOWN_STATES
            if up == self._up[server.server_id]:
                continue
            node = self.topology.server_node(server.server_id)
            link = self.topology.link_between(node, self.switch_name)
            if up:
                link.begin_activity(node, self.switch_name)
            else:
                link.end_activity(node, self.switch_name)
            self._up[server.server_id] = up
        self.engine.post(self.interval_s, self._sync)


@dataclass
class SwitchValidationResult:
    """Figs. 13/14: the two switch power traces and their statistics."""

    times_s: List[float]
    simulated_w: List[float]
    physical_w: List[float]
    active_ports: List[float]
    comparison: TraceComparison
    bias_segments: List[Tuple[float, float]]

    def segment(self, lo_s: float, hi_s: float) -> TraceComparison:
        """Comparison statistics restricted to a trace segment (Fig. 14)."""
        sim = [w for t, w in zip(self.times_s, self.simulated_w) if lo_s <= t < hi_s]
        phys = [w for t, w in zip(self.times_s, self.physical_w) if lo_s <= t < hi_s]
        return compare_power_traces(sim, phys)

    def render(self, n_rows: int = 24) -> str:
        lines = ["Fig. 13 — power for physical and simulated switch (full run)"]
        lines.append(f"{'t(min)':>8}  {'physical(W)':>12}  {'simulated(W)':>13}  {'ports':>6}")
        step = max(1, len(self.times_s) // n_rows)
        for i in range(0, len(self.times_s), step):
            lines.append(
                f"{self.times_s[i]/60:8.1f}  {self.physical_w[i]:12.2f}  "
                f"{self.simulated_w[i]:13.2f}  {self.active_ports[i]:6.0f}"
            )
        lines.append("overall: " + self.comparison.summary())
        for lo, hi in self.bias_segments:
            lines.append(
                f"Fig. 14b segment [{lo/60:.0f}-{hi/60:.0f} min]: "
                + self.segment(lo, hi).summary()
            )
        return "\n".join(lines)


def run_switch_validation(
    n_servers: int = 24,
    duration_s: float = 7200.0,
    day_length_s: float = 3600.0,
    mean_rate: float = 120.0,
    mean_service_s: float = 0.02,
    tau_s: float = 5.0,
    sample_interval_s: float = 1.0,
    seed: int = 9,
    switch_config: Optional[SwitchConfig] = None,
    audit: str = "warn",
) -> SwitchValidationResult:
    """Replay a Wikipedia-like web service on the star cluster (Fig. 13)."""
    cfg = switch_config or cisco_2960_switch()
    if cfg.total_ports != n_servers:
        # Size the switch to the cluster so the reference model (which works
        # from the configured port count) sees the same hardware.
        data = cfg.to_dict()
        data.update(n_linecards=1, ports_per_linecard=n_servers)
        cfg = SwitchConfig.from_dict(data)
    server_cfg = small_cloud_server(n_cores=4)
    farm = build_farm(n_servers, server_cfg, policy=PackingPolicy(), seed=seed)
    topo = star(farm.engine, n_servers, switch_config=cfg)
    switch = topo.switches["sw0"]
    ts = telemetry.ACTIVE
    if ts is not None and ts.metrics is not None:
        switch.register_metrics(ts.metrics, prefix=ts.metrics.namespace("switch"))

    controller = DelayTimerController(farm.engine, tau_s)
    for server in farm.servers:
        server.attach_controller(controller)
    tracker = _LinkUpTracker(farm.engine, topo, farm.servers, "sw0")
    tracker.start()

    sampler = TimeSeriesSampler(farm.engine, sample_interval_s)
    power_series = sampler.add_probe("switch_power", switch.power_w)
    ports_series = sampler.add_probe(
        "active_ports", lambda: float(switch.active_port_count())
    )
    sampler.start(first_sample_at=sample_interval_s)

    rng = RandomSource(seed)
    trace = synthesize_wikipedia_trace(
        rng.stream("trace"),
        duration_s=duration_s,
        mean_rate=mean_rate,
        day_length_s=day_length_s,
    )
    factory = SingleTaskJobFactory(
        ExponentialService(mean_service_s), rng.stream("service"), job_type="wiki"
    )
    drive(farm, TraceProcess(trace.timestamps), factory,
          duration_s=duration_s, drain=False, audit=audit)

    # Reference ("physical") switch driven by the simulated port-state log,
    # with a consistent small bias in one segment as observed in Fig. 14b.
    bias_segments = [(0.55 * duration_s, 0.85 * duration_s)]
    physical = PhysicalSwitchModel(
        cfg, rng.stream("logger"), bias_segments=bias_segments
    )
    phys_watts = physical.power_trace(power_series.times, ports_series.values)

    return SwitchValidationResult(
        times_s=list(power_series.times),
        simulated_w=list(power_series.values),
        physical_w=phys_watts,
        active_ports=list(ports_series.values),
        comparison=compare_power_traces(power_series.values, phys_watts),
        bias_segments=bias_segments,
    )
