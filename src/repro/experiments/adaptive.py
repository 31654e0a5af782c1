"""Energy-latency optimization with processor/system sleep states — Figs. 8
and 9 (§IV-C).

A 10-server farm of 10-core Xeon E5-2680 servers runs a Wikipedia-like
arrival pattern under the workload-adaptive framework: an active pool (only
package-C6 shallow sleep allowed) serves all traffic, a sleep pool drops to
suspend-to-RAM, and a load estimator migrates servers between the pools on
Twakeup/Tsleep thresholds.

* Fig. 8 — per-category state residency (Active / Wake-up / Idle / PkgC6 /
  SysSleep) averaged over servers, swept across utilization: Active tracks
  ρ and the remainder is dominated by deep sleep at low-to-mid load.
* Fig. 9 — per-server CPU/DRAM/platform energy for the delay-timer policy
  (load-balanced, roughly uniform) vs the adaptive framework (work is
  concentrated on a small subset; the rest sleep), with ~double-digit
  percentage total savings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import ServerConfig, xeon_e5_2680_server
from repro.core.rng import RandomSource
from repro.experiments.common import Farm, build_farm, drive
from repro.power.adaptive import AdaptivePoolManager
from repro.power.controller import DelayTimerController
from repro.runner import SweepOptions, SweepSpec, run_sweep
from repro.scheduling.policies import LeastLoadedPolicy, PackingPolicy
from repro.server.states import ResidencyCategory
from repro.workload.arrivals import TraceProcess, arrival_rate_for_utilization
from repro.workload.profiles import WorkloadProfile
from repro.workload.trace import synthesize_wikipedia_trace


def _wikipedia_arrivals(
    rng, utilization: float, profile: WorkloadProfile, n_servers: int, n_cores: int,
    duration_s: float, day_length_s: float,
) -> TraceProcess:
    rate = arrival_rate_for_utilization(
        utilization, profile.mean_service_s, n_servers, n_cores
    )
    trace = synthesize_wikipedia_trace(
        rng, duration_s=duration_s, mean_rate=rate, day_length_s=day_length_s
    )
    return TraceProcess(trace.timestamps)


def _build_adaptive_farm(
    utilization: float,
    profile: WorkloadProfile,
    n_servers: int,
    n_cores: int,
    duration_s: float,
    day_length_s: float,
    seed: int,
    t_wakeup: float,
    t_sleep: float,
    server_config: Optional[ServerConfig],
    audit: str = "warn",
) -> Farm:
    config = server_config or xeon_e5_2680_server(n_cores=n_cores)
    farm = build_farm(n_servers, config, seed=seed)
    initial_active = max(1, min(n_servers, int(round(utilization * n_servers)) + 1))
    manager = AdaptivePoolManager(
        farm.engine,
        farm.servers,
        t_wakeup=t_wakeup,
        t_sleep=t_sleep,
        initial_active=initial_active,
    )
    farm.scheduler.policy = PackingPolicy(order=manager.eligible_servers)
    farm.scheduler.eligible_provider = manager.eligible_servers
    manager.start()

    rng = RandomSource(seed)
    arrivals = _wikipedia_arrivals(
        rng.stream("trace"), utilization, profile, n_servers, n_cores,
        duration_s, day_length_s,
    )
    drive(farm, arrivals, profile.job_factory(rng.stream("service")),
          duration_s=duration_s, drain=False, audit=audit)
    return farm


def run_residency_point(
    utilization: float,
    profile: WorkloadProfile,
    n_servers: int = 10,
    n_cores: int = 10,
    duration_s: float = 60.0,
    day_length_s: float = 40.0,
    t_wakeup: float = 8.0,
    t_sleep: float = 2.0,
    seed: int = 3,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
) -> Dict[str, object]:
    """One Fig. 8 cell: residency fractions and p95 latency at one rho.

    Module-level (and returning only plain data) so sweep workers can
    pickle the call and its result.
    """
    farm = _build_adaptive_farm(
        utilization, profile, n_servers, n_cores, duration_s, day_length_s,
        seed, t_wakeup, t_sleep, server_config, audit=audit,
    )
    latency = farm.scheduler.job_latency
    return {
        "residency": farm.mean_residency_fractions(),
        "p95_latency_s": latency.percentile(95) if len(latency) else float("nan"),
    }


@dataclass
class ResidencyResult:
    """Fig. 8: residency fractions per utilization level."""

    workload: str
    utilizations: List[float]
    residency: Dict[float, Dict[str, float]]  # utilization -> category -> frac
    p95_latency_s: Dict[float, float]

    def render(self) -> str:
        lines = [f"Fig. 8 — state residency under the adaptive framework "
                 f"({self.workload})"]
        # The Failed column only appears when fault injection was active, so
        # the Fig. 8 table keeps the paper's five columns by default.
        cats = [
            c for c in ResidencyCategory.ALL
            if c is not ResidencyCategory.FAILED
            or any(self.residency[u].get(c, 0.0) > 0 for u in self.utilizations)
        ]
        lines.append("rho   " + "".join(f"{c:>10}" for c in cats) + f"{'p95(ms)':>10}")
        for u in self.utilizations:
            row = f"{u:4.1f}  " + "".join(
                f"{100 * self.residency[u].get(c, 0.0):9.1f}%" for c in cats
            )
            row += f"{self.p95_latency_s[u] * 1e3:10.1f}"
            lines.append(row)
        return "\n".join(lines)


def run_state_residency(
    profile: WorkloadProfile,
    utilizations: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    n_servers: int = 10,
    n_cores: int = 10,
    duration_s: float = 60.0,
    day_length_s: float = 40.0,
    t_wakeup: float = 8.0,
    t_sleep: float = 2.0,
    seed: int = 3,
    server_config: Optional[ServerConfig] = None,
    jobs: int = 1,
    sweep_options: Optional[SweepOptions] = None,
    audit: str = "warn",
) -> ResidencyResult:
    """The Fig. 8 sweep for one workload (utilization points in parallel
    when ``jobs > 1``)."""
    spec = SweepSpec("state-residency")
    for utilization in utilizations:
        spec.add(
            run_residency_point,
            utilization=utilization,
            profile=profile,
            n_servers=n_servers,
            n_cores=n_cores,
            duration_s=duration_s,
            day_length_s=day_length_s,
            t_wakeup=t_wakeup,
            t_sleep=t_sleep,
            seed=seed,
            server_config=server_config,
            audit=audit,
        )
    cells = run_sweep(spec, jobs=jobs, options=sweep_options)
    residency: Dict[float, Dict[str, float]] = {}
    p95: Dict[float, float] = {}
    for utilization, cell in zip(utilizations, cells):
        if cell is None:  # failed point under keep_going: leave the row out
            continue
        residency[utilization] = cell["residency"]
        p95[utilization] = cell["p95_latency_s"]
    return ResidencyResult(
        workload=profile.name,
        utilizations=[u for u in utilizations if u in residency],
        residency=residency,
        p95_latency_s=p95,
    )


@dataclass
class EnergyBreakdownResult:
    """Fig. 9: per-server component energy for both policies."""

    workload: str
    utilization: float
    delay_timer_per_server: List[Dict[str, float]]
    adaptive_per_server: List[Dict[str, float]]
    delay_timer_total_j: float
    adaptive_total_j: float
    delay_timer_p95_s: float
    adaptive_p95_s: float

    @property
    def savings(self) -> float:
        """Fractional energy saving of adaptive vs the delay-timer policy."""
        return 1.0 - self.adaptive_total_j / self.delay_timer_total_j

    def render(self) -> str:
        lines = [
            f"Fig. 9 — per-server energy (kJ), {self.workload} @ "
            f"rho={self.utilization}",
            f"{'server':>7} | {'delay-timer':^33} | {'adaptive':^33}",
            f"{'':>7} | {'cpu':>10}{'dram':>10}{'platform':>11} |"
            f" {'cpu':>10}{'dram':>10}{'platform':>11}",
        ]
        for i, (dt, ad) in enumerate(
            zip(self.delay_timer_per_server, self.adaptive_per_server)
        ):
            lines.append(
                f"{i:>7} | {dt['cpu']/1e3:10.2f}{dt['dram']/1e3:10.2f}"
                f"{dt['platform']/1e3:11.2f} | {ad['cpu']/1e3:10.2f}"
                f"{ad['dram']/1e3:10.2f}{ad['platform']/1e3:11.2f}"
            )
        lines.append(
            f"totals: delay-timer={self.delay_timer_total_j/1e3:.1f}kJ "
            f"adaptive={self.adaptive_total_j/1e3:.1f}kJ "
            f"saving={100*self.savings:.1f}% "
            f"(p95 {self.delay_timer_p95_s*1e3:.1f}ms -> {self.adaptive_p95_s*1e3:.1f}ms)"
        )
        return "\n".join(lines)


def run_energy_breakdown(
    profile: WorkloadProfile,
    utilization: float = 0.3,
    n_servers: int = 10,
    n_cores: int = 10,
    duration_s: float = 60.0,
    day_length_s: float = 40.0,
    delay_tau_s: float = 1.0,
    t_wakeup: float = 8.0,
    t_sleep: float = 2.0,
    seed: int = 3,
    server_config: Optional[ServerConfig] = None,
    audit: str = "warn",
) -> EnergyBreakdownResult:
    """The Fig. 9 comparison: delay-timer policy vs the adaptive framework."""
    config = server_config or xeon_e5_2680_server(n_cores=n_cores)

    # Arm 1: delay-timer policy under load-balanced dispatch (the paper's
    # "almost uniform energy consumption across servers").
    farm_dt = build_farm(n_servers, config, policy=LeastLoadedPolicy(), seed=seed)
    controller = DelayTimerController(farm_dt.engine, delay_tau_s)
    for server in farm_dt.servers:
        server.attach_controller(controller)
    rng = RandomSource(seed)
    arrivals = _wikipedia_arrivals(
        rng.stream("trace"), utilization, profile, n_servers, n_cores,
        duration_s, day_length_s,
    )
    drive(farm_dt, arrivals, profile.job_factory(rng.stream("service")),
          duration_s=duration_s, drain=False, audit=audit)

    # Arm 2: the workload-adaptive framework on identical arrivals (the RNG
    # streams are re-derived from the same seed, so traces match).
    farm_ad = _build_adaptive_farm(
        utilization, profile, n_servers, n_cores, duration_s, day_length_s,
        seed, t_wakeup, t_sleep, server_config, audit=audit,
    )

    dt_breakdown = [s.energy_breakdown_j(duration_s) for s in farm_dt.servers]
    ad_breakdown = [s.energy_breakdown_j(duration_s) for s in farm_ad.servers]
    lat_dt = farm_dt.scheduler.job_latency
    lat_ad = farm_ad.scheduler.job_latency
    return EnergyBreakdownResult(
        workload=profile.name,
        utilization=utilization,
        delay_timer_per_server=dt_breakdown,
        adaptive_per_server=ad_breakdown,
        delay_timer_total_j=sum(sum(b.values()) for b in dt_breakdown),
        adaptive_total_j=sum(sum(b.values()) for b in ad_breakdown),
        delay_timer_p95_s=lat_dt.percentile(95) if len(lat_dt) else float("nan"),
        adaptive_p95_s=lat_ad.percentile(95) if len(lat_ad) else float("nan"),
    )
