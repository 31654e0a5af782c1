"""The ``repro bench`` harness: measure the simulator's hot paths.

Runs the core microbenchmarks (raw event throughput, schedule/cancel churn,
full-stack task churn), a small delay-timer sweep at ``jobs=1`` vs
``jobs=N`` to quantify the parallel-runner speedup, and one scalability
point, then writes the numbers to ``BENCH_core.json``.  The committed file
is the repo's performance trajectory: every perf-focused PR re-runs the
bench and appends its numbers to the history table in EXPERIMENTS.md, and CI
runs ``repro bench --quick --check-against BENCH_core.json`` so an engine
regression >30% fails the build.

All figures are throughput rates (events/s, jobs/s) except the sweep entry,
which records wall-clock seconds and the parallel speedup.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.engine import Engine
from repro.core.rng import RandomSource
from repro.experiments import delay_timer, scalability
from repro.runner.sweep import host_cpus
from repro.experiments.common import build_farm, drive
from repro.core.config import small_cloud_server
from repro.scheduling.policies import LeastLoadedPolicy
from repro.workload.arrivals import PoissonProcess
from repro.workload.profiles import (
    ExponentialService,
    SingleTaskJobFactory,
    web_search_profile,
)

SCHEMA_VERSION = 8


def bench_engine_events(n_events: int = 200_000) -> float:
    """Fire-and-forget event throughput (events/s) on the tuple fast path.

    Mixes a self-rescheduling chain with a fan of pre-queued events so both
    heap push and pop/sift costs are exercised at a realistic queue depth.
    """
    engine = Engine()
    fired = [0]

    def tick() -> None:
        fired[0] += 1
        if fired[0] < n_events:
            engine.post(0.001, tick)

    sink = fired.__getitem__  # cheap callable taking one arg
    for i in range(1000):
        engine.post(float(i), sink, 0)
    engine.post(0.0, tick)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return engine.events_executed / elapsed


def bench_schedule_cancel(n_timers: int = 200_000) -> float:
    """Timer churn (schedule+cancel pairs/s), the delay-timer hot pattern.

    Every timer is cancelled before it fires — the worst case for lazy
    deletion — so this also exercises heap compaction.
    """
    engine = Engine()
    noop = int
    start = time.perf_counter()
    for i in range(n_timers):
        handle = engine.schedule(1.0 + (i % 50), noop)
        handle.cancel()
    engine.run()
    elapsed = time.perf_counter() - start
    return n_timers / elapsed


def bench_task_churn(n_jobs: int = 20_000, traced: bool = False) -> float:
    """Full-stack jobs/s: dispatch, execute and account short tasks.

    With ``traced`` the identical workload runs under an active telemetry
    session (trace + metrics), measuring the enabled-path emit cost end to
    end; the default measures the guard-only disabled path.
    """
    def run() -> float:
        farm = build_farm(4, small_cloud_server(), policy=LeastLoadedPolicy(), seed=1)
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(ExponentialService(0.005), rng.stream("s"))
        start = time.perf_counter()
        drive(farm, PoissonProcess(2000.0, rng.stream("a")), factory,
              max_jobs=n_jobs, drain=True)
        elapsed = time.perf_counter() - start
        return farm.scheduler.jobs_completed / elapsed

    if not traced:
        return run()
    from repro.telemetry import session as telemetry_session

    with telemetry_session.session(trace=True, metrics=True):
        return run()


def bench_telemetry_overhead(n_events: int = 200_000) -> Dict[str, Any]:
    """The telemetry layer's on/off cost on the engine dispatch path.

    Measures the :func:`bench_engine_events` workload three ways — no
    dispatch hook (the instrumented engine's fast path, which must stay
    within the regression tolerance of the committed pre-telemetry
    baseline), a pass-through hook, and a full
    :class:`~repro.telemetry.profiler.DispatchProfiler` — and reports the
    hook-enabled overhead.  Rates are best-of-two to damp scheduler noise.
    """
    from repro.telemetry.profiler import DispatchProfiler

    def run_once(mode: str) -> float:
        engine = Engine()
        fired = [0]

        def tick() -> None:
            fired[0] += 1
            if fired[0] < n_events:
                engine.post(0.001, tick)

        sink = fired.__getitem__
        for i in range(1000):
            engine.post(float(i), sink, 0)
        engine.post(0.0, tick)
        if mode == "passthrough":
            engine.set_dispatch_hook(lambda t, cb, a: cb(*a))
        elif mode == "profiled":
            DispatchProfiler().attach(engine)
        start = time.perf_counter()
        engine.run()
        return engine.events_executed / (time.perf_counter() - start)

    disabled = max(run_once("disabled"), run_once("disabled"))
    passthrough = max(run_once("passthrough"), run_once("passthrough"))
    profiled = max(run_once("profiled"), run_once("profiled"))
    return {
        "events_per_s_hook_disabled": round(disabled),
        "events_per_s_hook_passthrough": round(passthrough),
        "events_per_s_profiled": round(profiled),
        "hook_overhead_pct": round((disabled - passthrough) / disabled * 100, 2),
    }


def bench_facility_overhead(n_jobs: int = 20_000) -> Dict[str, Any]:
    """The facility co-simulation layer's cost on the farm hot path.

    Runs the task-churn workload twice — without a facility (the committed
    disabled-path rate, gated against the baseline: simulations that never
    attach a facility must not pay for the layer's existence) and with one
    ticking at 10 ms across the run — and reports the enabled tick overhead.
    Rates are best-of-two to damp scheduler noise.
    """
    from repro.facility import Facility, FacilityConfig

    def run_once(enabled: bool) -> Tuple[float, int]:
        farm = build_farm(4, small_cloud_server(), policy=LeastLoadedPolicy(), seed=1)
        rng = RandomSource(1)
        factory = SingleTaskJobFactory(ExponentialService(0.005), rng.stream("s"))
        facility = None
        if enabled:
            # Horizon just past the ~10 s the workload needs, so the tick
            # chain covers the run but does not keep the queue alive after.
            facility = Facility(
                farm.engine, farm.servers, FacilityConfig(tick_s=0.01)
            )
            facility.start(until=12.0)
        start = time.perf_counter()
        drive(farm, PoissonProcess(2000.0, rng.stream("a")), factory,
              max_jobs=n_jobs, drain=True)
        elapsed = time.perf_counter() - start
        ticks = 0
        if facility is not None:
            facility.stop()
            ticks = facility.ticks
        return farm.scheduler.jobs_completed / elapsed, ticks

    disabled = max(run_once(False)[0], run_once(False)[0])
    first = run_once(True)
    enabled = max(first[0], run_once(True)[0])
    return {
        "jobs_per_s_disabled": round(disabled),
        "jobs_per_s_enabled": round(enabled),
        "ticks": first[1],
        "tick_overhead_pct": round((disabled - enabled) / disabled * 100, 2),
    }


def bench_net_packet_throughput(n_packets: int = 50_000) -> float:
    """Per-packet data-plane throughput (packets/s) under heavy queueing.

    A same-instant storm of single packets across a star fabric: every
    directed hop serialises its share through the output queue, so this
    measures the per-packet event path (queue churn + port power activity),
    which is also the fast path's materialization fallback.
    """
    from repro.core.engine import Engine as _Engine
    from repro.network.packet import PacketNetwork
    from repro.network.topology import star

    engine = _Engine()
    topo = star(engine, 16)
    net = PacketNetwork(engine, topo)
    for i in range(n_packets):
        src = i % 16
        dst = (src + 1 + (i % 15)) % 16
        engine.post_at(0.0, net.send_packet, f"h{src}", f"h{dst}", 1500.0)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return net.packets_delivered / elapsed


def _fanout_wall_clock(fast_path: bool, rounds: int) -> Tuple[float, int]:
    """Wall-clock seconds for a rounds×16-transfer permutation workload.

    Disjoint server pairs on a 32-host star, so every route is idle when its
    transfer launches: with ``fast_path`` each 100-packet transfer collapses
    to a handful of events, without it ~400.  Returns (seconds, transfers).
    """
    from repro.core.engine import Engine as _Engine
    from repro.network.packet import PacketNetwork
    from repro.network.topology import star

    engine = _Engine()
    topo = star(engine, 32)
    net = PacketNetwork(engine, topo, fast_path=fast_path)
    done = [0]

    def bump() -> None:
        done[0] += 1

    def launch_round() -> None:
        for i in range(16):
            net.transfer(2 * i, 2 * i + 1, 150_000.0, bump)

    for r in range(rounds):
        # 2 ms apart: every transfer (~1.3 ms end to end) finishes and its
        # links go idle again before the next round launches.
        engine.schedule_at(r * 2e-3, launch_round)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    assert done[0] == 16 * rounds
    return elapsed, done[0]


def bench_net_transfer_fanout(rounds: int = 25) -> Tuple[float, float]:
    """Fast-path transfer throughput (transfers/s) and speedup vs per-packet.

    Runs the identical permutation workload with the fast path off and on;
    the delivered timestamps are bit-identical (see
    ``tests/network/test_fast_path.py``), only the event count differs.
    """
    wall_slow, _ = _fanout_wall_clock(False, rounds)
    wall_fast, n = _fanout_wall_clock(True, rounds)
    return n / wall_fast, (wall_slow / wall_fast if wall_fast else 0.0)


def bench_net_large_topology(n_routes: int = 30_000) -> float:
    """ECMP route queries/s on a k=8 fat-tree (128 hosts, 80 switches).

    Includes the lazy BFS table builds, which amortise across queries —
    the pattern the next-hop-table router replaced per-pair
    ``all_shortest_paths`` enumeration with.
    """
    from repro.core.engine import Engine as _Engine
    from repro.network.routing import Router
    from repro.network.topology import fat_tree

    engine = _Engine()
    topo = fat_tree(engine, 8)
    router = Router(topo)
    n_servers = topo.n_servers
    start = time.perf_counter()
    for i in range(n_routes):
        src = (i * 7 + 3) % n_servers
        dst = (i * 13 + 29) % n_servers
        if src == dst:
            dst = (dst + 1) % n_servers
        router.route(f"h{src}", f"h{dst}", flow_key=f"f{i & 1023}")
    elapsed = time.perf_counter() - start
    return n_routes / elapsed


def bench_collective(
    n_ranks: int = 1024,
    fat_tree_k: int = 16,
    size_bytes: float = 1e6,
    rounds: int = 8,
) -> Dict[str, Any]:
    """1,024-node ring allreduce end to end through the packet-train path.

    One :func:`~repro.collective.ring_allreduce_job` over a k=16 fat tree
    (1,024 hosts), placed by :class:`~repro.scheduling.placement.
    GroupPlacementPolicy` and executed by the global scheduler over
    :class:`~repro.network.packet.PacketNetwork` — the full collective
    stack, not a microbench of one layer.  ``rounds`` DAG rounds fold the
    ``2(p-1)`` chunk phases via ``phase_batch`` (byte-exact); the 1 MB
    buffer keeps the per-packet train precompute (O(packets) per transfer)
    from drowning the event-path cost this point gates.  The run ends with
    a strict :func:`~repro.core.invariants.audit_collective`, so the bench
    doubles as a conservation check at scale.
    """
    import math as _math

    from repro.collective import ring_allreduce_job
    from repro.core.invariants import audit_collective
    from repro.network.packet import PacketNetwork
    from repro.network.topology import fat_tree
    from repro.scheduling.global_scheduler import GlobalScheduler
    from repro.scheduling.placement import GroupPlacementPolicy
    from repro.server.server import Server

    engine = Engine()
    topo = fat_tree(engine, fat_tree_k)
    if topo.n_servers < n_ranks:
        raise ValueError(
            f"k={fat_tree_k} fat tree has {topo.n_servers} hosts < {n_ranks} ranks"
        )
    config = small_cloud_server(n_cores=1)
    servers = [Server(engine, config, server_id=i) for i in range(topo.n_servers)]
    net = PacketNetwork(engine, topo)
    scheduler = GlobalScheduler(
        engine, servers, policy=GroupPlacementPolicy(topo), network=net
    )
    phases = 2 * (n_ranks - 1)
    batch = _math.ceil(phases / rounds)
    job = ring_allreduce_job(n_ranks, size_bytes, phase_batch=batch, job_id=0)
    start = time.perf_counter()
    scheduler.submit_job(job)
    while scheduler.jobs_completed < 1:
        if not engine.step():
            break
    wall = time.perf_counter() - start
    if scheduler.jobs_completed != 1:
        raise RuntimeError("collective bench: allreduce job did not complete")
    audit_collective(scheduler, net, jobs=[job]).raise_if_violated()
    return {
        "n_ranks": n_ranks,
        "fat_tree_k": fat_tree_k,
        "size_bytes": size_bytes,
        "phase_batch": batch,
        "transfers": job.collective.n_transfers,
        "wire_bytes": job.collective.wire_bytes,
        "sim_time_s": round(engine.now, 6),
        "wall_s": round(wall, 3),
        "allreduce_events_per_s": round(engine.events_executed / wall)
        if wall else 0,
        "transfers_per_s": round(job.collective.n_transfers / wall)
        if wall else 0,
        "trains_engaged": net.trains_engaged,
        "trains_materialized": net.trains_materialized,
        "edge_switches_used": job.group.edge_switches_used,
        "cross_pod_spills": job.group.cross_pod_spills,
        "audit_ok": True,
    }


def _sweep_wall_clock(jobs: int, n_servers: int, duration_s: float) -> float:
    """Wall-clock seconds for an 8-point delay-timer sweep."""
    start = time.perf_counter()
    delay_timer.run_delay_timer_sweep(
        web_search_profile(),
        tau_values=(0.01, 0.05, 0.1, 0.4),
        utilizations=(0.1, 0.3),
        n_servers=n_servers,
        n_cores=2,
        duration_s=duration_s,
        seed=1,
        jobs=jobs,
    )
    return time.perf_counter() - start


def run_bench(
    quick: bool = False,
    sweep_jobs: int = 4,
    skip_sweep: bool = False,
) -> Dict[str, Any]:
    """Run the full bench suite and return the result document."""
    result: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            # Affinity-aware: in containers os.cpu_count() reports the host
            # machine, not the CPUs this process (and the elastic sweep
            # workers, which clamp to the same value) can actually use.
            "cpus": host_cpus(),
        },
    }

    # The engine microbenches are sub-second even at full size; keeping them
    # full-size in quick mode keeps quick rates directly comparable to the
    # committed full-mode baseline (rates fall with smaller event counts as
    # warm-up dominates, which would eat into the regression tolerance).
    result["engine"] = {
        "events_per_s": round(bench_engine_events(200_000)),
        "schedule_cancel_per_s": round(bench_schedule_cancel(200_000)),
    }
    n_churn = 10_000 if quick else 20_000
    result["farm"] = {
        "jobs_per_s": round(bench_task_churn(n_churn)),
    }

    # Telemetry on/off: the hook-disabled rate is gated against the committed
    # baseline (zero-cost-when-off guarantee); the traced farm rate shows the
    # full emit-site cost when a session is active.
    result["telemetry"] = bench_telemetry_overhead(200_000)
    result["telemetry"]["jobs_per_s_traced"] = round(
        bench_task_churn(n_churn, traced=True)
    )

    # Facility on/off: simulations that never attach the facility layer must
    # not pay for it (the disabled rate is gated against the baseline), and
    # the ticking plant should cost ~nothing next to task churn.
    result["facility"] = bench_facility_overhead(n_churn)

    # The packet and routing benches stay full-size in quick mode for the
    # same comparability reason as the engine benches: at smaller query
    # counts the BFS table builds / queue warm-up dominate and the measured
    # rate drops well below the committed full-mode baseline.
    fanout_rate, fanout_speedup = bench_net_transfer_fanout(8 if quick else 25)
    result["network"] = {
        "packets_per_s": round(bench_net_packet_throughput(50_000)),
        "fanout_transfers_per_s": round(fanout_rate),
        "fanout_speedup": round(fanout_speedup, 2),
        "routes_per_s": round(bench_net_large_topology(30_000)),
    }

    if not skip_sweep:
        n_servers = 6 if quick else 12
        duration_s = 3.0 if quick else 10.0
        wall_serial = _sweep_wall_clock(1, n_servers, duration_s)
        wall_parallel = _sweep_wall_clock(sweep_jobs, n_servers, duration_s)
        result["sweep"] = {
            "points": 8,
            "workers": sweep_jobs,
            "wall_s_jobs1": round(wall_serial, 3),
            f"wall_s_jobs{sweep_jobs}": round(wall_parallel, 3),
            "speedup": round(wall_serial / wall_parallel, 3) if wall_parallel else None,
        }

    # Pooled vs exact A/B at the 4,096-server point (quick mode shrinks the
    # job count, not the farm, so the pooled fast path is always exercised at
    # scale); full mode adds the 65,536-server point from the tentpole claim.
    n_scal_jobs = 5_000 if quick else 50_000
    # Best-of-2 on BOTH paths of the A/B: a single 4-second sample is at the
    # mercy of host noise, and pool_speedup divides the two — sampling them
    # asymmetrically biased the ratio (the PR-8 fix).  ``pool`` is forced on
    # one side and off the other; what the auto-selector would actually pick
    # at this point is recorded alongside.
    scal = min(
        (
            scalability.run_scalability(
                n_servers=4096, n_jobs=n_scal_jobs, pool=True
            )
            for _ in range(2)
        ),
        key=lambda r: r.wall_seconds,
    )
    exact = min(
        (
            scalability.run_scalability(
                n_servers=4096, n_jobs=n_scal_jobs, pool=False
            )
            for _ in range(2)
        ),
        key=lambda r: r.wall_seconds,
    )
    result["scalability"] = {
        "n_servers": scal.n_servers,
        "n_jobs": scal.n_jobs,
        "events_per_s": round(scal.events_per_second),
        "jobs_per_s": round(scal.jobs_per_wall_second),
        "events_per_s_exact": round(exact.events_per_second),
        "pool_speedup": round(
            scal.jobs_per_wall_second / exact.jobs_per_wall_second, 2
        ) if exact.jobs_per_wall_second else None,
        "pool_auto": scalability.choose_pool(4096, 0.3),
        "pool_captures": scal.pool_captures,
        "pool_peak": scal.pool_peak,
    }
    if not quick:
        big = scalability.run_scalability(n_servers=65_536, n_jobs=50_000)
        result["scalability_65536"] = {
            "n_servers": big.n_servers,
            "n_jobs": big.n_jobs,
            "events_per_s": round(big.events_per_second),
            "jobs_per_s": round(big.jobs_per_wall_second),
            "pool_captures": big.pool_captures,
            "pool_peak": big.pool_peak,
        }

    # Collective data plane: the committed 1,024-rank ring-allreduce point
    # runs full-size in quick mode too — it IS the gate, and the strict
    # conservation audit inside doubles as a correctness check at scale.
    result["collective"] = bench_collective()
    return result


def check_regression(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.30,
) -> List[str]:
    """Compare throughput metrics against a baseline document.

    Returns a list of human-readable regression messages (empty = pass).  A
    metric regresses when it falls more than ``tolerance`` (fractional)
    below the baseline.  Only rate metrics are compared — wall-clock numbers
    depend on bench sizing, which ``--quick`` changes.
    """
    watched = [
        ("engine", "events_per_s"),
        ("engine", "schedule_cancel_per_s"),
        ("farm", "jobs_per_s"),
        ("telemetry", "events_per_s_hook_disabled"),
        ("facility", "jobs_per_s_disabled"),
        ("network", "packets_per_s"),
        ("network", "fanout_transfers_per_s"),
        ("network", "routes_per_s"),
        ("scalability", "events_per_s"),
        ("collective", "allreduce_events_per_s"),
    ]
    problems = []
    for section, metric in watched:
        base = baseline.get(section, {}).get(metric)
        cur = current.get(section, {}).get(metric)
        if not base or not cur:
            continue
        if cur < base * (1.0 - tolerance):
            problems.append(
                f"{section}.{metric} regressed: {cur:,.0f} < "
                f"{base * (1.0 - tolerance):,.0f} "
                f"(baseline {base:,.0f}, tolerance {tolerance:.0%})"
            )
    return problems


def render(result: Dict[str, Any]) -> str:
    """Human-readable summary of a bench document."""
    lines = [f"repro bench ({'quick' if result.get('quick') else 'full'} mode)"]
    engine = result.get("engine", {})
    lines.append(f"  engine events/s:          {engine.get('events_per_s', 0):>12,}")
    lines.append(f"  schedule+cancel pairs/s:  {engine.get('schedule_cancel_per_s', 0):>12,}")
    lines.append(f"  farm jobs/s:              {result.get('farm', {}).get('jobs_per_s', 0):>12,}")
    telem = result.get("telemetry")
    if telem:
        lines.append(
            f"  telemetry off events/s:   {telem.get('events_per_s_hook_disabled', 0):>12,} "
            f"(hook on: {telem.get('hook_overhead_pct', 0):+.1f}%)"
        )
        lines.append(
            f"  telemetry traced jobs/s:  {telem.get('jobs_per_s_traced', 0):>12,}"
        )
    facility = result.get("facility")
    if facility:
        lines.append(
            f"  facility off jobs/s:      {facility.get('jobs_per_s_disabled', 0):>12,} "
            f"(ticking: {facility.get('tick_overhead_pct', 0):+.1f}%)"
        )
    network = result.get("network")
    if network:
        lines.append(f"  net packets/s:            {network.get('packets_per_s', 0):>12,}")
        lines.append(
            f"  net fanout transfers/s:   {network.get('fanout_transfers_per_s', 0):>12,} "
            f"({network.get('fanout_speedup', 0):.1f}x vs per-packet)"
        )
        lines.append(f"  net routes/s:             {network.get('routes_per_s', 0):>12,}")
    sweep = result.get("sweep")
    if sweep:
        workers = sweep.get("workers", 4)
        lines.append(
            f"  sweep ({sweep['points']} pts) wall:     "
            f"{sweep['wall_s_jobs1']:.2f}s @jobs=1 -> "
            f"{sweep[f'wall_s_jobs{workers}']:.2f}s @jobs={workers} "
            f"({sweep['speedup']:.2f}x)"
        )
    scal = result.get("scalability", {})
    line = (
        f"  scalability ({scal.get('n_servers', 0):,} servers): "
        f"{scal.get('events_per_s', 0):>12,} events/s, "
        f"{scal.get('jobs_per_s', 0):,} jobs/s"
    )
    if scal.get("pool_speedup") is not None:
        line += f" (pool {scal['pool_speedup']:.2f}x vs exact)"
    lines.append(line)
    big = result.get("scalability_65536")
    if big:
        lines.append(
            f"  scalability ({big.get('n_servers', 0):,} servers): "
            f"{big.get('events_per_s', 0):>12,} events/s, "
            f"{big.get('jobs_per_s', 0):,} jobs/s"
        )
    collective = result.get("collective")
    if collective:
        lines.append(
            f"  collective ({collective.get('n_ranks', 0):,}-rank ring): "
            f"{collective.get('allreduce_events_per_s', 0):>12,} events/s "
            f"({collective.get('transfers', 0):,} transfers, "
            f"{collective.get('trains_engaged', 0):,} trains)"
        )
    return "\n".join(lines)


def main(
    out: Optional[str] = "BENCH_core.json",
    quick: bool = False,
    sweep_jobs: int = 4,
    skip_sweep: bool = False,
    check_against: Optional[str] = None,
    tolerance: float = 0.30,
) -> int:
    """Entry point used by the ``repro bench`` CLI subcommand."""
    result = run_bench(quick=quick, sweep_jobs=sweep_jobs, skip_sweep=skip_sweep)
    print(render(result))
    if out:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")
    if check_against:
        with open(check_against) as fh:
            baseline = json.load(fh)
        problems = check_regression(result, baseline, tolerance=tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"no regressions vs {check_against} (tolerance {tolerance:.0%})")
    return 0
