"""Command-line interface: run case studies from the shell.

The paper describes HolDCSim as driven by "a configurable user script";
this module is that surface.  Each subcommand runs one experiment with
paper-default (but overridable) parameters and prints the same rows/series
the paper's figure reports::

    python -m repro provisioning --servers 20 --duration 120
    python -m repro delay-timer --workload web-search --taus 0 0.01 0.1 1 5
    python -m repro residency --utilizations 0.1 0.3 0.6
    python -m repro joint --num-jobs 500
    python -m repro validate-server
    python -m repro validate-switch --duration 1800
    python -m repro scalability --servers 20480
    python -m repro faults --mtbfs 120 60 30 --retry-limit 3
    python -m repro bench --quick

Sweeps are durable point by point through ``--journal PATH --resume``:
Ctrl-C exits 130 with the resume command, and a journal locked by another
live run fails fast with exit 2.

Every subcommand accepts ``--jobs N`` to evaluate independent sweep points
on up to N worker processes, never more than the host's CPUs (results are
bit-identical to ``--jobs 1``; commands that run a single simulation accept
and ignore it).  Sweep points are not retried: a point that raises stops the
sweep unless ``--keep-going`` is given, and a point that overruns
``--point-timeout S`` stops it regardless.  ``repro bench`` runs
the eight hot-path microbenchmarks that CI gates and writes their rates to
``BENCH_core.json``.

Every subcommand also accepts the observability flags: ``--trace out.json``
exports a Chrome/Perfetto trace of the run, ``--metrics out.json`` (or
``.csv``) snapshots the unified metrics registry, and ``--profile`` prints
the event-loop hot-handler table.  They are written on every exit: a run
that stops early (a failed point, Ctrl-C) leaves what it recorded up to the
stop, including the events of the point that stopped it.

Use ``--help`` on any subcommand for its knobs.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, List, Optional

from repro.runner import SweepInterrupted, SweepOptions
from repro.runner.lock import LockHeldError
from repro.experiments import (
    adaptive,
    ai_training,
    delay_timer,
    facility_carbon,
    fault_resilience,
    joint_energy,
    provisioning,
    scalability,
    validation_server,
    validation_switch,
)
from repro.workload.profiles import (
    WorkloadProfile,
    web_search_profile,
    web_serving_profile,
)
from repro.core.rng import RandomSource
from repro.workload.trace import (
    ArrivalTrace,
    synthesize_nlanr_trace,
    synthesize_wikipedia_trace,
)

WORKLOADS = {
    "web-search": web_search_profile,
    "web-serving": web_serving_profile,
}


def _workload(name: str) -> WorkloadProfile:
    try:
        return WORKLOADS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None


def _checked(kind: type, what: str, ok: Callable[[float], bool]):
    """argparse ``type=`` for a value parsed with ``kind`` that ``ok`` holds
    for.  Text ``kind`` cannot parse reads as NaN, which no check accepts."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


def _positive(kind: type, what: str, zero_ok: bool = False):
    """argparse ``type=`` for a finite number > 0 (>= 0 with ``zero_ok``),
    parsed with ``kind``."""
    if zero_ok:
        return _checked(kind, what, lambda value: 0 <= value < math.inf)
    return _checked(kind, what, lambda value: 0 < value < math.inf)


_seconds = _positive(float, "a finite number of seconds > 0")
_count = _positive(int, "an integer >= 1")
_rate = _positive(float, "a finite rate > 0 (per second)")
#: A delay timer (τ = 0 sleeps as soon as the server is idle) or an MTBF
#: (0 = no faults).
_seconds_or_zero = _positive(float, "a finite number of seconds >= 0", zero_ok=True)
_count_or_zero = _positive(int, "an integer >= 0", zero_ok=True)
_utilization = _positive(float, "a finite utilization > 0")
_load = _positive(float, "a finite load per server > 0")
_bytes = _positive(float, "a finite number of bytes > 0")
_celsius = _checked(float, "a finite temperature (°C)", math.isfinite)
_fraction = _checked(float, "a finite fraction in [0, 1)", lambda value: 0 <= value < 1)
_fat_tree_k = _checked(int, "an even integer >= 2", lambda k: k >= 2 and k % 2 == 0)


def _sweep_options(args: argparse.Namespace) -> SweepOptions:
    """Build the sweep execution policy from the common flags."""
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal PATH")
    return SweepOptions(
        point_timeout_s=args.point_timeout,
        keep_going=args.keep_going,
        journal_path=args.journal,
        resume=args.resume,
    )


def _make_telemetry_session(args: argparse.Namespace):
    """Build the session the telemetry flags ask for; None when untouched."""
    if not (args.trace or args.metrics or args.profile):
        return None
    from repro.telemetry import TelemetrySession

    return TelemetrySession(
        trace=bool(args.trace),
        categories=tuple(args.trace_categories) if args.trace_categories else None,
        metrics=bool(args.metrics),
        profile=bool(args.profile),
    )


def _export_telemetry(args: argparse.Namespace, sess) -> None:
    """Write the trace/metrics files and print the profile table.

    Sweep commands hand back per-point payloads (``sess.point_captures``, in
    point order); single-run commands recorded into the session directly.
    The trace line also counts the oldest events each ring dropped once it
    was full.
    """
    from repro.telemetry import chrome_trace, chrome_trace_points, write_chrome_trace
    from repro.telemetry.metrics import write_metrics
    from repro.telemetry.profiler import DispatchProfiler

    points = sess.point_captures
    if args.trace:
        if points:
            doc = chrome_trace_points(
                [(label, payload.get("events", ())) for label, payload in points]
            )
            n_events = sum(len(p.get("events", ())) for _, p in points)
        else:
            doc = chrome_trace(sess.recorder.events, label=args.command)
            n_events = len(sess.recorder.events)
        dropped = sess.recorder.dropped + sum(
            p.get("dropped", 0) for _, p in points
        )
        write_chrome_trace(args.trace, doc)
        print(
            f"[repro.telemetry] {n_events} trace events "
            f"({dropped} older events dropped) -> {args.trace} "
            f"(open in ui.perfetto.dev)",
            file=sys.stderr,
        )
    if args.metrics:
        if points and any("metrics" in p for _, p in points):
            doc = {
                "points": [
                    {"label": label, **payload.get("metrics", {})}
                    for label, payload in points
                ]
            }
        else:
            doc = sess.metrics.snapshot()
        write_metrics(args.metrics, doc)
        print(f"[repro.telemetry] metrics -> {args.metrics}", file=sys.stderr)
    if args.profile:
        merged = DispatchProfiler.from_summaries(
            [payload.get("profile") for _, payload in points]
            + [sess.profiler.summary()]
        )
        print(merged.top_table())


def _audit_mode(args: argparse.Namespace) -> str:
    return "strict" if args.strict_invariants else "warn"


def _parse_threshold_pairs(specs: List[str]) -> List[tuple]:
    pairs = []
    for spec in specs:
        try:
            lo, hi = (float(part) for part in spec.split(":"))
        except ValueError:
            raise SystemExit(
                f"bad threshold pair {spec!r}; expected MIN:MAX (e.g. 0.5:1.5)"
            ) from None
        if not (0 < lo < math.inf and 0 < hi < math.inf):
            raise SystemExit(
                f"bad threshold pair {spec!r}; loads must be finite and > 0"
            )
        pairs.append((lo, hi))
    return pairs


def _cmd_provisioning(args: argparse.Namespace) -> None:
    trace = None
    if args.arrival_trace is not None:
        trace = ArrivalTrace.from_file(args.arrival_trace).clipped(args.duration)
    shared = dict(
        n_servers=args.servers,
        duration_s=args.duration,
        mean_rate=args.rate,
        day_length_s=args.day_length,
        seed=args.seed,
        trace=trace,
        audit=_audit_mode(args),
    )
    if args.sweep_thresholds:
        sweep = provisioning.run_provisioning_sweep(
            _parse_threshold_pairs(args.sweep_thresholds),
            jobs=args.jobs,
            sweep_options=_sweep_options(args),
            **shared,
        )
        print(sweep.render())
        return
    result = provisioning.run_provisioning(
        min_load_per_server=args.min_load,
        max_load_per_server=args.max_load,
        **shared,
    )
    print(result.render())


def _cmd_make_trace(args: argparse.Namespace) -> None:
    rng = RandomSource(args.seed).stream("trace")
    if args.style == "wikipedia":
        trace = synthesize_wikipedia_trace(
            rng, duration_s=args.duration, mean_rate=args.rate,
            day_length_s=args.day_length,
        )
    else:
        trace = synthesize_nlanr_trace(
            rng, duration_s=args.duration, mean_rate=args.rate
        )
    trace.to_file(args.out)
    print(
        f"wrote {len(trace)} arrivals ({trace.mean_rate():.1f}/s over "
        f"{trace.duration_s:.0f}s) to {args.out}"
    )


def _cmd_delay_timer(args: argparse.Namespace) -> None:
    sweep = delay_timer.run_delay_timer_sweep(
        _workload(args.workload),
        tau_values=args.taus,
        utilizations=args.utilizations,
        n_servers=args.servers,
        n_cores=args.cores,
        duration_s=args.duration,
        seed=args.seed,
        jobs=args.jobs,
        sweep_options=_sweep_options(args),
        audit=_audit_mode(args),
    )
    print(sweep.render())


def _cmd_residency(args: argparse.Namespace) -> None:
    result = adaptive.run_state_residency(
        _workload(args.workload),
        utilizations=args.utilizations,
        n_servers=args.servers,
        n_cores=args.cores,
        duration_s=args.duration,
        seed=args.seed,
        jobs=args.jobs,
        sweep_options=_sweep_options(args),
        audit=_audit_mode(args),
    )
    print(result.render())


def _cmd_joint(args: argparse.Namespace) -> None:
    comparison = joint_energy.run_joint_comparison(
        utilizations=args.utilizations,
        k=args.fat_tree_k,
        n_jobs=args.num_jobs,
        seed=args.seed,
        jobs=args.jobs,
        sweep_options=_sweep_options(args),
        audit=_audit_mode(args),
    )
    print(comparison.render())


def _cmd_validate_server(args: argparse.Namespace) -> None:
    result = validation_server.run_server_validation(
        duration_s=args.duration, mean_rate=args.rate, seed=args.seed,
        audit=_audit_mode(args),
    )
    print(result.render())


def _cmd_validate_switch(args: argparse.Namespace) -> None:
    result = validation_switch.run_switch_validation(
        duration_s=args.duration,
        day_length_s=args.duration / 2.0,
        mean_rate=args.rate,
        seed=args.seed,
        audit=_audit_mode(args),
    )
    print(result.render())


def _cmd_faults(args: argparse.Namespace) -> None:
    sweep = fault_resilience.run_fault_resilience_sweep(
        mtbf_values=args.mtbfs,
        mttr_s=args.mttr,
        n_servers=args.servers,
        n_cores=args.cores,
        utilization=args.utilization,
        duration_s=args.duration,
        retry_limit=args.retry_limit,
        slo_latency_s=args.slo,
        seed=args.seed,
        profile=_workload(args.workload),
        jobs=args.jobs,
        sweep_options=_sweep_options(args),
        audit=_audit_mode(args),
    )
    print(sweep.render())


def _cmd_facility_carbon(args: argparse.Namespace) -> None:
    sweep = facility_carbon.run_facility_carbon_sweep(
        setpoints_c=args.setpoints,
        carbon_profiles=args.carbon,
        n_servers=args.servers,
        n_cores=args.cores,
        n_zones=args.zones,
        utilization=args.utilization,
        duration_s=args.duration,
        thermal_limit_c=args.thermal_limit,
        seed=args.seed,
        jobs=args.jobs,
        sweep_options=_sweep_options(args),
        audit=_audit_mode(args),
    )
    print(sweep.render())


def _cmd_ai_training(args: argparse.Namespace) -> None:
    if args.make_goal:
        from repro.workload.goal import synthesize_training_goal

        trace = synthesize_training_goal(
            args.group_sizes[0],
            args.steps,
            compute_s=args.compute,
            size_bytes=args.bytes,
        )
        trace.to_file(args.make_goal)
        print(
            f"wrote GOAL trace ({trace.n_ranks} ranks, {len(trace.ops)} ops) "
            f"to {args.make_goal}"
        )
        return
    if args.goal_trace:
        result = ai_training.run_goal_replay(
            args.goal_trace, k=args.fat_tree_k, audit=_audit_mode(args)
        )
        print(result.render())
        return
    comparison = ai_training.run_ai_training_sweep(
        group_sizes=args.group_sizes,
        algorithms=args.algorithms,
        k=args.fat_tree_k,
        n_steps=args.steps,
        compute_s=args.compute,
        size_bytes=args.bytes,
        phase_batch=args.phase_batch,
        compute_jitter=args.jitter,
        seed=args.seed,
        jobs=args.jobs,
        sweep_options=_sweep_options(args),
        audit=_audit_mode(args),
    )
    print(comparison.render())


def _cmd_scalability(args: argparse.Namespace) -> None:
    if args.force_pool:
        pool = True
    elif args.no_pool:
        pool = False
    else:
        pool = "auto"
    if args.sizes:
        sweep = scalability.run_scalability_sweep(
            args.sizes, n_jobs=args.num_jobs, seed=args.seed, jobs=args.jobs,
            sweep_options=_sweep_options(args), audit=_audit_mode(args),
            pool=pool,
        )
        print(sweep.render())
        return
    result = scalability.run_scalability(
        n_servers=args.servers, n_jobs=args.num_jobs, seed=args.seed,
        audit=_audit_mode(args), pool=pool,
    )
    print(result.render())


def _cmd_bench(args: argparse.Namespace) -> None:
    from repro.runner import bench

    code = bench.main(
        out=args.out, quick=args.quick, check_against=args.check_against
    )
    if code:
        raise SystemExit(code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HolDCSim reproduction: run the paper's case studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1, help="root RNG seed")
        p.add_argument(
            "-j", "--jobs", default=1, metavar="N",
            type=_count,
            help="worker processes for independent sweep points, at most "
                 "one per host CPU (results are identical to --jobs 1)",
        )
        resilience = p.add_argument_group(
            "resilient sweeps",
            "fail-fast point timeout, checkpoint journal, and invariant audits",
        )
        resilience.add_argument(
            "--point-timeout", default=None, metavar="SECONDS", type=_seconds,
            help="stop the sweep if any point runs longer than this; "
                 "completed points stay journaled for --resume",
        )
        resilience.add_argument(
            "--keep-going", action="store_true",
            help="finish the sweep even if points raise; those points are "
                 "dropped from the report instead of aborting the run (a "
                 "timeout or a dead worker still stops it)",
        )
        resilience.add_argument(
            "--journal", default=None, metavar="PATH",
            help="checkpoint completed sweep points to this JSONL file",
        )
        resilience.add_argument(
            "--resume", action="store_true",
            help="reuse results recorded in --journal for unchanged points",
        )
        resilience.add_argument(
            "--strict-invariants", action="store_true",
            help="fail a point when its end-of-run conservation audit finds "
                 "violations (default: warn on stderr)",
        )
        observability = p.add_argument_group(
            "observability",
            "structured tracing, unified metrics, event-loop profiling "
            "(zero overhead when unused)",
        )
        observability.add_argument(
            "--trace", default=None, metavar="PATH",
            help="export a Chrome trace-event JSON of the run "
                 "(open in ui.perfetto.dev); sweeps merge every point into "
                 "one view, bit-identical across --jobs counts",
        )
        observability.add_argument(
            "--trace-categories", nargs="+", metavar="CAT", default=None,
            choices=["task", "power", "net", "sched", "fault", "job",
                     "facility", "collective"],
            help="restrict tracing to these event categories (default: all)",
        )
        observability.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="write a unified metrics snapshot (counters/gauges/"
                 "histograms/series) as JSON, or CSV when PATH ends in .csv",
        )
        observability.add_argument(
            "--profile", action="store_true",
            help="profile the event loop and print the hot-handler table",
        )

    p = sub.add_parser("provisioning", help="Fig. 4: threshold provisioning")
    p.add_argument("--servers", type=_count, default=50)
    p.add_argument("--duration", type=_seconds, default=120.0)
    p.add_argument("--rate", type=_rate, default=2000.0, help="mean jobs/s")
    p.add_argument("--day-length", type=_seconds, default=60.0)
    p.add_argument("--min-load", type=_load, default=0.5)
    p.add_argument("--max-load", type=_load, default=1.0)
    p.add_argument("--arrival-trace", default=None,
                   help="replay an arrival trace file instead of synthesizing")
    p.add_argument("--sweep-thresholds", nargs="+", metavar="MIN:MAX",
                   help="sweep (min,max) load threshold pairs instead of a "
                        "single run, e.g. --sweep-thresholds 0.25:1.0 0.5:1.5")
    common(p)
    p.set_defaults(fn=_cmd_provisioning)

    p = sub.add_parser("make-trace", help="synthesize an arrival trace file")
    p.add_argument("--style", choices=("wikipedia", "nlanr"), default="wikipedia")
    p.add_argument("--duration", type=_seconds, default=3600.0)
    p.add_argument("--rate", type=_rate, default=100.0)
    p.add_argument("--day-length", type=_seconds, default=3600.0)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(fn=_cmd_make_trace)

    p = sub.add_parser("delay-timer", help="Fig. 5: single delay timer sweep")
    p.add_argument("--workload", default="web-search", choices=sorted(WORKLOADS))
    p.add_argument("--taus", type=_seconds_or_zero, nargs="+",
                   default=[0.0, 0.01, 0.05, 0.1, 0.4, 1.0, 5.0])
    p.add_argument("--utilizations", type=_utilization, nargs="+",
                   default=[0.1, 0.3, 0.6])
    p.add_argument("--servers", type=_count, default=20)
    p.add_argument("--cores", type=_count, default=2)
    p.add_argument("--duration", type=_seconds, default=15.0)
    common(p)
    p.set_defaults(fn=_cmd_delay_timer)

    p = sub.add_parser("residency", help="Fig. 8: adaptive state residency")
    p.add_argument("--workload", default="web-search", choices=sorted(WORKLOADS))
    p.add_argument("--utilizations", type=_utilization, nargs="+",
                   default=[0.1, 0.3, 0.5, 0.7, 0.9])
    p.add_argument("--servers", type=_count, default=10)
    p.add_argument("--cores", type=_count, default=10)
    p.add_argument("--duration", type=_seconds, default=60.0)
    common(p)
    p.set_defaults(fn=_cmd_residency)

    p = sub.add_parser("joint", help="Fig. 11: joint server-network energy")
    p.add_argument("--utilizations", type=_utilization, nargs="+", default=[0.3, 0.6])
    p.add_argument("--fat-tree-k", type=_fat_tree_k, default=4)
    p.add_argument("--num-jobs", type=_count, default=2000,
                   help="simulated jobs per grid point")
    common(p)
    p.set_defaults(fn=_cmd_joint)

    p = sub.add_parser("validate-server", help="Fig. 12: server power validation")
    p.add_argument("--duration", type=_seconds, default=1000.0)
    p.add_argument("--rate", type=_rate, default=120.0)
    common(p)
    p.set_defaults(fn=_cmd_validate_server)

    p = sub.add_parser("validate-switch", help="Figs. 13/14: switch power validation")
    p.add_argument("--duration", type=_seconds, default=7200.0)
    p.add_argument("--rate", type=_rate, default=400.0)
    common(p)
    p.set_defaults(fn=_cmd_validate_switch)

    p = sub.add_parser("faults", help="fault injection: availability vs MTBF sweep")
    p.add_argument("--workload", default="web-search", choices=sorted(WORKLOADS))
    p.add_argument("--mtbfs", type=_seconds_or_zero, nargs="+",
                   default=[120.0, 60.0, 30.0, 15.0],
                   help="server mean-time-between-failures values (s); "
                        "0 disables faults")
    p.add_argument("--mttr", type=_seconds, default=5.0,
                   help="server mean-time-to-repair (s)")
    p.add_argument("--servers", type=_count, default=20)
    p.add_argument("--cores", type=_count, default=2)
    p.add_argument("--utilization", type=_utilization, default=0.3)
    p.add_argument("--duration", type=_seconds, default=60.0)
    p.add_argument("--retry-limit", type=_count_or_zero, default=3,
                   help="re-dispatch attempts before a task's job is failed")
    p.add_argument("--slo", type=_seconds, default=None,
                   help="count jobs slower than this latency (s) as SLO violations")
    common(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "facility-carbon",
        help="facility co-sim: CRAC setpoint × carbon profile sweep",
    )
    from repro.facility.signals import CARBON_PROFILES
    p.add_argument("--setpoints", type=_celsius, nargs="+", metavar="C",
                   default=list(facility_carbon.DEFAULT_SETPOINTS_C),
                   help="CRAC supply setpoints to sweep (°C)")
    p.add_argument("--carbon", nargs="+", metavar="PROFILE",
                   default=list(facility_carbon.DEFAULT_CARBON_PROFILES),
                   choices=list(CARBON_PROFILES),
                   help="carbon-intensity profiles to sweep")
    p.add_argument("--servers", type=_count, default=8)
    p.add_argument("--cores", type=_count, default=2)
    p.add_argument("--zones", type=_count, default=2,
                   help="thermal zones the farm is partitioned into")
    p.add_argument("--utilization", type=_utilization, default=0.6)
    p.add_argument("--duration", type=_seconds, default=40.0)
    p.add_argument("--thermal-limit", type=_celsius, default=45.0,
                   help="zone temperature (°C) at which DVFS throttling engages")
    common(p)
    p.set_defaults(fn=_cmd_facility_carbon)

    p = sub.add_parser(
        "ai-training",
        help="extension: synchronized training steps over collectives "
             "(group size × algorithm sweep)",
    )
    p.add_argument("--group-sizes", type=_count, nargs="+", metavar="P",
                   default=[4, 8, 16],
                   help="worker-group sizes (ranks) to sweep")
    p.add_argument("--algorithms", nargs="+", metavar="ALG",
                   default=list(ai_training.ALGORITHMS),
                   choices=list(ai_training.ALGORITHMS),
                   help="gradient-collective algorithms to sweep")
    p.add_argument("--fat-tree-k", type=_fat_tree_k, default=4)
    p.add_argument("--steps", type=_count, default=4,
                   help="synchronized training steps per job")
    p.add_argument("--compute", type=_seconds, default=0.05,
                   help="forward/backward compute time per step (s)")
    p.add_argument("--bytes", type=_bytes, default=4e6,
                   help="gradient buffer size per step (bytes)")
    p.add_argument("--phase-batch", type=_count, default=None, metavar="B",
                   help="fold B ring phases into one transfer (byte-exact; "
                        "default: exact up to 64 phases, then capped)")
    p.add_argument("--jitter", type=_fraction, default=0.0,
                   help="relative compute-time jitter in [0, 1) to model "
                        "stragglers")
    p.add_argument("--goal-trace", default=None, metavar="PATH",
                   help="replay a GOAL-style application trace instead of "
                        "the synthetic sweep")
    p.add_argument("--make-goal", default=None, metavar="PATH",
                   help="synthesize a training GOAL trace (first "
                        "--group-sizes value) to PATH and exit")
    common(p)
    p.set_defaults(fn=_cmd_ai_training)

    p = sub.add_parser("scalability", help="Table I: >20K-server scalability")
    p.add_argument("--servers", type=_count, default=20_480)
    p.add_argument("--num-jobs", type=_count, default=200_000,
                   help="simulated jobs to push through the farm")
    p.add_argument("--sizes", type=_count, nargs="+", metavar="N",
                   help="sweep several farm sizes instead of a single run")
    pool_group = p.add_mutually_exclusive_group()
    pool_group.add_argument("--pool", action="store_true", dest="force_pool",
                            help="force the pooled idle-server fast path "
                                 "(default: auto-select by farm size and "
                                 "utilization)")
    pool_group.add_argument("--no-pool", action="store_true",
                            help="force the exact per-server event path "
                                 "(disable the pooled fast path) for A/B "
                                 "debugging")
    common(p)
    p.set_defaults(fn=_cmd_scalability)

    p = sub.add_parser(
        "bench",
        help="run core + network microbenchmarks and record BENCH_core.json",
    )
    p.add_argument("--out", default="BENCH_core.json",
                   help="output JSON path ('' to skip writing)")
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes for CI smoke runs")
    p.add_argument("--check-against", default=None, metavar="BASELINE",
                   help="compare against a baseline BENCH_core.json and exit "
                        "non-zero on regression")
    common(p)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> None:
    args = build_parser().parse_args(argv)
    sess = _make_telemetry_session(args)
    try:
        if sess is None:
            args.fn(args)
        else:
            from repro.telemetry import session as telemetry

            prev = telemetry.activate(sess)
            finished = False
            try:
                args.fn(args)
                finished = True
            finally:
                telemetry.deactivate(prev)
                sess.close()
                # Every exit writes the telemetry, so a run that stopped
                # early loses nothing it recorded before the stop.
                _export_telemetry(args, sess)
                if not finished:
                    print(
                        "[repro.telemetry] the run stopped early: the "
                        "telemetry above holds what was recorded up to the stop",
                        file=sys.stderr,
                    )
    except SweepInterrupted as exc:
        print(
            f"\ninterrupted: {exc.completed}/{exc.total} sweep points completed",
            file=sys.stderr,
        )
        if exc.journal_path:
            print(
                f"completed points are journaled in {exc.journal_path}; "
                f"rerun with --journal {exc.journal_path} --resume to finish",
                file=sys.stderr,
            )
        raise SystemExit(130)
    except LockHeldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


if __name__ == "__main__":  # pragma: no cover
    main()
