"""Repetitions, failure accounting and the reported metrics.

The parent process never imports the simulator: every repetition runs in a
fresh interpreter (:mod:`bench.rep`), one at a time, so at most two
processes are alive and each repetition's peak RSS is its own.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench.stats import quartiles, summarize

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = ROOT / "bench" / "results"
HISTORY_PATH = ROOT / "bench" / "history.jsonl"

#: Timed runs per workload in a full pass (plus one traced run).
RUNS = 5
#: Set-up samples per timed run: extra build-only repetitions top it up.
MIN_SETUP_SAMPLES = 3
#: Every repetition of one timed or traced run must end within this many
#: seconds of its start; one still running then is killed and counts as
#: failed.
RUN_DEADLINE_S = 170.0

#: End-to-end metrics (name -> unit), measured on untraced repetitions.
END_TO_END = {"run_s": "s", "setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}

#: Layer metrics (name -> unit) a traced run reports.
LAYER_METRICS = {
    "core.events": "count",
    "core.loop_s": "s",
    "core.audit_s": "s",
    "server.self_s": "s",
    "server.events": "count",
    "server.submit_task_calls": "count",
    "pool.captures": "count",
    "pool.materializations": "count",
    "pool.peak_pooled": "count",
    "pool.materialize_per_capture": "ratio",
    "power.events": "count",
    "power.sleep_transitions": "count",
    "scheduling.self_s": "s",
    "scheduling.select_server_calls": "count",
    "scheduling.select_server_s": "s",
    "scheduling.transfers_launched": "count",
    "mem.setup_mb": "MB",
    "mem.run_growth_mb": "MB",
    "mem.kb_per_job": "KB/job",
    "network.events": "count",
    "network.packets_delivered": "count",
    "network.transfer_calls": "count",
    "network.trains_engaged": "count",
    "network.trains_materialized": "count",
    "network.train_yield": "ratio",
    "network.flows_completed": "count",
    "network.route_calls": "count",
    "network.table_builds": "count",
    "workload.jobs_injected": "count",
    "trace.overhead_pct": "%",
}

#: Layer times that are exactly zero on workloads without that layer (no
#: power controller, no network, no arrival process).  Printed and saved
#: with the rest, but kept out of the timed-run JSON, whose times must be
#: measurements that vary from run to run.
LEDGER_ONLY = {
    "power.self_s": "s",
    "network.self_s": "s",
    "network.transfer_s": "s",
    "network.route_s": "s",
    "workload.self_s": "s",
    "other.self_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no simulator sources, bad arguments)."""


def check_checkout(root: Path = ROOT) -> None:
    """Refuse to run unless the simulator sources sit next to the benchmark."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {root / 'src' / 'repro'}")


def load_spec(path: Path = SPEC_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def launch(ref: str, seed: int, mode: str, timeout: float,
           root: Path = ROOT) -> Tuple[Optional[dict], Optional[str]]:
    """Run one repetition in a fresh interpreter: (result, None) or (None, error)."""
    request = json.dumps({"workload": ref, "seed": seed, "mode": mode})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from bench.rep import main; main()", request],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"crashed: no result within {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return None, f"crashed: {tail[0]}"
    return json.loads(lines[-1]), None


def failures(result: dict, expected_digest: Optional[str]) -> List[str]:
    """Why a finished repetition counts as failed (empty = it passed)."""
    problems = [f"audit: {v}" for v in result["violations"]]
    if result["jobs_completed"] < result["jobs_target"]:
        problems.append(
            f"short: {result['jobs_completed']} of {result['jobs_target']} jobs completed"
        )
    if expected_digest is not None and result["digest"] != expected_digest:
        problems.append(f"digest: {result['digest']} != expected {expected_digest}")
    return problems


class Session:
    """Repetitions of one workload at one seed, with failure accounting.

    At the workload's default seed every repetition must reproduce the
    pinned digest.  At any other seed (or with nothing pinned) the first
    finished repetition sets the digest the others must repeat.
    """

    def __init__(self, ref: str, seed: int, pinned_digest: Optional[str],
                 root: Path = ROOT):
        self.ref = ref
        self.seed = seed
        self.root = root
        self.expected = pinned_digest
        self.attempted = 0
        self.failures: List[str] = []

    def rep(self, mode: str, deadline: Optional[float] = None) -> Optional[dict]:
        """Run one repetition, killed at ``deadline`` (``time.monotonic()``;
        default :data:`RUN_DEADLINE_S` from now); returns its result unless
        it crashed."""
        if deadline is None:
            deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted += 1
        result, error = launch(self.ref, self.seed, mode,
                               max(0.0, deadline - time.monotonic()), self.root)
        if result is None:
            self.failures.append(f"{mode} #{self.attempted}: {error}")
            return None
        if mode != "setup":
            if self.expected is None:
                self.expected = result["digest"]
            for problem in failures(result, self.expected):
                self.failures.append(f"{mode} #{self.attempted}: {problem}")
        return result


def pinned_workloads(root: Path = ROOT) -> Dict[str, dict]:
    """Workload name -> default seed and pinned digest, in run order."""
    return json.loads((root / "bench" / "pinned.json").read_text())["workloads"]


def session_for(name: str, seed: Optional[int], root: Path = ROOT) -> Session:
    """A session at ``seed`` (None = the workload's default, pinned digest)."""
    pinned = pinned_workloads(root)
    if name not in pinned:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(pinned)}")
    entry = pinned[name]
    if seed is None:
        seed = entry["seed"]
    digest = entry["digest"] if seed == entry["seed"] else None
    return Session(name, seed, digest, root)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def e2e_samples(reps: Sequence[dict]) -> Dict[str, List[float]]:
    return {
        "run_s": [r["run_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
        "total_s": [r["total_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in reps],
    }


def layer_metrics(traced: dict, plain: Sequence[dict]) -> Dict[str, float]:
    """Every layer metric from one traced repetition and the untraced ones."""
    out: Dict[str, float] = {}
    out.update(traced["counters"])
    out.update(traced["layers"])
    out["core.audit_s"] = traced["audit_s"]
    growth_kb = quartiles([r["peak_rss_kb"] - r["setup_rss_kb"] for r in plain])[1]
    out["mem.setup_mb"] = quartiles([r["setup_rss_kb"] for r in plain])[1] / 1024
    out["mem.run_growth_mb"] = growth_kb / 1024
    out["mem.kb_per_job"] = growth_kb / max(1, traced["jobs_completed"])
    # Against the fastest untraced run, as in a timed run.
    base_run_s = min(r["run_s"] for r in plain)
    out["trace.overhead_pct"] = 100.0 * (traced["run_s"] / base_run_s - 1.0)
    return {name: out[name] for name in (*LAYER_METRICS, *LEDGER_ONLY)}


def _result_line(session: Session, metrics: Dict[str, float], units: Dict[str, str]) -> dict:
    return {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def untraced_run(session: Session, seconds: float) -> Tuple[Dict[str, float], int]:
    """One timed run: (end-to-end metrics, jobs completed).

    Repetitions follow one another until the next would end past
    ``seconds`` (at least one), and set-up gets extra build-only repetitions
    until it has :data:`MIN_SETUP_SAMPLES` samples.  Each time metric is the
    fastest of its samples: every repetition simulates the same seeded
    input, and interference from other work on a shared host only ever adds
    time, so the fastest is the least disturbed measurement of that work.
    Peak RSS is the median.
    """
    reps: List[dict] = []
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    attempted = session.attempted
    while True:
        result = session.rep("plain", deadline)
        if result is not None:
            reps.append(result)
        elapsed = time.monotonic() - start
        n = session.attempted - attempted
        if elapsed * (n + 1) / n > seconds:
            break
    if not reps:
        raise BenchError("; ".join(session.failures))
    samples = e2e_samples(reps)
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        probe = session.rep("setup", deadline)
        if probe is None:
            break
        samples["setup_s"].append(probe["setup_s"])
    values = {name: min(v) for name, v in samples.items()}
    values["peak_rss_mb"] = quartiles(samples["peak_rss_mb"])[1]
    return values, reps[0]["jobs_completed"]


def traced_run(session: Session) -> Dict[str, float]:
    """A traced repetition between two untraced ones: every layer metric."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    reps = [session.rep(mode, deadline) for mode in ("plain", "traced", "plain")]
    if None in reps:
        raise BenchError("; ".join(session.failures))
    return layer_metrics(reps[1], [reps[0], reps[2]])


def timed_run(session: Session, seconds: float, trace: bool) -> dict:
    """The ``--seconds`` mode: one run, as a single JSON-ready result line."""
    if trace:
        return _result_line(session, traced_run(session), LAYER_METRICS)
    return _result_line(session, untraced_run(session, seconds)[0], END_TO_END)


# ----------------------------------------------------------------------
# Full pass
# ----------------------------------------------------------------------
def host_info() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def commit_id(root: Path = ROOT) -> str:
    """Short HEAD hash, ``+dirty`` with uncommitted changes; ``unknown`` outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=root, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty.strip() else "")


def full_pass(names: Sequence[str], seed: Optional[int]) -> dict:
    """:data:`RUNS` timed runs plus one traced run per workload.

    Timed runs go round-robin over the workloads, so each workload's runs
    spread over the whole pass and a slow spell of the host lands on all
    workloads rather than on one.
    """
    seconds = load_spec()["run_seconds"]
    sessions = {name: session_for(name, seed) for name in names}
    runs: Dict[str, List[Tuple[Dict[str, float], int]]] = {name: [] for name in names}
    for round_ in range(1, RUNS + 1):
        print(f"[bench] round {round_}/{RUNS}: one {seconds} s timed run per workload",
              flush=True)
        for name, session in sessions.items():
            try:
                runs[name].append(untraced_run(session, seconds))
            except BenchError:
                pass  # the session has recorded why
    out = {"commit": commit_id(), "host": host_info(), "seed": seed, "runs": RUNS,
           "run_seconds": seconds, "workloads": {}}
    print("[bench] one traced run per workload", flush=True)
    for name, session in sessions.items():
        try:
            layers = traced_run(session)
        except BenchError:
            layers = None
        entry = {"seed": session.seed, "digest": session.expected,
                 "attempted": session.attempted, "failed": len(session.failures),
                 "failures": session.failures}
        if runs[name]:
            samples = {m: [values[m] for values, _ in runs[name]] for m in END_TO_END}
            entry["samples"] = samples
            entry["summary"] = {m: summarize(v) for m, v in samples.items()}
            entry["jobs"] = runs[name][0][1]
        if layers is not None:
            entry["layers"] = layers
        out["workloads"][name] = entry
    return out


def render_pass(result: dict) -> str:
    lines = [f"commit {result['commit']}  host {json.dumps(result['host'])}"]
    for name, entry in result["workloads"].items():
        lines.append("")
        lines.append(f"== {name}  seed {entry['seed']}  digest {entry['digest']}  "
                     f"failed {entry['failed']}/{entry['attempted']}")
        lines.extend(f"   FAILED {f}" for f in entry["failures"])
        for metric, summary in entry.get("summary", {}).items():
            lines.append(
                f"   {metric:<12} median {summary['median']:>10.4f} "
                f"[q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}] "
                f"{END_TO_END[metric]:<3} n={summary['n']}"
            )
        if "summary" in entry:
            jobs_per_s = entry["jobs"] / entry["summary"]["run_s"]["median"]
            lines.append(f"   {'jobs_per_s':<12} {jobs_per_s:>17.1f} 1/s (information)")
        units = {**LAYER_METRICS, **LEDGER_ONLY}
        for metric, value in entry.get("layers", {}).items():
            shown = f"{value:.4f}" if isinstance(value, float) else f"{value}"
            lines.append(f"   {metric:<31} {shown:>14} {units[metric]}")
    return "\n".join(lines)


def save_pass(result: dict, results_dir: Path = RESULTS_DIR,
              history_path: Path = HISTORY_PATH) -> Path:
    """Write the pass to ``results/latest.json`` and append its history row."""
    results_dir.mkdir(parents=True, exist_ok=True)
    latest = results_dir / "latest.json"
    latest.write_text(json.dumps(result, indent=1) + "\n")
    row = {
        "commit": result["commit"],
        "host": result["host"],
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": result["seed"],
        "runs": result["runs"],
        "run_seconds": result["run_seconds"],
        "workloads": {
            name: {"failed": e["failed"], "attempted": e["attempted"],
                   "digest": e["digest"], **e.get("summary", {}),
                   "layers": e.get("layers", {})}
            for name, e in result["workloads"].items()
        },
    }
    with open(history_path, "a") as fh:
        fh.write(json.dumps(row) + "\n")
    return latest
