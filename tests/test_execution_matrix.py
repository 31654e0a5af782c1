"""The execution-invariance matrix: the same seed and model give the same
report however the run is executed.

Rows are one tiny run per simulating subcommand (``ROWS``); columns are the
execution-only ways to run it, one test function each.  Every column drives
the real CLI in-process (``repro.cli.main``) under ``--strict-invariants``:

1. **plain** — the run passes its audit, and its report is the reference;
2. **observed** — ``--trace T --metrics M --profile``: the report before the
   ``event-loop profile:`` table is plain's, ``T`` is a valid Chrome trace,
   and every point in ``M`` executed events and carries the row's keys;
3. **pool** (sweeps) — observed at ``--jobs 2`` on spawned workers: the
   report, the bytes of ``T`` and the bytes of ``M`` are observed's;
4. **resume** (sweeps) — observed with ``--journal J``, interrupted right
   after its first point is journaled, then rerun with ``--resume``: the
   same three identities.

A new subcommand gets every column from one row; a new execution-only flag
gets every row from one column.  Only scalability prints wall-clock values
in its report, and only that text is masked.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import signal
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.cli import main
from repro.runner.journal import SweepJournal
from repro.telemetry import validate_chrome_trace


class Row(NamedTuple):
    argv: Tuple[str, ...]
    #: Sweep points the run reports; 1 for a single run.
    points: int = 1
    #: Metric names every point's ``--metrics`` entry carries besides
    #: ``engine.events_executed``.
    keys: Tuple[str, ...] = ()


PROVISIONING = ("provisioning", "--servers", "2", "--duration", "2",
                "--rate", "40", "--day-length", "1")
GOAL_STEPS = ("--group-sizes", "4", "--steps", "1", "--compute", "0.002",
              "--bytes", "40000")

#: One tiny run per subcommand that simulates.  ``{goal}`` is a GOAL trace
#: the harness synthesizes once.
ROWS: Dict[str, Row] = {
    "provisioning": Row(PROVISIONING),
    "provisioning-thresholds": Row(
        PROVISIONING + ("--sweep-thresholds", "0.25:1.0", "0.5:1.5"), 2),
    "delay-timer": Row(("delay-timer", "--taus", "0", "0.1", "--utilizations",
                        "0.3", "--servers", "2", "--duration", "2"), 2),
    "residency": Row(("residency", "--utilizations", "0.3", "0.6", "--servers",
                      "2", "--cores", "2", "--duration", "2"), 2),
    "joint": Row(("joint", "--utilizations", "0.3", "--num-jobs", "5"), 2,
                 ("workload.jobs_injected", "network.flows_completed")),
    "validate-server": Row(("validate-server", "--duration", "5")),
    "validate-switch": Row(("validate-switch", "--duration", "20"), 1,
                           ("switch.power_w", "switch.active_ports",
                            "switch.energy_j.chassis", "switch.energy_j.linecards",
                            "switch.energy_j.ports", "switch.energy_j.total")),
    "faults": Row(("faults", "--mtbfs", "2", "4", "--servers", "2",
                   "--duration", "4"), 2,
                  ("faults.failures_injected", "faults.repairs_applied",
                   "faults.fleet_availability")),
    "facility-carbon": Row(("facility-carbon", "--setpoints", "22", "--servers",
                            "2", "--zones", "1", "--utilization", "0.3",
                            "--duration", "2"), 2, ("facility.ticks",)),
    "ai-training": Row(("ai-training", "--algorithms", "ring", "tree")
                       + GOAL_STEPS, 2,
                       ("placement.groups_placed", "network.packets_delivered")),
    "goal-replay": Row(("ai-training", "--goal-trace", "{goal}"), 1,
                       ("placement.groups_placed",)),
    "scalability": Row(("scalability", "--servers", "16", "--num-jobs", "200"),
                       1, ("workload.jobs_injected",)),
    "scalability-sizes": Row(("scalability", "--sizes", "8", "16",
                              "--num-jobs", "100"), 2),
}
SWEEPS = [name for name, row in ROWS.items() if row.points > 1]

_WALL_CLOCK = re.compile(r"in [\d.]+ wall s \([\d,]+ events/s, [\d,]+ jobs/s\)")
_PROFILE = "event-loop profile:"


class Observed(NamedTuple):
    """What an observed run reports: the report before the profile table
    (wall clock masked), the profile's event count, and the bytes of its
    trace and metrics files."""

    report: str
    profiled_events: int
    trace: bytes
    metrics: bytes


def _run(argv: List[str]) -> str:
    """Run the CLI in-process; return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue()


def _report(stdout: str) -> str:
    return _WALL_CLOCK.sub("in <wall>", stdout.split(_PROFILE)[0])


class Matrix:
    """Runs rows; each row's plain and observed runs happen once per module,
    for the cells that compare against them."""

    def __init__(self, tmp):
        self.tmp = tmp
        self._plain: Dict[str, str] = {}
        self._observed: Dict[str, Observed] = {}

    def argv(self, name: str) -> List[str]:
        goal = self.tmp / "train.goal"
        if name == "goal-replay" and not goal.exists():
            _run(["ai-training", "--make-goal", str(goal), *GOAL_STEPS])
        return [arg.replace("{goal}", str(goal)) for arg in ROWS[name].argv] + [
            "--strict-invariants"]

    def observe(self, name: str, where, *extra: str) -> Observed:
        """Run ``name`` with ``--trace/--metrics/--profile`` into ``where``."""
        trace, metrics = where / "t.json", where / "m.json"
        stdout = _run(self.argv(name) + [
            "--trace", str(trace), "--metrics", str(metrics), "--profile", *extra])
        events = re.search(_PROFILE + r" (\d+) events", stdout)
        assert events, stdout
        return Observed(_report(stdout), int(events.group(1)),
                        trace.read_bytes(), metrics.read_bytes())

    def plain(self, name: str) -> str:
        if name not in self._plain:
            self._plain[name] = _report(_run(self.argv(name)))
        return self._plain[name]

    def observed(self, name: str) -> Observed:
        if name not in self._observed:
            where = self.tmp / name
            where.mkdir()
            self._observed[name] = self.observe(name, where)
        return self._observed[name]


@pytest.fixture(scope="module")
def matrix(tmp_path_factory):
    return Matrix(tmp_path_factory.mktemp("matrix"))


@pytest.mark.parametrize("name", ROWS)
def test_plain(matrix, name):
    """The run passes its strict audit and prints a report."""
    assert matrix.plain(name).strip()


@pytest.mark.parametrize("name", ROWS)
def test_observed(matrix, name):
    observed = matrix.observed(name)
    assert observed.report == matrix.plain(name)
    assert observed.profiled_events > 0
    trace = json.loads(observed.trace)
    assert validate_chrome_trace(trace) == []
    phases = {ev["ph"] for ev in trace["traceEvents"]}
    metadata = {ev["name"] for ev in trace["traceEvents"] if ev["ph"] == "M"}
    assert phases & {"X", "i"} and {"process_name", "thread_name"} <= metadata
    doc = json.loads(observed.metrics)
    points = doc.get("points", [doc])
    assert len(points) == ROWS[name].points
    for point in points:
        names = {**point["counters"], **point["gauges"]}
        assert names["engine.events_executed"] > 0, point.get("label")
        assert set(ROWS[name].keys) <= set(names), point.get("label")


@pytest.mark.slow
@pytest.mark.timeout(120)
@pytest.mark.usefixtures("real_pool")
@pytest.mark.parametrize("name", SWEEPS)
def test_pool(matrix, name, tmp_path):
    assert matrix.observe(name, tmp_path, "--jobs", "2") == matrix.observed(name)


@pytest.mark.parametrize("name", SWEEPS)
def test_resume(matrix, name, tmp_path, monkeypatch):
    expected = matrix.observed(name)
    journal = str(tmp_path / "sweep.jsonl")
    real_record = SweepJournal.record

    def record(self, fingerprint, **fields):
        real_record(self, fingerprint, **fields)
        os.kill(os.getpid(), signal.SIGINT)

    cut = tmp_path / "cut"
    cut.mkdir()
    monkeypatch.setattr(SweepJournal, "record", record)
    with pytest.raises(SystemExit) as exc:
        matrix.observe(name, cut, "--journal", journal)
    monkeypatch.undo()
    assert exc.value.code == 130
    with open(journal) as fh:
        assert sum('"status": "ok"' in line for line in fh) == 1
    assert matrix.observe(name, tmp_path, "--journal", journal, "--resume") == expected

