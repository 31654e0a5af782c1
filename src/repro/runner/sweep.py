"""Declarative sweeps and their execution.

A sweep is a list of :class:`SweepPoint`\\ s, each naming a module-level
callable plus keyword arguments.  :func:`run_sweep` evaluates every point and
returns the results **in point order**, however the points actually ran.

One loop (:func:`run_sweep_detailed`) runs every sweep: it submits points to
an executor and records each outcome as it completes, in the journal too.
With one worker and no point timeout the executor is an in-process stand-in
whose ``submit`` runs the call.  Otherwise it is a ``ProcessPoolExecutor``
using the **spawn** start method, which keeps workers free of inherited
interpreter state (no forked RNG state, no copied engine globals), so the
same spec produces the same bytes on Linux, macOS and Windows.  The sweep
uses ``min(jobs, host_cpus(), points to run)`` workers.

A point is a deterministic function of its kwargs (every experiment passes
an explicit ``seed``), so results are bit-identical regardless of worker
count, completion order, or resume-from-journal.  It also means a point that
raised or overran would do the same again, so nothing is retried: a point
that raises stops the sweep unless ``keep_going``, and a timeout or a dead
worker always stops it.  Host-level kills are recovered by the journal
(:class:`~repro.runner.journal.SweepJournal`): ``resume`` replays the points
that completed and runs only the rest.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runner.journal import SweepJournal, decode_result, point_fingerprint
from repro.telemetry import session as telemetry_session
from repro.telemetry.session import PointCapture, TelemetryCapture, capture_point


def _short_value(value: Any) -> str:
    """Compact rendering of one kwarg value for auto-derived point labels."""
    if isinstance(value, float):
        return format(value, "g")
    if isinstance(value, (int, bool, str)) or value is None:
        return str(value)
    rendered = getattr(value, "name", None)
    if isinstance(rendered, str):
        return rendered
    return type(value).__name__


def derive_label(kwargs: Dict[str, Any], exclude: Sequence[str] = ()) -> str:
    """A human-readable label from a kwarg dict (``k=v`` pairs, truncated)."""
    parts = [
        f"{key}={_short_value(val)}"
        for key, val in kwargs.items()
        if key not in exclude
    ]
    label = ",".join(parts)
    return label if len(label) <= 80 else label[:77] + "..."


@dataclass(frozen=True)
class SweepPoint:
    """One evaluation of ``fn(**kwargs)``.

    ``fn`` must be an importable module-level callable and every kwarg must
    be picklable — both are required for spawn-based workers.  ``index`` is
    the point's position in the sweep; results are always returned in index
    order.
    """

    index: int
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def execute(self) -> Any:
        return self.fn(**self.kwargs)


@dataclass
class SweepSpec:
    """A named, ordered collection of sweep points."""

    name: str
    points: List[SweepPoint] = field(default_factory=list)

    def add(self, fn: Callable[..., Any], label: str = "", **kwargs: Any) -> SweepPoint:
        """Append one point; returns it for inspection.

        When no explicit ``label`` is given, one is derived from the kwargs
        so logs and journals name points by their parameters rather than by
        bare indices.
        """
        if not label:
            label = derive_label(kwargs)
        point = SweepPoint(index=len(self.points), fn=fn, kwargs=kwargs, label=label)
        self.points.append(point)
        return point

    def __len__(self) -> int:
        return len(self.points)


def _execute_point(
    point: SweepPoint, capture: Optional[TelemetryCapture] = None
) -> Any:
    """Top-level worker entry point (must be picklable by name).

    With a :class:`~repro.telemetry.session.TelemetryCapture` the point runs
    under a child telemetry session and returns a
    :class:`~repro.telemetry.session.PointCapture` wrapping value + payload;
    the sweep loop unwraps it.  Workers are spawned, so the parent's active
    session never leaks in — the capture spec is the only channel.
    """
    if capture is None:
        return point.execute()
    return capture_point(capture, point)


# ----------------------------------------------------------------------
# Execution: options, outcomes, errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepOptions:
    """Execution policy for a sweep.

    Attributes:
        point_timeout_s: wall-clock budget per point.  A point that overruns
            stops the sweep: it is marked ``timeout``, the worker pool is
            killed and every unfinished point is marked ``skipped``.
            ``None`` disables the watchdog.  Killing a hung point needs a
            worker process, so a timeout runs even a one-worker sweep in a
            pool.
        keep_going: evaluate every point even after some raise; those points
            surface as ``None`` values / ``failed`` outcomes instead of
            stopping the sweep.  A timeout or a dead worker still stops it.
        journal_path: JSONL checkpoint file; every completed point is
            appended (and fsync'd) as it finishes.
        resume: reuse ``ok`` results recorded in ``journal_path`` for points
            whose fingerprint (sweep name + fn + kwargs) is unchanged.
    """

    point_timeout_s: Optional[float] = None
    keep_going: bool = False
    journal_path: Optional[str] = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ValueError(
                f"point_timeout_s must be positive, got {self.point_timeout_s}"
            )
        if self.resume and not self.journal_path:
            raise ValueError("resume=True requires a journal_path")


@dataclass
class PointOutcome:
    """What happened to one sweep point.

    ``status`` is one of ``"ok"`` (value present), ``"failed"`` (raised, or
    was in flight when its worker died), ``"timeout"`` (overran the
    watchdog), or ``"skipped"`` (unfinished when the sweep stopped).
    ``cached`` marks results replayed from the journal.  ``telemetry`` is
    the point's captured telemetry payload (trace events, metrics snapshot,
    profile summary) when a session was active; a point that raised carries
    what it recorded before raising.  ``exception`` is what a failed point
    raised.
    """

    index: int
    label: str
    fingerprint: str
    status: str = "skipped"
    duration_s: float = 0.0
    value: Any = None
    error: Optional[str] = None
    cached: bool = False
    telemetry: Optional[dict] = None
    exception: Optional[BaseException] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SweepResult:
    """Per-point outcomes of a sweep, in point order.

    ``stopped_by`` is the outcome that stopped the sweep early — a failure
    without ``keep_going``, a timeout, or a dead worker — or None.
    """

    name: str
    outcomes: List[PointOutcome]
    stopped_by: Optional[PointOutcome] = None

    def values(self) -> List[Any]:
        """Point results in order; non-``ok`` points yield ``None``."""
        return [outcome.value if outcome.ok else None for outcome in self.outcomes]


class SweepError(RuntimeError):
    """A sweep stopped early; ``first_failure`` is the point that stopped it.

    :func:`run_sweep` raises it ``from`` that point's own exception, so the
    traceback of a point that raised (in-process or in a worker) stays
    visible as ``__cause__``.
    """

    def __init__(self, result: SweepResult, first_failure: PointOutcome):
        self.result = result
        self.first_failure = first_failure
        label = first_failure.label or f"#{first_failure.index}"
        super().__init__(
            f"sweep {result.name!r} point {label} {first_failure.status}: "
            f"{first_failure.error}"
        )


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C during a sweep: the pool was torn down and the journal flushed.

    Derives from :class:`KeyboardInterrupt` so un-caught interrupts keep
    their usual semantics; the CLI catches it to print a resume hint.
    """

    def __init__(self, name: str, completed: int, total: int,
                 journal_path: Optional[str]):
        self.name = name
        self.completed = completed
        self.total = total
        self.journal_path = journal_path
        super().__init__(
            f"sweep {name!r} interrupted: {completed}/{total} points completed"
        )


class _InProcessExecutor(Executor):
    """The one-worker, no-timeout executor: ``submit`` runs the call here and
    returns a finished future, so one loop serves every sweep."""

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _kill(executor: Executor) -> None:
    """Kill every worker process now, then release the executor.

    ``ProcessPoolExecutor`` has no per-task kill, and a plain ``shutdown``
    would wait for a hung point forever.
    """
    for proc in list((getattr(executor, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    executor.shutdown(wait=True, cancel_futures=True)


def host_cpus() -> int:
    """CPUs this process may actually use, for elastic worker sizing.

    ``os.cpu_count()`` reports the machine, not the process: in containers
    and under ``taskset`` the scheduler affinity mask is often far smaller.
    Prefer ``len(os.sched_getaffinity(0))`` where the platform exposes it
    (Linux) so worker clamping — and the ``host.cpus`` field recorded in
    ``BENCH_core.json`` — reflect the CPUs sweeps can really occupy.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def _completed(
    future: Future, point: SweepPoint, fingerprint: str, duration_s: float
) -> PointOutcome:
    """The outcome of a point whose future has finished."""
    outcome = PointOutcome(
        index=point.index, label=point.label, fingerprint=fingerprint,
        duration_s=duration_s,
    )
    try:
        value = future.result()
    except Exception as exc:  # raised by the point, or BrokenProcessPool
        outcome.status = "failed"
        outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.exception = exc
        outcome.telemetry = getattr(exc, "point_telemetry", None)
        return outcome
    if isinstance(value, PointCapture):
        outcome.telemetry = value.payload
        value = value.value
    outcome.status = "ok"
    outcome.value = value
    return outcome


def _run_points(
    todo: List[Tuple[SweepPoint, str]],
    executor: Executor,
    workers: int,
    options: SweepOptions,
    capture: Optional[TelemetryCapture],
    record: Callable[[PointOutcome], None],
) -> Optional[PointOutcome]:
    """Submit ``todo`` to ``executor``, ``record`` each outcome as it completes.

    Returns the outcome that stopped the sweep, or None if every point ran.
    """
    timeout = options.point_timeout_s
    pending = deque(todo)
    # Insertion order is submission order, which is point order.
    inflight: Dict[Future, Tuple[SweepPoint, str, float]] = {}
    while pending or inflight:
        while pending and len(inflight) < workers:
            point, fingerprint = pending.popleft()
            started = time.monotonic()
            try:
                future = executor.submit(_execute_point, point, capture)
            except BrokenProcessPool as exc:
                # A worker died after the last wait() returned.  This point
                # fails like one in flight on a dead worker and nothing more
                # is submitted, so the points that finished are still
                # recorded before the sweep stops.
                future = Future()
                future.set_exception(exc)
                pending.clear()
            inflight[future] = (point, fingerprint, started)
        horizon = None
        if timeout is not None:
            first_deadline = min(s for _, _, s in inflight.values()) + timeout
            horizon = max(0.0, first_deadline - time.monotonic())
        wait(inflight, timeout=horizon, return_when=FIRST_COMPLETED)
        now = time.monotonic()
        stopped_by = None
        for future, (point, fingerprint, started) in list(inflight.items()):
            if future.done():
                outcome = _completed(future, point, fingerprint, now - started)
            elif timeout is not None and now >= started + timeout:
                outcome = PointOutcome(
                    index=point.index, label=point.label,
                    fingerprint=fingerprint, status="timeout",
                    duration_s=now - started,
                    error=f"exceeded point timeout of {timeout:g}s",
                )
            else:
                continue
            del inflight[future]
            record(outcome)
            stops = outcome.status == "timeout" or (
                outcome.status == "failed"
                and (not options.keep_going
                     or isinstance(outcome.exception, BrokenProcessPool))
            )
            if stops and stopped_by is None:
                stopped_by = outcome
        if stopped_by is not None:
            return stopped_by
    return None


def _hand_over(
    session: Optional[telemetry_session.TelemetrySession],
    outcomes: Iterable[PointOutcome],
) -> None:
    """Hand each outcome's telemetry payload to the parent session.

    ``outcomes`` come in point order, so completion order, worker count and
    journal resume all wash out here, which is what makes exported traces
    byte-identical across ``--jobs 1`` / ``--jobs 4`` / ``--resume``.
    """
    if session is None:
        return
    for outcome in outcomes:
        if outcome.telemetry is not None:
            session.add_point_capture(outcome.label, outcome.telemetry)


def run_sweep_detailed(
    spec: SweepSpec, jobs: int = 1, options: Optional[SweepOptions] = None
) -> SweepResult:
    """Evaluate ``spec`` under ``options`` and return per-point outcomes.

    :func:`run_sweep` wraps this for callers that only want the values.
    Outcomes always cover every point, in order; this function reports a
    stopped sweep in :attr:`SweepResult.stopped_by` rather than raising.
    Under an active telemetry session the points' payloads reach it however
    the sweep ends: finished, stopped, or interrupted.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    options = options or SweepOptions()

    # Telemetry: freeze the active session into a picklable per-point
    # capture spec.  Points then record under child sessions — identically
    # in-process or in spawned workers — and _hand_over reassembles the
    # payloads in point order.
    active_session = telemetry_session.ACTIVE
    capture = TelemetryCapture.from_context(active_session)

    fingerprints = [
        point_fingerprint(spec.name, p.fn, p.kwargs) for p in spec.points
    ]
    outcomes: Dict[int, PointOutcome] = {}

    journal: Optional[SweepJournal] = None
    if options.journal_path:
        journal = SweepJournal(options.journal_path, sweep_name=spec.name)

    # Resume: replay recorded ok results for unchanged points.  Duplicate
    # fingerprints (identical points swept twice) consume cache entries in
    # point order so each occurrence gets its own recorded result.
    if journal is not None and options.resume:
        cache = journal.load()
        consumed: Dict[str, int] = {}
        for point, fingerprint in zip(spec.points, fingerprints):
            entries = cache.get(fingerprint, [])
            cursor = consumed.get(fingerprint, 0)
            while cursor < len(entries) and entries[cursor].get("status") != "ok":
                cursor += 1
            if cursor < len(entries):
                entry = entries[cursor]
                consumed[fingerprint] = cursor + 1
                telemetry = entry.get("telemetry")
                if telemetry is not None and "events" in telemetry:
                    # JSON turned each event tuple into a list: hand the
                    # events over in the form a fresh point does.
                    telemetry["events"] = [tuple(ev) for ev in telemetry["events"]]
                outcomes[point.index] = PointOutcome(
                    index=point.index,
                    label=point.label or entry.get("label", ""),
                    fingerprint=fingerprint,
                    status="ok",
                    duration_s=float(entry.get("duration_s", 0.0)),
                    value=decode_result(entry["result"]),
                    cached=True,
                    telemetry=telemetry,
                )

    def record(outcome: PointOutcome) -> None:
        outcomes[outcome.index] = outcome
        if journal is not None:
            journal.record(
                outcome.fingerprint,
                index=outcome.index,
                label=outcome.label,
                status=outcome.status,
                duration_s=outcome.duration_s,
                value=outcome.value,
                error=outcome.error,
                telemetry=outcome.telemetry if outcome.ok else None,
            )

    todo = [
        (point, fingerprint)
        for point, fingerprint in zip(spec.points, fingerprints)
        if point.index not in outcomes
    ]
    stopped_by: Optional[PointOutcome] = None
    if todo:
        cpus = host_cpus()
        workers = min(jobs, cpus, len(todo))
        use_pool = workers > 1 or options.point_timeout_s is not None
        if jobs > 1:
            # One stderr line, so a worker count below the request (CPU
            # clamp, or fewer points than jobs) is visible, not silent.
            cached = len(spec.points) - len(todo)
            cached_note = f", {cached} from journal" if cached else ""
            where = "worker process(es)" if use_pool else "worker (in-process)"
            print(
                f"[repro.sweep] {spec.name!r}: {len(todo)} point(s){cached_note} "
                f"on {workers} {where} (requested jobs={jobs}, "
                f"host CPUs={cpus})",
                file=sys.stderr,
            )
        if journal is not None:
            journal.open()
        executor: Executor = (
            ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn")
            )
            if use_pool else _InProcessExecutor()
        )
        try:
            stopped_by = _run_points(
                todo, executor, workers, options, capture, record
            )
        except KeyboardInterrupt as exc:
            completed = sum(1 for o in outcomes.values() if o.ok)
            payload = getattr(exc, "point_telemetry", None)
            if payload is not None and workers == 1:
                # One worker runs todo in order, so the point that was
                # interrupted is the first without an outcome.  Its partial
                # payload is exported but never journaled.
                point, fingerprint = next(
                    (p, f) for p, f in todo if p.index not in outcomes
                )
                outcomes[point.index] = PointOutcome(
                    index=point.index, label=point.label,
                    fingerprint=fingerprint, status="failed",
                    telemetry=payload,
                )
            _hand_over(active_session, (outcomes[i] for i in sorted(outcomes)))
            raise SweepInterrupted(
                spec.name, completed, len(spec.points), options.journal_path
            ) from exc
        finally:
            _kill(executor)
            if journal is not None:
                journal.close()

    ordered = [
        outcomes.get(point.index)
        or PointOutcome(index=point.index, label=point.label,
                        fingerprint=fingerprint, status="skipped")
        for point, fingerprint in zip(spec.points, fingerprints)
    ]
    _hand_over(active_session, ordered)
    return SweepResult(name=spec.name, outcomes=ordered, stopped_by=stopped_by)


def run_sweep(
    spec: SweepSpec, jobs: int = 1, options: Optional[SweepOptions] = None
) -> List[Any]:
    """Evaluate every point of ``spec``; results come back in point order.

    Args:
        spec: the sweep to run.
        jobs: requested worker processes.  The sweep uses
            ``min(jobs, host_cpus(), points to run)`` of them; one worker
            runs in-process with no multiprocessing overhead.  Results are
            identical either way because each point's randomness is sealed
            in its kwargs.
        options: execution policy (point timeout, journal/resume,
            keep-going); ``None`` means ``SweepOptions()``.

    Returns:
        One result per point, in point order.  With ``keep_going``, points
        that raised yield ``None``.

    Raises:
        SweepError: the sweep stopped early — a point raised without
            ``keep_going``, timed out, or lost its worker.  ``__cause__`` is
            the point's own exception.
        SweepInterrupted: Ctrl-C arrived mid-sweep (journal already flushed).
    """
    result = run_sweep_detailed(spec, jobs=jobs, options=options)
    stopped_by = result.stopped_by
    if stopped_by is not None:
        raise SweepError(result, stopped_by) from stopped_by.exception
    return result.values()
