"""Telemetry activation: the global session all emit sites guard on.

The simulator's emit sites follow one pattern::

    from repro.telemetry import session as telemetry
    ...
    ts = telemetry.ACTIVE
    if ts is not None and ts.power is not None:
        ts.power.complete("power", ...)

With no session active this costs one module-global load and an ``is None``
test; ``repro bench`` measures what the layer costs in its ``telemetry``
section (``telemetry.hook_overhead_pct``).  The per-category attributes
(``ts.task``, ``ts.power``, ...) are the recorder when that category is
enabled and ``None`` otherwise, so category filtering is also one attribute
load at the call site, never a set lookup per event.

Sweep integration: a parent session is *not* shared with worker processes.
Instead :func:`TelemetryCapture.from_context` freezes the parent's
configuration into a picklable spec; :func:`capture_point` replays it around
one sweep point in the worker, returning a JSON-serialisable payload (or
attaching it to the exception of a point that raised) that the parent
reassembles in point order — which is what makes exported traces
byte-identical across ``--jobs 1`` and ``--jobs 4``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import DispatchProfiler
from repro.telemetry.trace import CATEGORIES, DEFAULT_MAX_EVENTS, TraceRecorder


class TelemetrySession:
    """One activation of the telemetry layer: recorder + metrics + profiler."""

    def __init__(
        self,
        trace: bool = True,
        categories: Optional[Tuple[str, ...]] = None,
        metrics: bool = True,
        profile: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        recorder = None
        if trace:
            recorder = TraceRecorder(categories=categories, max_events=max_events)
        self.recorder = recorder
        # Per-category shortcuts: the recorder when enabled, else None, so
        # emit sites pay one attribute load to test a category.
        for cat in CATEGORIES:
            enabled = recorder is not None and cat in recorder.categories
            setattr(self, cat, recorder if enabled else None)
        self.metrics = MetricsRegistry() if metrics else None
        self.profiler = DispatchProfiler() if profile else None
        #: (label, payload) per completed sweep point, in point order.
        self.point_captures: List[Tuple[Optional[str], dict]] = []

    # ------------------------------------------------------------------
    def attach_engine(self, engine) -> None:
        """Instrument an engine with the profiler (no-op unless profiling)."""
        if self.profiler is not None:
            self.profiler.attach(engine)

    def add_point_capture(self, label: Optional[str], payload: dict) -> None:
        self.point_captures.append((label, payload))

    def payload(self) -> dict:
        """This session's telemetry as one JSON-serialisable dict.

        The events are the recorder's own flat tuples, which the cyclic
        collector stops tracking, so a sweep's parent session can hold every
        point's events without the collector walking them.
        """
        doc: dict = {}
        if self.recorder is not None:
            doc["events"] = list(self.recorder.events)
            doc["dropped"] = self.recorder.dropped
        if self.metrics is not None:
            doc["metrics"] = self.metrics.snapshot()
        if self.profiler is not None:
            doc["profile"] = self.profiler.summary()
        return doc

    def close(self) -> None:
        if self.profiler is not None:
            self.profiler.unwatch_gc()


#: The active session, or None.  Module-global by design: emit sites read it
#: with one LOAD_ATTR on an already-imported module.
ACTIVE: Optional[TelemetrySession] = None


def current() -> Optional[TelemetrySession]:
    return ACTIVE


def _switch(sess: Optional[TelemetrySession]) -> None:
    """Make ``sess`` the active session.

    Only the active session's profiler counts collector passes, so a sweep
    point's passes are not also counted by the session that captures it.
    """
    global ACTIVE
    if ACTIVE is not None and ACTIVE.profiler is not None:
        ACTIVE.profiler.unwatch_gc()
    ACTIVE = sess
    if sess is not None and sess.profiler is not None:
        sess.profiler.watch_gc()


def activate(sess: TelemetrySession) -> Optional[TelemetrySession]:
    """Make ``sess`` the active session; returns the one it displaced.

    Nesting is deliberate: a sweep point captured inside an inline sweep
    swaps its own child session in and restores the parent afterwards.
    """
    prev = ACTIVE
    _switch(sess)
    return prev


def deactivate(prev: Optional[TelemetrySession] = None) -> None:
    """Clear the active session (or restore ``prev`` from :func:`activate`)."""
    _switch(prev)


@contextmanager
def session(**kwargs):
    """``with telemetry.session(profile=True) as ts: ...``"""
    sess = TelemetrySession(**kwargs)
    prev = activate(sess)
    try:
        yield sess
    finally:
        deactivate(prev)
        sess.close()


# ----------------------------------------------------------------------
# Sweep-point capture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TelemetryCapture:
    """A picklable freeze of the parent session's configuration.

    Shipped to sweep workers so each point records under an equivalent child
    session.
    """

    trace: bool = True
    categories: Optional[Tuple[str, ...]] = None
    metrics: bool = True
    profile: bool = False
    max_events: int = DEFAULT_MAX_EVENTS

    @classmethod
    def from_context(
        cls, active: Optional[TelemetrySession]
    ) -> Optional["TelemetryCapture"]:
        """Derive the capture spec for a sweep, or None if no session is active."""
        if active is None:
            return None
        recorder = active.recorder
        return cls(
            trace=recorder is not None,
            categories=(
                tuple(sorted(recorder.categories)) if recorder is not None else None
            ),
            metrics=active.metrics is not None,
            profile=active.profiler is not None,
            max_events=(
                recorder.max_events if recorder is not None else DEFAULT_MAX_EVENTS
            ),
        )


@dataclass
class PointCapture:
    """What a captured sweep point sends back: its value plus telemetry."""

    value: Any
    payload: dict


def capture_point(capture: TelemetryCapture, point) -> Any:
    """Run one sweep point under a child telemetry session.

    ``point`` is duck-typed (needs ``.execute()``).  A point that raises —
    ``KeyboardInterrupt`` included — carries the payload it recorded up to
    that moment in the exception's ``point_telemetry`` attribute, so the
    sweep can export it with the finished points.  Exceptions pickle their
    ``__dict__``, so the attribute also crosses the worker pool.
    """
    sess = TelemetrySession(
        trace=capture.trace,
        categories=capture.categories,
        metrics=capture.metrics,
        profile=capture.profile,
        max_events=capture.max_events,
    )
    prev = activate(sess)
    try:
        value = point.execute()
    except BaseException as exc:
        exc.point_telemetry = sess.payload()
        raise
    finally:
        deactivate(prev)
        sess.close()
    return PointCapture(value=value, payload=sess.payload())
