"""Telemetry subsystem: structured tracing, metrics registry, self-profiler.

HolDCSim's pitch is *holistic visibility* — correlated server sleep states,
network transfers, and job latencies over time.  This package supplies the
instrumentation layer that makes runs observable:

* :mod:`repro.telemetry.trace` — a category-filtered ring of typed
  trace events plus a Chrome/Perfetto trace-event JSON exporter (open the
  output directly in ``ui.perfetto.dev``).
* :mod:`repro.telemetry.metrics` — a unified registry (counters, gauges,
  histograms, sim-time series) that the ad-hoc stats objects scattered
  through the simulator register into, with one JSON/CSV snapshot API.
* :mod:`repro.telemetry.profiler` — an event-loop self-profiler that wraps
  engine dispatch and attributes wall-clock time per handler.
* :mod:`repro.telemetry.session` — the activation surface.  All emit sites
  in the simulator guard on :data:`repro.telemetry.session.ACTIVE`; when no
  session is active the instrumentation costs one global load + ``is None``
  test, and the engine's dispatch loop is completely untouched.
"""

from repro.telemetry.metrics import MetricsRegistry, write_metrics
from repro.telemetry.profiler import DispatchProfiler
# NOTE: the `session` *context manager* is deliberately not re-exported —
# it would shadow the `repro.telemetry.session` submodule that emit sites
# import (`from repro.telemetry import session as telemetry`).
from repro.telemetry.session import (
    TelemetryCapture,
    TelemetrySession,
    activate,
    capture_point,
    current,
    deactivate,
)
from repro.telemetry.trace import (
    CATEGORIES,
    TraceRecorder,
    chrome_trace,
    chrome_trace_points,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "CATEGORIES",
    "DispatchProfiler",
    "MetricsRegistry",
    "TelemetryCapture",
    "TelemetrySession",
    "TraceRecorder",
    "activate",
    "capture_point",
    "chrome_trace",
    "chrome_trace_points",
    "current",
    "deactivate",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
]
