"""Unified metrics registry with one JSON/CSV snapshot surface.

The simulator's statistics live as ad-hoc objects scattered across
subsystems — counters on the scheduler and networks,
:class:`~repro.core.stats.LatencyCollector` histograms,
:class:`~repro.core.stats.TimeSeries` power traces, availability trackers on
the fault injector.  The registry does not replace them; sources register
*lazily* (a callable or a live stats object) and every value is read at
snapshot time, so registration order and simulation progress do not matter.

Names are dotted (``scheduler.jobs_completed``, ``network.packet_delay``);
duplicates raise so two subsystems cannot silently shadow each other.  A
session that runs one component several times (two farms, two facilities)
numbers the repeats through :meth:`MetricsRegistry.namespace`.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Callable, Dict, IO, List, Optional, Tuple, Union

from repro.core.stats import LatencyCollector, TimeSeries

Number = Union[int, float]
Source = Union[Number, Callable[[], Number]]

#: Percentiles reported for every registered histogram.
HISTOGRAM_PERCENTILES = (50.0, 90.0, 99.0)


class MetricsRegistry:
    """Counters, gauges, histograms, and sim-time series behind one snapshot."""

    def __init__(self):
        self._counters: Dict[str, Callable[[], Number]] = {}
        self._gauges: Dict[str, Callable[[], Number]] = {}
        self._histograms: Dict[str, LatencyCollector] = {}
        self._series: Dict[str, TimeSeries] = {}
        #: Components registered so far, per :meth:`namespace` kind.
        self._namespaces: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def namespace(self, kind: str, first: Optional[str] = None) -> str:
        """The name prefix for the next ``kind`` component to register: the
        first gets ``first`` (default ``"<kind>."``), later ones ``"<kind>1."``,
        ``"<kind>2."`` ... (farms: ``""``, ``"farm1."``)."""
        n = self._namespaces.get(kind, 0)
        self._namespaces[kind] = n + 1
        if n == 0:
            return f"{kind}." if first is None else first
        return f"{kind}{n}."

    def _claim(self, name: str) -> None:
        for kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
            ("series", self._series),
        ):
            if name in table:
                raise ValueError(f"metric {name!r} already registered as a {kind}")

    def register_counter(self, name: str, source: Source) -> None:
        """A monotonically increasing count (value or no-arg callable)."""
        self._claim(name)
        self._counters[name] = source if callable(source) else (lambda v=source: v)

    def register_gauge(self, name: str, source: Source) -> None:
        """A point-in-time value, read fresh at every snapshot."""
        self._claim(name)
        self._gauges[name] = source if callable(source) else (lambda v=source: v)

    def register_histogram(self, name: str, collector: LatencyCollector) -> None:
        """Adopt an existing latency/scalar sample collector."""
        self._claim(name)
        self._histograms[name] = collector

    def register_series(self, name: str, series: TimeSeries) -> None:
        """Adopt an existing sim-time series (e.g. a power-over-time probe)."""
        self._claim(name)
        self._series[name] = series

    def __len__(self) -> int:
        return (
            len(self._counters) + len(self._gauges)
            + len(self._histograms) + len(self._series)
        )

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    @staticmethod
    def _histogram_stats(collector: LatencyCollector) -> dict:
        stats: dict = {"count": len(collector)}
        if len(collector):
            stats["mean"] = collector.mean()
            stats["max"] = collector.max()
            for p in HISTOGRAM_PERCENTILES:
                stats[f"p{p:g}"] = collector.percentile(p)
        return stats

    def snapshot(self, include_series_points: bool = False) -> dict:
        """Everything the registry knows, as one JSON-serialisable dict.

        Series are summarised (count, last sample, mean) unless
        ``include_series_points`` asks for the full point lists.
        """
        series: Dict[str, dict] = {}
        for name, ts in self._series.items():
            entry: dict = {"count": len(ts)}
            if len(ts):
                entry["last_t"] = ts.times[-1]
                entry["last_value"] = ts.values[-1]
                entry["mean"] = ts.mean()
                if include_series_points:
                    entry["points"] = [list(p) for p in zip(ts.times, ts.values)]
            series[name] = entry
        return {
            "counters": {name: fn() for name, fn in sorted(self._counters.items())},
            "gauges": {name: fn() for name, fn in sorted(self._gauges.items())},
            "histograms": {
                name: self._histogram_stats(coll)
                for name, coll in sorted(self._histograms.items())
            },
            "series": dict(sorted(series.items())),
        }


def _flatten(snapshot: dict, prefix: str = "") -> List[Tuple[str, str, str, Any]]:
    """(label, section, metric, value) rows for CSV export."""
    rows: List[Tuple[str, str, str, Any]] = []
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            rows.append((prefix, section[:-1], name, value))
    for name, stats in snapshot.get("histograms", {}).items():
        for field, value in stats.items():
            rows.append((prefix, "histogram", f"{name}.{field}", value))
    for name, stats in snapshot.get("series", {}).items():
        for field, value in stats.items():
            if field == "points":
                continue
            rows.append((prefix, "series", f"{name}.{field}", value))
    return rows


def write_metrics_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_metrics_csv(fh: IO[str], doc: dict) -> None:
    """CSV rows ``label,kind,metric,value``.

    Accepts either one snapshot or a multi-point document of the form
    ``{"points": [{"label": ..., <snapshot>}, ...]}`` as produced by sweep
    runs; the point label lands in the first column.
    """
    writer = csv.writer(fh)
    writer.writerow(["label", "kind", "metric", "value"])
    if "points" in doc:
        for point in doc["points"]:
            label = point.get("label", "")
            writer.writerows(_flatten(point, prefix=label))
    else:
        writer.writerows(_flatten(doc))


def write_metrics(path: str, doc: dict) -> None:
    """Write JSON or CSV depending on the file extension."""
    if path.endswith(".csv"):
        with open(path, "w", newline="") as fh:
            write_metrics_csv(fh, doc)
    else:
        write_metrics_json(path, doc)
