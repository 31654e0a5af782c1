"""Tests for the unified metrics registry and its JSON/CSV export."""

from __future__ import annotations

import csv
import json

import pytest

from repro.core.stats import LatencyCollector, TimeSeries
from repro.telemetry.metrics import MetricsRegistry, write_metrics


class TestRegistration:
    def test_counter_accepts_value_and_callable(self):
        reg = MetricsRegistry()
        reg.register_counter("a", 3)
        box = [0]
        reg.register_counter("b", lambda: box[0])
        box[0] = 9
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3, "b": 9}

    def test_gauge_reads_lazily_at_snapshot(self):
        reg = MetricsRegistry()
        state = {"w": 1.0}
        reg.register_gauge("power", lambda: state["w"])
        state["w"] = 42.5
        assert reg.snapshot()["gauges"]["power"] == 42.5

    def test_duplicate_names_rejected_across_kinds(self):
        reg = MetricsRegistry()
        reg.register_counter("x", 1)
        with pytest.raises(ValueError, match="already registered as a counter"):
            reg.register_gauge("x", 2)
        with pytest.raises(ValueError):
            reg.register_histogram("x", LatencyCollector("x"))

    def test_len_counts_every_kind(self):
        reg = MetricsRegistry()
        reg.register_counter("c", 1)
        reg.register_gauge("g", 1)
        reg.register_histogram("h", LatencyCollector("h"))
        reg.register_series("s", TimeSeries("s"))
        assert len(reg) == 4


class TestSnapshot:
    def test_histogram_stats(self):
        reg = MetricsRegistry()
        coll = LatencyCollector("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            coll.record(v)
        reg.register_histogram("lat", coll)
        stats = reg.snapshot()["histograms"]["lat"]
        assert stats["count"] == 4
        assert stats["mean"] == 2.5
        assert stats["max"] == 4.0
        assert stats["p50"] == 2.0

    def test_empty_histogram_reports_count_only(self):
        reg = MetricsRegistry()
        reg.register_histogram("lat", LatencyCollector("lat"))
        assert reg.snapshot()["histograms"]["lat"] == {"count": 0}

    def test_series_summary_and_points(self):
        reg = MetricsRegistry()
        ts = TimeSeries("power")
        ts.append(0.0, 10.0)
        ts.append(1.0, 20.0)
        reg.register_series("power", ts)
        summary = reg.snapshot()["series"]["power"]
        assert summary == {"count": 2, "last_t": 1.0, "last_value": 20.0, "mean": 15.0}
        detailed = reg.snapshot(include_series_points=True)["series"]["power"]
        assert detailed["points"] == [[0.0, 10.0], [1.0, 20.0]]

    def test_snapshot_is_json_serialisable_and_sorted(self):
        reg = MetricsRegistry()
        reg.register_counter("z", 1)
        reg.register_counter("a", 2)
        snap = reg.snapshot()
        json.dumps(snap)
        assert list(snap["counters"]) == ["a", "z"]


class TestExport:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.register_counter("jobs", 7)
        coll = LatencyCollector("lat")
        coll.record(1.0)
        reg.register_histogram("lat", coll)
        return reg

    def test_json_export(self, tmp_path):
        path = tmp_path / "m.json"
        write_metrics(str(path), self._registry().snapshot())
        doc = json.loads(path.read_text())
        assert doc["counters"]["jobs"] == 7

    def test_csv_export_single_snapshot(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics(str(path), self._registry().snapshot())
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["label", "kind", "metric", "value"]
        assert ["", "counter", "jobs", "7"] in rows

    def test_csv_export_multi_point(self, tmp_path):
        path = tmp_path / "m.csv"
        snap = self._registry().snapshot()
        doc = {"points": [{"label": "tau=0", **snap}, {"label": "tau=1", **snap}]}
        write_metrics(str(path), doc)
        rows = list(csv.reader(path.open()))
        labels = {row[0] for row in rows[1:]}
        assert labels == {"tau=0", "tau=1"}


class TestNamespaces:
    def test_repeated_components_get_numbered_prefixes(self):
        reg = MetricsRegistry()
        assert [reg.namespace("farm", first="") for _ in range(3)] == [
            "", "farm1.", "farm2.",
        ]
        assert [reg.namespace("facility") for _ in range(2)] == [
            "facility.", "facility1.",
        ]

    def test_two_farms_in_one_session(self):
        from repro.core.config import small_cloud_server
        from repro.experiments.common import build_farm, drive
        from repro.telemetry import session as telemetry
        from repro.workload.arrivals import PoissonProcess
        from repro.workload.profiles import web_search_profile

        with telemetry.session(trace=False) as ts:
            for _ in range(2):
                farm = build_farm(2, small_cloud_server(n_cores=2), seed=1)
                factory = web_search_profile().job_factory(farm.rng.stream("service"))
                drive(farm, PoissonProcess(50.0, farm.rng.stream("arrivals")),
                      factory, duration_s=0.5, audit="strict")
            counters = ts.metrics.snapshot()["counters"]
        assert counters["engine.events_executed"] > 0
        assert counters["farm1.engine.events_executed"] > 0
        assert "farm2.engine.events_executed" not in counters


class TestFarmMetricsSurface:
    def test_transfer_loss_counters_surface(self):
        # Satellite of the collective PR: stranded transfers and scheduler
        # drop notifications must be first-class metrics, not buried fields.
        from repro.experiments.ai_training import build_ai_cluster
        from repro.experiments.common import register_farm_metrics
        from repro.core.engine import Engine

        cluster = build_ai_cluster(Engine(), k=4)
        reg = MetricsRegistry()
        register_farm_metrics(reg, cluster)
        counters = reg.snapshot()["counters"]
        assert counters["network.transfers_stranded"] == 0
        assert counters["scheduler.transfers_dropped"] == 0
        assert counters["scheduler.transfers_launched"] == 0
        assert counters["placement.groups_placed"] == 0

    def test_packet_path_counters_say_which_path_engaged(self):
        # The small all-to-all benchmark build: trains engage, then
        # contention folds them back into packets, and most per-packet hop
        # transmissions start back-to-back on a busy output queue.
        from repro.experiments.ai_training import run_ai_training_point
        from repro.telemetry import session as telemetry

        with telemetry.session(trace=False) as ts:
            run_ai_training_point(
                algorithm="all_to_all", group_size=16, k=4, n_steps=1,
                size_bytes=1e6, compute_jitter=0.1, seed=11, audit="strict",
            )
            counters = ts.metrics.snapshot()["counters"]
        assert counters["network.packet_hops_held"] > 0
        assert counters["network.packet_hops"] > counters["network.packet_hops_held"]
        assert counters["network.trains_materialized"] > 0
        assert (counters["network.trains_materialized_enqueue"]
                + counters["network.trains_materialized_route"]
                == counters["network.trains_materialized"])

    def test_event_counters_account_for_every_scheduled_event(self):
        # --metrics shows timer churn: every scheduled event has executed,
        # been cancelled while queued, or is still pending at the cut.
        from repro.core.config import onoff_cloud_server
        from repro.experiments.common import build_farm, drive, register_farm_metrics
        from repro.power.controller import DelayTimerController
        from repro.scheduling.policies import PackingPolicy
        from repro.workload.arrivals import PoissonProcess
        from repro.workload.profiles import web_search_profile

        farm = build_farm(4, onoff_cloud_server(n_cores=2), policy=PackingPolicy(), seed=3)
        controller = DelayTimerController(farm.engine, 0.1)
        for server in farm.servers:
            server.attach_controller(controller)
        arrivals = PoissonProcess(200.0, farm.rng.stream("arrivals"))
        factory = web_search_profile().job_factory(farm.rng.stream("service"))
        drive(farm, arrivals, factory, duration_s=2.0, drain=False, audit="strict")
        reg = MetricsRegistry()
        register_farm_metrics(reg, farm)
        counters = reg.snapshot()["counters"]
        pending = farm.engine.pending_count()
        assert pending > 0
        assert counters["engine.events_cancelled"] > 0
        assert counters["engine.events_scheduled"] == (
            counters["engine.events_executed"]
            + counters["engine.events_cancelled"]
            + pending
        )
