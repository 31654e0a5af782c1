"""Tests for the trace recorder and the Chrome trace-event exporter."""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro.jobs.task import Job
from repro.telemetry.trace import (
    CATEGORIES,
    PROCESS_STRIDE,
    TraceRecorder,
    check_chrome_trace,
    chrome_trace,
    chrome_trace_points,
    event_args,
    validate_chrome_trace,
    write_chrome_trace,
)


class TestRecorder:
    def test_emit_surface_records_tuples(self):
        rec = TraceRecorder()
        rec.complete("task", "t0", "server/s0/cpu0.0", 1.0, 0.5, args={"job": 3})
        rec.instant("fault", "fail", "fault/server:1", 2.0)
        rec.begin("job", "j0", "jobs", 0.0, 7)
        rec.end("job", "j0", "jobs", 3.0, 7, args={"latency_s": 3.0})
        assert [ev[3] for ev in rec.events] == ["X", "i", "b", "e"]
        assert rec.emitted == 4
        assert rec.dropped == 0

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TraceRecorder(categories=("task", "bogus"))

    def test_categories_default_to_all(self):
        assert TraceRecorder().categories == frozenset(CATEGORIES)

    def test_ring_caps_memory_and_counts_drops(self):
        rec = TraceRecorder(max_events=3)
        for i in range(5):
            rec.instant("task", f"e{i}", "sim", float(i))
        assert len(rec.events) == 3
        assert rec.emitted == 5
        assert rec.dropped == 2
        assert [ev[2] for ev in rec.events] == ["e2", "e3", "e4"]

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)

    def test_seq_id_first_touch_order(self):
        rec = TraceRecorder()
        a, b = object(), object()
        assert rec.seq_id("job", a) == 0
        assert rec.seq_id("job", b) == 1
        assert rec.seq_id("job", a) == 0  # stable on re-touch
        assert rec.seq_id("flow", b) == 0  # kinds number independently

    def test_recorded_events_leave_nothing_for_the_collector(self):
        rec = TraceRecorder()
        rec.complete("task", "t0", "server/s0/cpu0.0", 1.0, 0.5,
                     args={"job": 3, "type": "web"})
        rec.instant("fault", "fail", "fault/server:1", 2.0)
        rec.counter("facility", "plant", "facility/plant", 3.0, {"power_w": 9.5})
        gc.collect()
        assert not any(gc.is_tracked(ev) for ev in rec.events)
        assert [event_args(ev) for ev in rec.events] == [
            {"job": 3, "type": "web"}, None, {"power_w": 9.5},
        ]

    def test_seq_id_does_not_keep_numbered_jobs_alive(self):
        rec = TraceRecorder()
        job = Job()
        alive = weakref.ref(job)
        assert rec.seq_id("job", job) == 0
        assert rec.seq_id("job", job) == 0
        del job
        gc.collect()
        assert alive() is None
        assert rec._seq_ids == {}
        # A later job (which may reuse the dead one's id) gets a new number.
        assert rec.seq_id("job", Job()) == 1

    def test_seq_id_pins_objects_against_id_reuse(self):
        rec = TraceRecorder()
        # Without a strong reference, a GC'd object's id() can be handed to
        # a new object, silently aliasing two distinct entities.
        for i in range(100):
            rec.seq_id("job", object())
        assert rec._seq_next["job"] == 100
        assert len(rec._seq_pins) == 100


class TestChromeExport:
    def _sample_recorder(self) -> TraceRecorder:
        rec = TraceRecorder()
        rec.complete("power", "on", "server/s0", 0.0, 1.0)
        rec.complete("task", "j0/t0", "server/s0/cpu0.0", 0.2, 0.3)
        rec.begin("net", "flow", "net/flows", 0.1, 0)
        rec.end("net", "flow", "net/flows", 0.4, 0)
        rec.instant("sched", "dispatch", "sched", 0.2)
        rec.begin("job", "j0", "jobs", 0.0, 0)
        rec.end("job", "j0", "jobs", 0.5, 0)
        rec.instant("fault", "fail", "fault/server:0", 0.3)
        return rec

    def test_export_is_valid(self):
        doc = chrome_trace(self._sample_recorder().events)
        assert validate_chrome_trace(doc) == []
        check_chrome_trace(doc)  # should not raise

    def test_tracks_map_to_fixed_processes(self):
        doc = chrome_trace(self._sample_recorder().events)
        names = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["name"] == "process_name"
        }
        assert names == {
            1: "servers", 2: "network", 3: "scheduler", 4: "jobs", 5: "faults",
        }

    def test_args_exported_from_flat_and_journaled_events(self):
        rec = TraceRecorder()
        rec.complete("task", "t", "sim", 1.0, 0.5, args={"job": 2, "type": "db"})
        flat = list(rec.events[0])
        # Sweep journals written before events were flat hold (..., id, args).
        journaled = flat[:7] + [{"job": 2, "type": "db"}]
        entries = [
            [e for e in chrome_trace([ev])["traceEvents"] if e["ph"] == "X"][0]
            for ev in (flat, journaled)
        ]
        assert entries[0] == entries[1]
        assert entries[0]["args"] == {"job": 2, "type": "db"}

    def test_timestamps_scaled_to_microseconds(self):
        rec = TraceRecorder()
        rec.complete("task", "t", "sim", 1.5, 0.25)
        entry = [e for e in chrome_trace(rec.events)["traceEvents"] if e["ph"] == "X"][0]
        assert entry["ts"] == 1.5e6
        assert entry["dur"] == 0.25e6

    def test_multi_point_merge_strides_pids(self):
        rec = TraceRecorder()
        rec.instant("task", "t", "server/s0", 0.0)
        events = list(rec.events)
        doc = chrome_trace_points([("a", events), ("b", events)])
        pids = sorted(
            ev["pid"] for ev in doc["traceEvents"] if ev["name"] == "process_name"
        )
        assert pids == [1, PROCESS_STRIDE + 1]
        labels = [
            ev["args"]["name"] for ev in doc["traceEvents"]
            if ev["name"] == "process_name"
        ]
        assert labels == ["a · servers", "b · servers"]
        assert validate_chrome_trace(doc) == []

    def test_write_is_deterministic(self, tmp_path):
        doc = chrome_trace(self._sample_recorder().events, label="run")
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_chrome_trace(str(p1), doc)
        write_chrome_trace(str(p2), json.loads(json.dumps(doc)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "Z"}]}) != []
        bad_complete = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": 0}
        ]}
        assert any("dur" in p for p in validate_chrome_trace(bad_complete))
        with pytest.raises(ValueError, match="invalid chrome trace"):
            check_chrome_trace({"traceEvents": [{"ph": "Z"}]})
