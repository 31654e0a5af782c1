"""Tests for the event-loop self-profiler."""

from __future__ import annotations

import gc
import sys

from repro.core import heap
from repro.core.engine import Engine
from repro.telemetry.profiler import DispatchProfiler, handler_key


class _Handler:
    def __init__(self):
        self.calls = 0

    def on_event(self, x: int = 0) -> None:
        self.calls += 1


class TestHandlerKey:
    def test_bound_method(self):
        assert handler_key(_Handler().on_event) == "_Handler.on_event"

    def test_plain_function(self):
        def helper():
            pass

        assert "helper" in handler_key(helper)

    def test_builtin_like_callable(self):
        assert handler_key([].append) == "list.append"


class TestProfiling:
    def test_attributes_calls_and_time_per_handler(self):
        engine = Engine()
        prof = DispatchProfiler()
        prof.attach(engine)
        handler = _Handler()
        for i in range(5):
            engine.post(float(i), handler.on_event, i)
        engine.post(10.0, handler.on_event)
        engine.run()
        assert handler.calls == 6  # the hook really invoked the callbacks
        assert prof.events == 6
        summary = prof.summary()
        stats = summary["handlers"]["_Handler.on_event"]
        assert stats["calls"] == 6
        assert stats["total_s"] >= 0.0
        assert summary["wall_s"] >= stats["total_s"] * 0.0

    def test_detach_only_removes_own_hook(self):
        engine = Engine()
        prof = DispatchProfiler()
        prof.attach(engine)
        other = lambda t, cb, a: cb(*a)  # noqa: E731
        engine.set_dispatch_hook(other)
        prof.detach(engine)  # someone else's hook: leave it alone
        assert engine.dispatch_hook is other
        engine.set_dispatch_hook(prof._dispatch)
        prof.detach(engine)
        assert engine.dispatch_hook is None

    def test_merge_and_from_summaries(self):
        engine = Engine()
        prof_a, prof_b = DispatchProfiler(), DispatchProfiler()
        handler = _Handler()
        prof_a.attach(engine)
        engine.post(0.0, handler.on_event)
        engine.run()
        engine2 = Engine()
        prof_b.attach(engine2)
        engine2.post(0.0, handler.on_event)
        engine2.post(1.0, handler.on_event)
        engine2.run()
        merged = DispatchProfiler.from_summaries(
            [prof_a.summary(), prof_b.summary(), None]
        )
        assert merged.events == 3
        assert merged.summary()["handlers"]["_Handler.on_event"]["calls"] == 3

    def test_top_table_renders(self):
        engine = Engine()
        prof = DispatchProfiler()
        prof.attach(engine)
        handler = _Handler()
        engine.post(0.0, handler.on_event)
        engine.run()
        table = prof.top_table()
        assert "_Handler.on_event" in table
        assert "1 events" in table

    def test_empty_profile_renders(self):
        assert "no events dispatched" in DispatchProfiler().top_table()

    def test_top_ranks_by_total_time(self):
        prof = DispatchProfiler()
        prof.merge({"events": 3, "wall_s": 6.0, "handlers": {
            "cold": {"calls": 1, "total_s": 1.0, "max_s": 1.0},
            "hot": {"calls": 2, "total_s": 5.0, "max_s": 4.0},
        }})
        assert [row[0] for row in prof.top(2)] == ["hot", "cold"]


class TestGcAccounting:
    def test_watch_counts_passes_per_generation(self):
        prof = DispatchProfiler()
        gc.disable()  # only the explicit passes below
        try:
            prof.watch_gc()
            gc.collect(0)
            gc.collect(0)
            gc.collect(1)
            prof.unwatch_gc()
            gc.collect(0)  # not watched any more
        finally:
            gc.enable()
        gens = prof.summary()["gc"]
        assert [g["passes"] for g in gens] == [2, 1, 0]
        assert all(g["total_s"] >= 0.0 for g in gens)

    def test_watch_counts_the_objects_each_generation_collected(self):
        prof = DispatchProfiler()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            prof.watch_gc()
            gc.collect(0)  # nothing to find
            for _ in range(10):
                loop: list = []
                loop.append(loop)  # one unreachable object once dropped
            del loop
            gc.collect(2)
            prof.unwatch_gc()
        finally:
            if was_enabled:
                gc.enable()
        gens = prof.summary()["gc"]
        assert [g["collected"] for g in gens] == [0, 0, 10]
        gc_line = next(
            ln for ln in prof.top_table().splitlines() if ln.startswith("gc:")
        )
        assert ", 10 objects collected (" in gc_line

    def test_watch_and_unwatch_are_idempotent(self):
        before = list(gc.callbacks)
        prof = DispatchProfiler()
        prof.watch_gc()
        prof.watch_gc()
        assert len(gc.callbacks) == len(before) + 1
        prof.unwatch_gc()
        prof.unwatch_gc()
        assert gc.callbacks == before

    def test_merge_sums_gc_counts_across_points(self):
        point = {"events": 0, "wall_s": 0.0, "handlers": {}, "gc": [
            {"passes": 3, "total_s": 0.5, "collected": 0},
            {"passes": 1, "total_s": 0.25, "collected": 7},
            {"passes": 0, "total_s": 0.0, "collected": 0},
        ]}
        merged = DispatchProfiler.from_summaries([point, point, None])
        assert merged.summary()["gc"] == [
            {"passes": 6, "total_s": 1.0, "collected": 0},
            {"passes": 2, "total_s": 0.5, "collected": 14},
            {"passes": 0, "total_s": 0.0, "collected": 0},
        ]
        gc_lines = [ln for ln in merged.top_table().splitlines() if ln.startswith("gc:")]
        assert gc_lines == [
            "gc: 8 cyclic-collector passes, 1.500s, 14 objects collected "
            "(passes/time/collected: gen0 6/1.000s/0, gen1 2/0.500s/14, "
            "gen2 0/0.000s/0)"
        ]

    def test_merge_reads_a_summary_without_the_collected_count_as_0(self):
        # A profile journaled before the count existed.
        old = {"events": 0, "wall_s": 0.0, "handlers": {}, "gc": [
            {"passes": 3, "total_s": 0.5},
            {"passes": 1, "total_s": 0.25},
            {"passes": 0, "total_s": 0.0},
        ]}
        new = {"events": 0, "wall_s": 0.0, "handlers": {}, "gc": [
            {"passes": 1, "total_s": 0.5, "collected": 4},
            {"passes": 0, "total_s": 0.0, "collected": 0},
            {"passes": 0, "total_s": 0.0, "collected": 0},
        ]}
        merged = DispatchProfiler.from_summaries([old, new])
        assert [g["passes"] for g in merged.summary()["gc"]] == [4, 1, 0]
        assert [g["collected"] for g in merged.summary()["gc"]] == [4, 0, 0]

    def test_merge_accepts_summaries_without_gc(self):
        prof = DispatchProfiler()
        prof.merge({"events": 1, "wall_s": 1.0, "handlers": {}})
        assert sum(g["passes"] for g in prof.summary()["gc"]) == 0


class TestSettledHeap:
    def test_summary_reads_the_settled_heap_when_taken(self):
        prof = DispatchProfiler()
        with heap.settled_build():
            world = [[] for _ in range(sys.getallocatedblocks())]  # noqa: F841
        try:
            settled = gc.get_freeze_count()
            assert settled > 0
            assert prof.summary()["settled_objects"] == settled
        finally:
            with heap.settled_build():  # release the world again
                pass

    def test_merge_keeps_the_largest_and_prints_it_after_the_gc_line(self):
        def point(settled):
            return {"events": 0, "wall_s": 0.0, "handlers": {},
                    "settled_objects": settled}

        merged = DispatchProfiler.from_summaries(
            [point(5), point(9), point(7), {"events": 0, "handlers": {}}, None]
        )
        assert merged.settled_objects == 9
        lines = merged.top_table().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("gc:"))
        assert lines[at + 1] == "heap: 9 objects settled (frozen out of cyclic GC)"

    def test_merge_accepts_summaries_without_the_key(self):
        prof = DispatchProfiler()
        prof.merge({"events": 1, "wall_s": 1.0, "handlers": {}})
        assert prof.settled_objects == 0
        assert "heap: 0 objects settled" in prof.top_table()
