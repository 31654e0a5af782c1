"""Engine.run_before: the exclusive-horizon segment primitive.

It executes events strictly before ``t``, leaves events at exactly ``t``
queued, and leaves the clock on the last executed event, which is what lets
a durable run cut itself into segments and still end where one
uninterrupted ``run()`` would.
"""

from __future__ import annotations

import math

import pytest

from repro.core.engine import Engine, SimulationError


class TestRunBefore:
    def test_executes_strictly_before_horizon_only(self):
        engine = Engine()
        fired = []
        engine.post_at(0.5, fired.append, "before")
        engine.post_at(1.0, fired.append, "on-edge")
        engine.post_at(1.5, fired.append, "after")
        engine.run_before(1.0)
        assert fired == ["before"]
        assert engine.pending_count() == 2

    def test_clock_stays_on_last_executed_event(self):
        engine = Engine()
        engine.post_at(0.25, lambda: None)
        engine.post_at(2.0, lambda: None)
        assert engine.run_before(1.0) is True
        assert engine.now == 0.25

    def test_on_edge_event_fires_in_next_segment_at_its_time(self):
        engine = Engine()
        stamps = []
        engine.post_at(1.0, lambda: stamps.append(engine.now))
        engine.run_before(1.0)
        assert stamps == []
        engine.run_before(2.0)
        assert stamps == [1.0]

    def test_reports_drained_queue_and_ends_like_run(self):
        segmented, plain = Engine(), Engine()
        for engine in (segmented, plain):
            for i in range(1, 8):
                engine.post_at(i * 0.3, lambda: None)
        plain.run()
        cut = 0.0
        while True:
            cut += 0.5
            if not segmented.run_before(cut):
                break
        assert segmented.now == plain.now == 7 * 0.3
        assert segmented.events_executed == plain.events_executed

    def test_event_on_the_horizon_stays_queued(self):
        engine = Engine()
        fired = []
        engine.post_at(1.0, fired.append, "on-edge")
        assert engine.run_before(1.0) is True
        assert fired == [] and engine.now == 0.0

    def test_same_horizon_is_a_no_op(self):
        engine = Engine()
        engine.post_at(0.5, lambda: None)
        engine.run_before(1.0)
        before = engine.events_executed
        engine.run_before(1.0)
        assert engine.now == 0.5
        assert engine.events_executed == before

    def test_repeated_segments_execute_everything_eventually(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.post_at(i * 0.1, fired.append, i)
        for k in range(1, 12):
            engine.run_before(k * 0.1)
        assert fired == list(range(10))

    def test_rejects_backward_horizon(self):
        engine = Engine()
        engine.post_at(0.5, lambda: None)
        engine.run_before(1.0)
        with pytest.raises(SimulationError):
            engine.run_before(0.25)

    def test_rejects_horizon_just_behind_clock(self):
        engine = Engine()
        engine.post_at(0.5, lambda: None)
        engine.run_before(1.0)
        with pytest.raises(SimulationError):
            engine.run_before(math.nextafter(0.5, -math.inf))
