"""Engine.run_before / run_until: the exclusive-horizon segment primitives.

Both execute events strictly before ``t`` and leave events at exactly ``t``
queued.  ``run_until`` then lands the clock precisely on ``t`` so work done
between calls runs at that timestamp ahead of any same-time event;
``run_before`` leaves the clock on the last executed event, which is what
lets a durable run cut itself into segments and still end where one
uninterrupted ``run()`` would.
"""

from __future__ import annotations

import pytest

from repro.core.engine import Engine, SimulationError


class TestRunUntil:
    def test_executes_strictly_before_horizon_only(self):
        engine = Engine()
        fired = []
        engine.post_at(0.5, fired.append, "before")
        engine.post_at(1.0, fired.append, "on-edge")
        engine.post_at(1.5, fired.append, "after")
        engine.run_until(1.0)
        assert fired == ["before"]
        assert engine.pending_count() == 2

    def test_clock_lands_exactly_on_horizon(self):
        engine = Engine()
        engine.post_at(0.25, lambda: None)
        engine.run_until(1e-3)
        assert engine.now == 1e-3
        engine.run_until(2e-3)
        assert engine.now == 2e-3

    def test_on_edge_event_fires_in_next_window_at_its_time(self):
        engine = Engine()
        stamps = []
        engine.post_at(1.0, lambda: stamps.append(engine.now))
        engine.run_until(1.0)
        assert stamps == []
        engine.run_until(2.0)
        assert stamps == [1.0]

    def test_barrier_work_runs_ahead_of_same_time_events(self):
        # The delivery pattern: after run_until(t) the runtime applies
        # boundary messages as direct calls at now == t, then the next
        # window executes the queued event at t — deliveries win the tie.
        engine = Engine()
        order = []
        engine.post_at(1.0, order.append, "queued-event")
        engine.run_until(1.0)
        order.append("delivery")
        engine.run_until(2.0)
        assert order == ["delivery", "queued-event"]

    def test_rejects_backward_horizon(self):
        engine = Engine()
        engine.post_at(0.5, lambda: None)
        engine.run_until(1.0)
        with pytest.raises(SimulationError):
            engine.run_until(0.5)

    def test_same_horizon_is_a_no_op(self):
        engine = Engine()
        engine.run_until(1.0)
        before = engine.events_executed
        engine.run_until(1.0)
        assert engine.now == 1.0
        assert engine.events_executed == before

    def test_repeated_windows_execute_everything_eventually(self):
        engine = Engine()
        fired = []
        for i in range(10):
            engine.post_at(i * 0.1, fired.append, i)
        for k in range(1, 12):
            engine.run_until(k * 0.1)
        assert fired == list(range(10))


class TestRunBefore:
    def test_clock_stays_on_last_executed_event(self):
        engine = Engine()
        engine.post_at(0.25, lambda: None)
        engine.post_at(2.0, lambda: None)
        assert engine.run_before(1.0) is True
        assert engine.now == 0.25

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

    def test_rejects_backward_horizon(self):
        engine = Engine()
        engine.post_at(0.5, lambda: None)
        engine.run_before(1.0)
        with pytest.raises(SimulationError):
            engine.run_before(0.25)
