"""Unit and property-based tests for the discrete-event engine."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import COMPACTION_MIN_HEAP, Engine, SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, order.append, "b")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(3.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_fifo(self, engine):
        order = []
        for tag in range(10):
            engine.schedule(1.0, order.append, tag)
        engine.run()
        assert order == list(range(10))

    def test_now_matches_event_time_inside_callback(self, engine):
        seen = []
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.schedule(4.25, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [1.5, 4.25]

    def test_schedule_at_absolute_time(self, engine):
        seen = []
        engine.schedule_at(7.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7.0]

    def test_schedule_in_past_raises(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_zero_delay_runs_now(self, engine):
        seen = []
        engine.schedule(1.0, lambda: engine.schedule(0.0, lambda: seen.append(engine.now)))
        engine.run()
        assert seen == [1.0]

    def test_callback_args_passed_through(self, engine):
        seen = []
        engine.schedule(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        engine.run()
        assert seen == [(1, "x")]

    def test_events_scheduled_from_callbacks(self, engine):
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, lambda: order.append("second"))

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_cancel_twice_is_noop(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        engine.run()

    def test_pending_flag(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        assert handle.pending
        handle.cancel()
        assert not handle.pending

    def test_fired_event_not_pending(self, engine):
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        assert not handle.pending

    def test_cancel_from_earlier_event(self, engine):
        fired = []
        later = engine.schedule(2.0, fired.append, "later")
        engine.schedule(1.0, later.cancel)
        engine.run()
        assert fired == []

    def test_pending_count_ignores_cancelled(self, engine):
        handles = [engine.schedule(1.0, lambda: None) for _ in range(5)]
        handles[0].cancel()
        handles[3].cancel()
        assert engine.pending_count() == 3

    def test_cancel_from_same_timestamp_callback(self, engine):
        # An earlier same-timestamp event cancels a later one: FIFO ordering
        # guarantees the cancellation lands before the victim fires.
        fired = []
        victim = engine.schedule(1.0, fired.append, "victim")
        engine.schedule(1.0, fired.append, "survivor")
        handle = engine.schedule(0.5, lambda: victim.cancel())
        assert handle.pending
        engine.run()
        assert fired == ["survivor"]

    def test_cancel_same_timestamp_sibling_scheduled_first(self, engine):
        fired = []
        holder = {}
        engine.schedule(1.0, lambda: holder["victim"].cancel())
        holder["victim"] = engine.schedule(1.0, fired.append, "victim")
        engine.run()
        assert fired == []

    def test_peek_time_after_mass_cancellation(self, engine):
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(50)]
        for handle in handles[:49]:
            handle.cancel()
        # Lazy deletion must not surface a cancelled head.
        assert engine.peek_time() == 50.0
        handles[49].cancel()
        assert engine.peek_time() is None
        assert engine.pending_count() == 0

    def test_scheduled_events_split_into_executed_cancelled_pending(self, engine):
        fired = engine.schedule(1.0, lambda: None)
        engine.post(1.0, lambda: None)
        cancelled = engine.schedule(2.0, lambda: None)
        engine.schedule(3.0, lambda: None)
        cancelled.cancel()
        cancelled.cancel()  # a repeat cancel is not counted again
        engine.run(until=2.5)
        fired.cancel()  # nor is cancelling a fired handle
        assert engine.events_scheduled == 4
        assert engine.events_executed == 2
        assert engine.events_cancelled == 1
        assert engine.pending_count() == 1
        # Compaction drops cancelled entries but keeps the count.
        handles = [engine.schedule(5.0, lambda: None) for _ in range(COMPACTION_MIN_HEAP)]
        for handle in handles:
            handle.cancel()
        assert engine.queued_count() < COMPACTION_MIN_HEAP
        assert engine.events_cancelled == 1 + COMPACTION_MIN_HEAP
        assert engine.events_scheduled == (
            engine.events_executed + engine.events_cancelled + engine.pending_count()
        )


class TestFastPath:
    def test_post_events_run_in_time_order(self, engine):
        order = []
        engine.post(2.0, order.append, "b")
        engine.post(1.0, order.append, "a")
        engine.post(3.0, order.append, "c")
        engine.run()
        assert order == ["a", "b", "c"]

    def test_post_interleaves_fifo_with_schedule(self, engine):
        # Same-time events run in scheduling order regardless of which
        # surface (post vs schedule) queued them.
        order = []
        engine.post(1.0, order.append, 0)
        engine.schedule(1.0, order.append, 1)
        engine.post(1.0, order.append, 2)
        engine.schedule(1.0, order.append, 3)
        engine.run()
        assert order == [0, 1, 2, 3]

    def test_post_returns_nothing(self, engine):
        assert engine.post(1.0, lambda: None) is None
        assert engine.post_at(2.0, lambda: None) is None

    def test_post_at_in_past_raises(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.post_at(0.5, lambda: None)

    def test_post_negative_delay_raises(self, engine):
        with pytest.raises(SimulationError):
            engine.post(-0.1, lambda: None)

    def test_post_args_passed_through(self, engine):
        seen = []
        engine.post(1.0, lambda a, b: seen.append((a, b)), 1, "x")
        engine.run()
        assert seen == [(1, "x")]

    def test_step_handles_posted_events(self, engine):
        seen = []
        engine.post(1.0, seen.append, "fast")
        engine.schedule(2.0, seen.append, "slow")
        assert engine.step()
        assert seen == ["fast"]
        assert engine.step()
        assert seen == ["fast", "slow"]
        assert engine.step() is False

    def test_posted_events_count_as_pending(self, engine):
        engine.post(1.0, lambda: None)
        engine.schedule(2.0, lambda: None).cancel()
        assert engine.pending_count() == 1
        assert engine.peek_time() == 1.0


class TestNanTimes:
    """NaN passes ``time < now``; every scheduling guard must still refuse it."""

    NAN = float("nan")

    @pytest.mark.parametrize("method", ["post_at", "schedule_at", "post", "schedule"])
    def test_nan_rejected_naming_nan(self, engine, method):
        with pytest.raises(SimulationError, match="NaN"):
            getattr(engine, method)(self.NAN, lambda: None)
        assert engine.queued_count() == 0

    def test_nan_rejected_mid_run_leaves_clock_and_order_intact(self, engine):
        # Before the guard, the NaN entry landed mid-heap, ran between 2.0
        # and 3.0 and set the clock to NaN.
        order = []
        errors = []

        def post(t):
            try:
                engine.post_at(t, lambda: order.append(engine.now))
            except SimulationError as exc:
                errors.append(str(exc))

        for t in (3.0, 1.0, 2.0, self.NAN, 0.5, 1.5):
            post(t)
        engine.run()
        assert order == [0.5, 1.0, 1.5, 2.0, 3.0]
        assert engine.now == 3.0
        assert len(errors) == 1 and "NaN" in errors[0]

    def test_infinite_time_still_allowed(self, engine):
        engine.post_at(float("inf"), lambda: None)
        engine.run(until=10.0)
        assert engine.now == 10.0
        assert engine.pending_count() == 1


class TestHeapCompaction:
    def test_mass_cancel_keeps_heap_bounded(self, engine):
        # The delay-timer worst case: 100K timers scheduled and immediately
        # cancelled.  Lazy deletion alone would grow the heap to 100K + live
        # entries; compaction must keep it bounded by the live population.
        live = [engine.schedule(float(i + 1), lambda: None) for i in range(10)]
        for i in range(100_000):
            engine.schedule(1000.0 + (i % 50), lambda: None).cancel()
        # At most: live entries + the garbage allowed before the next sweep.
        assert engine.queued_count() <= 2 * max(
            len(live) + 1, COMPACTION_MIN_HEAP
        )
        assert engine.pending_count() == len(live)
        assert engine.peek_time() == 1.0
        order = []
        for i, handle in enumerate(live):
            # Survivors keep their original (time, seq) keys...
            engine.schedule_at(handle.time, order.append, ("after", i))
        engine.run()
        # ...so time ordering and same-time FIFO order survive compaction.
        assert order == [("after", i) for i in range(len(live))]

    def test_small_heaps_are_not_compacted(self, engine):
        handles = [engine.schedule(1.0, lambda: None) for _ in range(8)]
        for handle in handles:
            handle.cancel()
        # Below COMPACTION_MIN_HEAP we rely on lazy deletion only.
        assert engine.queued_count() == 8
        engine.run()
        assert engine.queued_count() == 0

    def test_compaction_triggered_from_callback(self, engine):
        fired = []
        victims = [
            engine.schedule(10.0 + i, lambda: None)
            for i in range(2 * COMPACTION_MIN_HEAP)
        ]

        def cancel_all():
            for victim in victims:
                victim.cancel()

        engine.schedule(1.0, cancel_all)
        engine.schedule(2.0, fired.append, "after")
        engine.run()
        assert fired == ["after"]
        assert engine.queued_count() == 0

    def test_cancelled_counter_survives_mixed_pop_and_compact(self, engine):
        rounds = 5
        for _ in range(rounds):
            handles = [engine.schedule(1.0, lambda: None) for _ in range(200)]
            for handle in handles[::2]:
                handle.cancel()
            engine.run()
            assert engine.queued_count() == 0
            assert engine.pending_count() == 0
        assert engine.events_executed == rounds * 100


class TestRunControl:
    def test_run_until_stops_clock_at_horizon(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(10.0, lambda: None)
        engine.run(until=5.0)
        assert engine.now == 5.0
        assert engine.pending_count() == 1

    def test_run_until_resumable(self, engine):
        seen = []
        engine.schedule(10.0, seen.append, "late")
        engine.run(until=5.0)
        assert seen == []
        engine.run()
        assert seen == ["late"]

    def test_event_exactly_at_horizon_runs(self, engine):
        seen = []
        engine.schedule(5.0, seen.append, "edge")
        engine.run(until=5.0)
        assert seen == ["edge"]

    def test_stop_from_callback(self, engine):
        seen = []

        def first():
            seen.append(1)
            engine.stop()

        engine.schedule(1.0, first)
        engine.schedule(2.0, seen.append, 2)
        engine.run()
        assert seen == [1]
        assert engine.pending_count() == 1

    def test_max_events_guard(self, engine):
        def loop():
            engine.schedule(0.0, loop)

        engine.schedule(0.0, loop)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_max_events_executes_exactly_n(self, engine):
        fired = []
        for i in range(10):
            engine.schedule(float(i), fired.append, i)
        with pytest.raises(SimulationError):
            engine.run(max_events=4)
        # Exactly 4 events ran before the guard tripped, not 5.
        assert fired == [0, 1, 2, 3]
        assert engine.pending_count() == 6

    def test_max_events_draining_queue_exactly_is_not_an_error(self, engine):
        fired = []
        for i in range(5):
            engine.schedule(float(i), fired.append, i)
        engine.run(max_events=5)
        assert fired == [0, 1, 2, 3, 4]

    def test_max_events_run_resumable_after_guard(self, engine):
        fired = []
        for i in range(6):
            engine.schedule(float(i), fired.append, i)
        with pytest.raises(SimulationError):
            engine.run(max_events=3)
        engine.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_stop_mid_queue_then_resume_runs_remainder(self, engine):
        seen = []
        engine.schedule(1.0, seen.append, 1)
        engine.schedule(2.0, lambda: (seen.append(2), engine.stop()))
        engine.schedule(3.0, seen.append, 3)
        engine.schedule(4.0, seen.append, 4)
        engine.run()
        assert seen == [1, 2]
        assert engine.pending_count() == 2
        engine.run()
        assert seen == [1, 2, 3, 4]
        assert engine.now == 4.0

    def test_run_not_reentrant(self, engine):
        def nested():
            engine.run()

        engine.schedule(1.0, nested)
        with pytest.raises(SimulationError):
            engine.run()

    def test_step_returns_false_when_empty(self, engine):
        assert engine.step() is False

    def test_peek_time(self, engine):
        assert engine.peek_time() is None
        engine.schedule(3.0, lambda: None)
        engine.schedule(1.0, lambda: None)
        assert engine.peek_time() == 1.0

    def test_events_executed_counter(self, engine):
        for _ in range(7):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_executed == 7

    def test_start_time(self):
        engine = Engine(start_time=100.0)
        assert engine.now == 100.0
        with pytest.raises(SimulationError):
            engine.schedule_at(50.0, lambda: None)


class TestEngineProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_execution_times_are_sorted(self, delays):
        engine = Engine()
        fired = []
        for d in delays:
            engine.schedule(d, lambda: fired.append(engine.now))
        engine.run()
        assert len(fired) == len(delays)
        assert fired == sorted(fired)

    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_cancelled_subset_never_fires(self, delays, cancel_mask):
        engine = Engine()
        fired = []
        handles = [
            engine.schedule(d, fired.append, i) for i, d in enumerate(delays)
        ]
        cancelled = set()
        for i, (handle, cancel) in enumerate(zip(handles, cancel_mask)):
            if cancel:
                handle.cancel()
                cancelled.add(i)
        engine.run()
        assert set(fired).isdisjoint(cancelled)
        assert set(fired) | cancelled == set(range(len(delays)))


class TestDispatchHook:
    """The telemetry instrumentation point: Engine.set_dispatch_hook."""

    def test_hook_sees_every_event_and_invokes_callbacks(self):
        engine = Engine()
        seen = []

        def hook(time, callback, args):
            seen.append(time)
            callback(*args)

        engine.set_dispatch_hook(hook)
        fired = []
        engine.post(2.0, fired.append, "b")
        engine.post(1.0, fired.append, "a")
        engine.run()
        assert fired == ["a", "b"]
        assert seen == [1.0, 2.0]
        assert engine.events_executed == 2

    def test_hook_replaces_invocation(self):
        # The hook owns the call: one that swallows the callback suppresses
        # execution (events are still consumed and counted).
        engine = Engine()
        engine.set_dispatch_hook(lambda t, cb, a: None)
        fired = []
        engine.post(1.0, fired.append, 1)
        engine.run()
        assert fired == []
        assert engine.events_executed == 1

    def test_step_honours_hook(self):
        engine = Engine()
        seen = []
        engine.set_dispatch_hook(lambda t, cb, a: (seen.append(t), cb(*a)))
        fired = []
        engine.post(1.0, fired.append, "x")
        assert engine.step()
        assert fired == ["x"] and seen == [1.0]

    def test_clearing_hook_restores_fast_path(self):
        engine = Engine()
        engine.set_dispatch_hook(lambda t, cb, a: cb(*a))
        engine.set_dispatch_hook(None)
        assert engine.dispatch_hook is None
        fired = []
        engine.post(1.0, fired.append, 1)
        engine.run()
        assert fired == [1]

    def test_non_callable_hook_rejected(self):
        with pytest.raises(TypeError):
            Engine().set_dispatch_hook("not-a-hook")

    def test_hooked_run_matches_fast_run(self):
        def workload(engine):
            order = []
            engine.schedule(0.5, order.append, "timer")
            handle = engine.schedule(0.7, order.append, "cancelled")
            handle.cancel()
            engine.post(0.2, order.append, "posted")
            engine.run()
            return order, engine.now, engine.events_executed

        plain = workload(Engine())
        hooked_engine = Engine()
        hooked_engine.set_dispatch_hook(lambda t, cb, a: cb(*a))
        assert workload(hooked_engine) == plain
