"""Engine pickling: a checkpointed heap resumes the identical event stream.

Durable runs pickle the engine together with the model its heap entries
alias (:mod:`repro.checkpoint`); these tests pin the engine's share of that
contract.  Callbacks are module-level so the heap pickles.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import Engine, SimulationError


class _Ticker:
    """Two self-rescheduling chains logging ``(now, label)``."""

    def __init__(self):
        self.engine = Engine()
        self.log = []
        self.engine.post_at(0.1, self.tick, "a")
        self.engine.post_at(0.15, self.tick, "b")

    def tick(self, label):
        self.log.append((self.engine.now, label))
        if self.engine.now < 0.5:
            self.engine.post_at(self.engine.now + 0.1, self.tick, label)


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestEngineSnapshot:
    def test_restore_replays_identical_event_stream(self):
        ref = _Ticker()
        ref.engine.run()

        ticker = _Ticker()
        assert ticker.engine.run_before(0.3)
        assert 0 < len(ticker.log) < len(ref.log)  # the cut was mid-run
        restored = _roundtrip(ticker)
        restored.engine.run()
        assert restored.log == ref.log
        assert restored.engine.now == ref.engine.now
        assert restored.engine.events_executed == ref.engine.events_executed

    def test_snapshot_preserves_cancellations(self):
        engine = Engine()
        fired = []
        engine.post_at(0.2, fired.append, "keep")
        engine.schedule_at(0.1, fired.append, "cancel").cancel()
        engine, fired = _roundtrip((engine, fired))
        engine.run()
        assert fired == ["keep"]

    def test_seq_continues_after_restore(self):
        # Tie-broken ordering must not restart: events posted after restore
        # get sequence numbers after everything in the checkpoint.
        engine = Engine()
        order = []
        engine.post_at(1.0, order.append, "first")
        engine, order = _roundtrip((engine, order))
        engine.post_at(1.0, order.append, "second")
        engine.run()
        assert order == ["first", "second"]

    def test_snapshot_while_running_refused(self):
        engine = Engine()
        refused = []

        def grab():
            with pytest.raises(SimulationError):
                pickle.dumps(engine)
            refused.append(True)

        engine.post_at(0.1, grab)
        engine.run()
        assert refused == [True]

    def test_dispatch_hook_is_not_pickled(self):
        engine = Engine()
        engine.set_dispatch_hook(lambda t, cb, args: cb(*args))
        assert _roundtrip(engine).dispatch_hook is None
