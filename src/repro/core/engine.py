"""Discrete-event simulation engine.

HolDCSim is an event-driven simulator; this module is its heart.  The engine
keeps a binary heap of pending events ordered by ``(time, sequence)`` so that
execution is globally time-ordered and FIFO-stable among events scheduled for
the same instant.

Two scheduling surfaces share the heap:

* :meth:`Engine.post` / :meth:`Engine.post_at` — the **fast path**.  The heap
  entry is a plain ``(time, seq, callback, args)`` tuple; nothing else is
  allocated and heap sifts compare tuples in C.  Use it for the
  overwhelmingly common fire-and-forget events (task completions, arrivals,
  packet hops, periodic controller ticks).
* :meth:`Engine.schedule` / :meth:`Engine.schedule_at` — the **cancellable
  path**.  An :class:`EventHandle` is materialised only here, for callers
  that keep the return value to :meth:`EventHandle.cancel` later (delay
  timers, LPI timers, wake races).  The heap entry is ``(time, seq, None,
  handle)`` so entries stay homogeneous tuples; because ``seq`` is unique,
  comparisons never reach the payload slots.

Cancellation is lazy (the entry stays queued and is skipped when popped),
which keeps ``cancel()`` O(1).  Policies that cancel constantly — delay
timers rearm on every task — would otherwise grow the heap without bound, so
the engine compacts it whenever cancelled entries outnumber live ones (and
the heap is big enough for compaction to pay for itself).

Simulating a >20K-server farm (Table I of the paper) pushes millions of
events through this loop; :meth:`Engine.run` inlines the pop-dispatch cycle
and avoids allocation beyond the heap entry itself.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

#: Compaction is considered once the heap holds at least this many entries;
#: below it, lazily dropping cancelled entries on pop is cheaper than a sweep.
COMPACTION_MIN_HEAP = 64

_Entry = Tuple[float, int, Optional[Callable[..., Any]], Any]


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is used inconsistently.

    Examples: scheduling an event in the past, or re-entering :meth:`Engine.run`
    from inside an event callback.
    """


def _past_time_message(time: float, now: float) -> str:
    if math.isnan(time):
        return f"cannot schedule event at t=NaN (current time t={now})"
    return f"cannot schedule event at t={time} before current time t={now}"


def _bad_delay_message(delay: float) -> str:
    if math.isnan(delay):
        return "cannot schedule event after a NaN delay"
    return f"negative delay {delay}"


class EventHandle:
    """A cancellable scheduled event.

    Instances are created by :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at` and should not be constructed directly.  The
    only public operation is :meth:`cancel`; a cancelled event stays in the
    heap but is skipped when popped (lazy deletion), which keeps cancellation
    O(1).  The owning engine counts cancellations and periodically compacts
    the heap when they dominate.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_engine")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        engine: Optional["Engine"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., Any]] = callback
        self.args = args
        self.cancelled = False
        self._engine = engine

    def cancel(self) -> None:
        """Cancel this event; cancelling twice (or after firing) is a no-op."""
        if self.cancelled:
            return
        still_queued = self.callback is not None
        self.cancelled = True
        # Drop references so cancelled timers do not pin large object graphs
        # (servers, switches) until their heap entry is finally popped.
        self.callback = None
        self.args = ()
        if still_queued and self._engine is not None:
            self._engine._note_cancelled()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled nor fired."""
        return not self.cancelled and self.callback is not None

    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


class Engine:
    """The discrete-event simulation core.

    Typical use::

        engine = Engine()
        engine.post(1.0, server.tick)          # fire-and-forget (fast path)
        handle = engine.schedule(1.5, server.wake)   # cancellable
        engine.run(until=3600.0)

    Invariants (covered by property-based tests):

    * callbacks execute in non-decreasing time order;
    * two events scheduled for the same time run in scheduling order,
      regardless of which scheduling surface queued them;
    * ``engine.now`` equals the firing event's timestamp inside callbacks.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: List[_Entry] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._cancelled = 0  # cancelled EventHandles still sitting in the heap
        self._dispatch_hook: Optional[Callable[[float, Callable[..., Any], tuple], None]] = None
        self.events_executed = 0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    @property
    def dispatch_hook(self) -> Optional[Callable[[float, Callable[..., Any], tuple], None]]:
        """The installed dispatch hook, or None (the fast path)."""
        return self._dispatch_hook

    def set_dispatch_hook(
        self, hook: Optional[Callable[[float, Callable[..., Any], tuple], None]]
    ) -> None:
        """Install ``hook(time, callback, args)`` around event dispatch.

        The hook *replaces* the ``callback(*args)`` call and is responsible
        for invoking it (so a profiler can time exactly the dispatch).  Pass
        None to uninstall.  With no hook installed :meth:`run` executes the
        exact pre-hook loop; ``repro bench`` records what installing one
        costs as ``telemetry.hook_overhead_pct``.  Installing a hook while
        :meth:`run` is executing takes effect on the next :meth:`run` call.
        """
        if hook is not None and not callable(hook):
            raise TypeError(f"dispatch hook must be callable or None, got {hook!r}")
        self._dispatch_hook = hook

    # ------------------------------------------------------------------
    # Scheduling — fast (fire-and-forget) path
    # ------------------------------------------------------------------
    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute ``time``; not cancellable.

        This is the hot path: the heap entry is a plain tuple and no handle
        is allocated.  Use :meth:`schedule_at` when the event may need to be
        cancelled.
        """
        # Written as ``not >=`` so a NaN time fails too: ``nan < now`` is
        # False, and a NaN entry would run out of order and poison the clock.
        if not time >= self._now:
            raise SimulationError(_past_time_message(time, self._now))
        heapq.heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds; not cancellable."""
        if not delay >= 0:
            raise SimulationError(_bad_delay_message(delay))
        self.post_at(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # Scheduling — cancellable path
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self._now:
            raise SimulationError(_past_time_message(time, self._now))
        handle = EventHandle(time, self._seq, callback, args, self)
        heapq.heappush(self._heap, (time, self._seq, None, handle))
        self._seq += 1
        return handle

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(_bad_delay_message(delay))
        return self.schedule_at(self._now + delay, callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> bool:
        """Execute the next pending event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            time, _seq, callback, args = heapq.heappop(heap)
            if callback is None:
                handle: EventHandle = args
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                callback, args = handle.callback, handle.args
                # Mark fired before invoking so `pending` is False inside
                # the callback.
                handle.callback = None
                handle.args = ()
            self._now = time
            self.events_executed += 1
            if self._dispatch_hook is None:
                callback(*args)
            else:
                self._dispatch_hook(time, callback, args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Args:
            until: stop once the next event is strictly later than this time
                (the clock is advanced to ``until``).  ``None`` drains the queue.
            max_events: safety valve; execute at most this many events, then
                raise :class:`SimulationError` if more remain (useful to catch
                accidental event storms in tests).  Draining the queue in
                exactly ``max_events`` events is not an error.
        """
        self._dispatch(until, max_events)
        if until is not None and self._now < until and not self._stopped:
            self._now = until

    def _dispatch(self, until: Optional[float], max_events: Optional[int]) -> None:
        """Execute events up to ``until`` (inclusive) without moving the
        clock past the last one; :meth:`run` and :meth:`run_before` share it."""
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        self._stopped = False
        try:
            if self._dispatch_hook is None:
                self._run_fast(until, max_events)
            else:
                self._run_hooked(until, max_events, self._dispatch_hook)
        finally:
            self._running = False

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> None:
        """The uninstrumented dispatch loop — the pre-hook hot path, verbatim."""
        executed = 0
        pop = heapq.heappop
        while not self._stopped:
            # Re-read the heap each iteration: compaction (triggered by
            # cancellations inside callbacks) rebinds the list.
            heap = self._heap
            while heap and heap[0][2] is None and heap[0][3].cancelled:
                pop(heap)
                self._cancelled -= 1
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            time, _seq, callback, args = pop(heap)
            if callback is None:
                handle: EventHandle = args
                callback, args = handle.callback, handle.args
                handle.callback = None
                handle.args = ()
            self._now = time
            self.events_executed += 1
            executed += 1
            callback(*args)

    def _run_hooked(
        self,
        until: Optional[float],
        max_events: Optional[int],
        hook: Callable[[float, Callable[..., Any], tuple], None],
    ) -> None:
        """The same loop with dispatch routed through ``hook``.

        A separate method (rather than a per-event hook check in
        :meth:`_run_fast`) so enabling profiling costs nothing when it is
        off: the branch happens once per :meth:`run`, not once per event.
        """
        executed = 0
        pop = heapq.heappop
        while not self._stopped:
            heap = self._heap
            while heap and heap[0][2] is None and heap[0][3].cancelled:
                pop(heap)
                self._cancelled -= 1
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                break
            if max_events is not None and executed >= max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            time, _seq, callback, args = pop(heap)
            if callback is None:
                handle: EventHandle = args
                callback, args = handle.callback, handle.args
                handle.callback = None
                handle.args = ()
            self._now = time
            self.events_executed += 1
            executed += 1
            hook(time, callback, args)

    def run_before(self, t: float) -> bool:
        """Execute every event strictly before ``t``; True while events remain.

        Events at exactly ``t`` stay queued.  The clock stays on the last
        executed event, so a run cut into segments (a durable run that
        checkpoints between them) ends where one uninterrupted :meth:`run`
        would — ``now`` feeds end-of-run reports and energy integrals.
        Implemented as the inclusive dispatch loop with a horizon one ulp
        below ``t``, so cutting pays nothing on the per-event hot path.
        """
        if t < self._now:
            raise SimulationError(
                f"cannot run before t={t}: the clock is already at t={self._now}"
            )
        if t > self._now:
            self._dispatch(math.nextafter(t, -math.inf), None)
        return self.peek_time() is not None

    def stop(self) -> None:
        """Stop the loop after the current event; usable from callbacks."""
        self._stopped = True

    @property
    def stopped(self) -> bool:
        """True if the last :meth:`run` ended via an explicit :meth:`stop`.

        Invariant audits use this to distinguish "queue drained" from
        "deliberately halted with work outstanding" at simulation end.
        """
        return self._stopped

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle support for whole-world checkpoints.

        Heap entries alias the model's callbacks and :class:`EventHandle`
        objects, so an engine is only ever pickled *together with* the model
        it drives — one ``pickle.dumps`` of the whole world, which is what
        :mod:`repro.checkpoint` does.  The dispatch hook is observer wiring
        (a profiler, possibly holding open file handles), never simulated
        state, so it is dropped; a restored run re-installs its own.
        """
        if self._running:
            raise SimulationError("cannot pickle an engine while run() is executing")
        state = self.__dict__.copy()
        state["_dispatch_hook"] = None
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        """Number of non-cancelled events still queued (O(n); for tests)."""
        return sum(
            1
            for entry in self._heap
            if entry[2] is not None or entry[3].pending
        )

    def queued_count(self) -> int:
        """Raw heap length including lazily-deleted entries (O(1))."""
        return len(self._heap)

    def _note_cancelled(self) -> None:
        """A queued handle was cancelled; compact when garbage dominates."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._heap) >= COMPACTION_MIN_HEAP:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries.

        Entries carry their original ``(time, seq)`` keys, so re-heapifying
        the survivors preserves both time ordering and same-time FIFO order.
        """
        self._heap = [
            entry
            for entry in self._heap
            if entry[2] is not None or not entry[3].cancelled
        ]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def _drop_cancelled_head(self) -> None:
        heap = self._heap
        while heap and heap[0][2] is None and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.6f} queued={len(self._heap)}>"
