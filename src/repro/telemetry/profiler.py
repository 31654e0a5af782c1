"""Event-loop self-profiler: wall-clock attribution per event handler.

Wraps the engine's dispatch via :meth:`repro.core.engine.Engine.set_dispatch_hook`
and accumulates call counts and wall-clock time keyed by handler
(``OwnerClass.method`` for bound methods).  Profiling the *simulator itself*
— which handlers burn the wall-clock on a 20K-server run — feeds future
performance work.  What the hook costs the engine loop is measured, not
assumed: ``repro bench`` records it as ``telemetry.hook_overhead_pct``.

While its telemetry session is active the profiler also counts CPython's
cyclic-GC passes and their wall-clock per generation (through
``gc.callbacks``).  Collector time is otherwise charged to whichever handler
happened to allocate, or to no handler at all during a world's build.

Summaries are plain dicts so per-sweep-point profiles can cross process
boundaries and be merged into one fleet-wide table.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def handler_key(callback: Callable[..., Any]) -> str:
    """A stable, human-readable key for an event callback."""
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{callback.__name__}"
    name = getattr(callback, "__qualname__", None)
    if name:
        return name
    return type(callback).__name__


#: CPython's collector generations, youngest first.
GC_GENERATIONS = 3


class DispatchProfiler:
    """Accumulates per-handler [calls, total_s, max_s] across dispatches.

    One profiler may be attached to several engines (a sweep point that
    builds multiple farms); the stats pool is shared.
    """

    def __init__(self):
        self._stats: Dict[str, List[float]] = {}
        self.events = 0
        self.wall_s = 0.0
        #: Cyclic-GC [passes, total_s] per generation, youngest first.
        self.gc_stats: List[List[float]] = [[0, 0.0] for _ in range(GC_GENERATIONS)]
        self._gc_t0 = 0.0

    # ------------------------------------------------------------------
    def attach(self, engine) -> None:
        engine.set_dispatch_hook(self._dispatch)

    def detach(self, engine) -> None:
        # Bound-method access creates a fresh object, so compare with ==
        # (same function + same instance), never ``is``.
        if engine.dispatch_hook == self._dispatch:
            engine.set_dispatch_hook(None)

    def watch_gc(self) -> None:
        """Start counting cyclic-GC passes (a no-op if already counting)."""
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        """Stop counting cyclic-GC passes (a no-op if not counting)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        else:
            rec = self.gc_stats[info["generation"]]
            rec[0] += 1
            rec[1] += perf_counter() - self._gc_t0

    def _dispatch(self, time: float, callback: Callable[..., Any], args: tuple) -> None:
        t0 = perf_counter()
        try:
            callback(*args)
        finally:
            dt = perf_counter() - t0
            self.events += 1
            self.wall_s += dt
            rec = self._stats.get(handler_key(callback))
            if rec is None:
                self._stats[handler_key(callback)] = [1, dt, dt]
            else:
                rec[0] += 1
                rec[1] += dt
                if dt > rec[2]:
                    rec[2] = dt

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-serialisable profile: totals, per-handler and per-GC-generation
        stats."""
        return {
            "events": self.events,
            "wall_s": self.wall_s,
            "handlers": {
                key: {"calls": rec[0], "total_s": rec[1], "max_s": rec[2]}
                for key, rec in self._stats.items()
            },
            "gc": [{"passes": rec[0], "total_s": rec[1]} for rec in self.gc_stats],
        }

    def merge(self, summary: Optional[dict]) -> None:
        """Fold another profiler's :meth:`summary` into this one."""
        if not summary:
            return
        self.events += summary.get("events", 0)
        self.wall_s += summary.get("wall_s", 0.0)
        for key, stats in summary.get("handlers", {}).items():
            rec = self._stats.get(key)
            if rec is None:
                self._stats[key] = [stats["calls"], stats["total_s"], stats["max_s"]]
            else:
                rec[0] += stats["calls"]
                rec[1] += stats["total_s"]
                if stats["max_s"] > rec[2]:
                    rec[2] = stats["max_s"]
        for rec, stats in zip(self.gc_stats, summary.get("gc", ())):
            rec[0] += stats["passes"]
            rec[1] += stats["total_s"]

    @classmethod
    def from_summaries(cls, summaries: Iterable[Optional[dict]]) -> "DispatchProfiler":
        merged = cls()
        for summary in summaries:
            merged.merge(summary)
        return merged

    # ------------------------------------------------------------------
    def top(self, k: int = 10) -> List[Tuple[str, int, float, float]]:
        """The k hottest handlers by total wall-clock:
        (key, calls, total_s, max_s)."""
        ranked = sorted(
            ((key, rec[0], rec[1], rec[2]) for key, rec in self._stats.items()),
            key=lambda row: (-row[2], row[0]),
        )
        return ranked[:k]

    def top_table(self, k: int = 10) -> str:
        """The hot-handler table, ready to print."""
        per_gen = ", ".join(
            f"gen{gen} {passes}/{total_s:.3f}s"
            for gen, (passes, total_s) in enumerate(self.gc_stats)
        )
        lines = [
            f"event-loop profile: {self.events} events, "
            f"{self.wall_s:.3f}s dispatch wall-clock",
            f"gc: {sum(rec[0] for rec in self.gc_stats)} cyclic-collector passes, "
            f"{sum(rec[1] for rec in self.gc_stats):.3f}s (passes/time: {per_gen})",
            f"{'handler':<40} {'calls':>10} {'total(s)':>10} "
            f"{'mean(us)':>10} {'max(us)':>10} {'share':>7}",
        ]
        for key, calls, total_s, max_s in self.top(k):
            mean_us = total_s / calls * 1e6 if calls else 0.0
            share = total_s / self.wall_s if self.wall_s else 0.0
            lines.append(
                f"{key:<40} {calls:>10} {total_s:>10.3f} "
                f"{mean_us:>10.1f} {max_s * 1e6:>10.1f} {share:>6.1%}"
            )
        if not self._stats:
            lines.append("(no events dispatched)")
        return "\n".join(lines)
