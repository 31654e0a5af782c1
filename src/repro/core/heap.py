"""Settled heap: keep CPython's cyclic collector off a world once it is built.

Building a simulated world (a 20,480-server farm, a k=16 fat tree) leaves
hundreds of thousands of GC-tracked objects that all live exactly as long as
the world does.  CPython's generational collector cannot know that: the
build's own allocations trigger full collections that find nothing, and
every later full pass during the run and the audit walks the whole world
again.  On Table I at 20,480 servers that was ~40% of the wall time.

:func:`settled_build` wraps the code that builds one world:

* while the world is built, automatic collection is paused;
* afterwards, if the build grew the heap by at least :data:`GROWTH_GATE`
  (CPython's own trigger for a full collection), the heap is moved to the
  permanent generation with :func:`gc.freeze`, so later collections scan
  only what the run allocates: jobs, tasks, trains.  The Job/Task cycles the
  run makes are collected as before;
* the next build first releases that world (:func:`gc.unfreeze`, then
  :func:`gc.collect`), so a process that builds and drops worlds one after
  another (a test session, a notebook, a ``--jobs 1`` sweep) gets a dropped
  world's memory back at the next build rather than at once.

Only the outermost of nested builds acts.  A build that raises freezes
nothing, and the collector is left enabled or disabled as it was found.
Objects someone else froze are never unfrozen: while the permanent
generation holds any, a build only pauses collection.  Another freeze is
recognised when the permanent generation is non-empty without a freeze of
this module's, or larger than this module left it.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from typing import Iterator

#: Freeze a built world only if the build grew the heap (allocated blocks)
#: by at least this fraction of its size before the build.
GROWTH_GATE = 0.25

#: Nesting depth of :func:`settled_build`.  Module state on purpose: the
#: collector and its permanent generation are process-wide.
_depth = 0
#: Size of the permanent generation right after this module froze it; 0
#: when the permanent generation holds nothing this module froze.
_frozen_count = 0


def _release() -> bool:
    """Unfreeze and collect the world this module froze last.

    Returns whether the coming build may freeze: not while the permanent
    generation holds objects frozen by someone else.
    """
    global _frozen_count
    count = gc.get_freeze_count()
    ours = 0 < count <= _frozen_count
    _frozen_count = 0
    if ours:
        gc.unfreeze()
        gc.collect()
    # Frozen objects can be freed but not added, except by another
    # gc.freeze(): a count above ours, or with no freeze of ours, is foreign.
    return ours or count == 0


@contextmanager
def settled_build() -> Iterator[None]:
    """Pause the cyclic collector while a world is built, then settle it."""
    global _depth, _frozen_count
    outermost = _depth == 0
    was_enabled = gc.isenabled()
    if outermost:
        may_freeze = _release()
        blocks_before = sys.getallocatedblocks()
        gc.disable()
    _depth += 1
    try:
        yield
        if outermost and may_freeze and (
            sys.getallocatedblocks() - blocks_before >= GROWTH_GATE * blocks_before
        ):
            gc.freeze()
            _frozen_count = gc.get_freeze_count()
    finally:
        _depth -= 1
        if outermost and was_enabled:
            gc.enable()
