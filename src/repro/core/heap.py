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
  only what the run allocates: jobs, tasks, trains.  A run makes no cyclic
  garbage: the scheduler frees a completed job by reference count
  (:meth:`repro.jobs.task.Job.release_tasks`).  A failed job is the one
  exception; its Job/Task cycle is left to the collector;
* the next build first releases that world (:func:`gc.unfreeze`, then
  :func:`gc.collect`), so a process that builds and drops worlds one after
  another (a test session, a notebook, a ``--jobs 1`` sweep) gets a dropped
  world's memory back at the next build rather than at once.

:func:`settled_addition` wraps code that adds long-lived objects to a world
already built: a collective job of hundreds of thousands of objects lives
as long as its cluster.  It pauses collection like a build but never
releases the current world.  If the addition passes the same growth gate it
is frozen too, so the next build releases world and addition together.
Job factories that run once per arrival never use it: their jobs finish
mid-run and must stay collectable.

Only the outermost of nested builds and additions acts.  One that raises
freezes nothing, and the collector is left enabled or disabled as it was
found.  Objects someone else froze are never unfrozen nor added to: while
the permanent generation holds any, a build or addition only pauses
collection.  Another freeze is recognised when the permanent generation is
non-empty without a freeze of this module's, or larger than this module
left it.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from typing import ContextManager, Iterator

#: Freeze a built world only if the build grew the heap (allocated blocks)
#: by at least this fraction of its size before the build.
GROWTH_GATE = 0.25

#: Nesting depth of :func:`settled_build` and :func:`settled_addition`.
#: Module state on purpose: the collector and its permanent generation are
#: process-wide.
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
def _settled(release: bool) -> Iterator[None]:
    """Pause the collector around the body; freeze what it grew, if ours.

    ``release`` starts a new world: the previous one is unfrozen and
    collected first.  Without it the body joins the current world.
    """
    global _depth, _frozen_count
    outermost = _depth == 0
    was_enabled = gc.isenabled()
    if outermost:
        if release:
            may_freeze = _release()
        else:
            # Empty, or only what this module froze (see _release).
            may_freeze = gc.get_freeze_count() <= _frozen_count
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


def settled_build() -> ContextManager[None]:
    """Pause the cyclic collector while a world is built, then settle it."""
    return _settled(release=True)


def settled_addition() -> ContextManager[None]:
    """Pause the cyclic collector while long-lived objects join the built
    world, then settle them with it.  Also usable as a decorator."""
    return _settled(release=False)
