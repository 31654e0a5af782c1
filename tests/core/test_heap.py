"""Lifetime tests for the settled heap (repro.core.heap).

A built world that makes up most of the heap is frozen out of cyclic GC
passes; the next build releases it; small, failed and nested builds never
freeze; and the collector is left enabled or disabled as it was found.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import weakref

import pytest

from repro.core import heap
from repro.core.config import small_cloud_server
from repro.experiments.common import build_farm
from repro.experiments.scalability import run_scalability

#: Big enough that its build grows a pytest process's heap well past the
#: freeze gate (≈275K allocated blocks on a heap of ≈400–550K).
LARGE = 4_096


def _release() -> None:
    """An empty build releases whatever an earlier build froze."""
    with heap.settled_build():
        pass


@pytest.fixture(autouse=True)
def _settled_heap_released():
    _release()
    assert gc.get_freeze_count() == 0, "objects frozen outside repro.core.heap"
    assert gc.isenabled()
    yield
    _release()


@pytest.fixture
def config():
    return small_cloud_server(n_cores=4)


class TestFreeze:
    def test_small_farm_is_not_frozen(self, config):
        build_farm(4, config)
        assert gc.get_freeze_count() == 0
        assert gc.isenabled()

    def test_large_farms_are_frozen_then_released_by_the_next_build(self, config):
        servers, counts = [], []
        for _ in range(4):
            farm = build_farm(LARGE, config)
            assert gc.isenabled()
            if servers:
                assert servers[-1]() is None, "the dropped farm outlived the next build"
            servers.append(weakref.ref(farm.servers[0]))
            counts.append(gc.get_freeze_count())
            del farm
        assert counts[0] > 0
        assert counts[-1] <= 1.5 * counts[0]


class TestScope:
    def test_failed_build_freezes_nothing(self, config):
        with pytest.raises(ValueError):
            build_farm(0, config)
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_build_that_raises_after_growing_the_heap_freezes_nothing(self):
        with pytest.raises(RuntimeError):
            with heap.settled_build():
                # Doubles the heap: far past the freeze gate.
                grown = [[] for _ in range(sys.getallocatedblocks())]  # noqa: F841
                raise RuntimeError("build failed")
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_collection_is_paused_during_a_build(self):
        with heap.settled_build():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self, config):
        gc.disable()
        try:
            build_farm(4, config)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_nested_builders_act_once(self, config):
        with heap.settled_build():
            farm = build_farm(LARGE, config)
            assert gc.get_freeze_count() == 0
            assert not gc.isenabled()
        assert gc.get_freeze_count() > 0
        assert gc.isenabled()
        assert farm.servers

    def test_foreign_freeze_only_pauses_and_is_never_released(self):
        with heap.settled_build():
            ours = [[] for _ in range(sys.getallocatedblocks())]  # noqa: F841
        extra = [[] for _ in range(1_000)]  # noqa: F841 - tracked, unfrozen
        gc.freeze()  # someone else's freeze on top of ours
        try:
            foreign = gc.get_freeze_count()
            with heap.settled_build():
                grown = [[] for _ in range(sys.getallocatedblocks())]  # noqa: F841
            assert 0 < gc.get_freeze_count() <= foreign  # neither released nor added to
            assert gc.isenabled()
        finally:
            gc.unfreeze()


def test_repeated_runs_in_one_process_agree():
    first = run_scalability(LARGE, 500)
    second = run_scalability(LARGE, 500)
    assert dataclasses.replace(first, wall_seconds=0.0) == dataclasses.replace(
        second, wall_seconds=0.0
    )
