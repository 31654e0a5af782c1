"""Job lifetime: a completed job frees itself; a failed one lets go of its
blocked tasks.

``Task.job`` and ``Job.tasks`` point at each other.  The scheduler breaks
that cycle when a job completes, so the job is freed by reference count,
without a pass of the cyclic collector.  A failed job keeps the cycle (its
in-flight tasks still read ``task.job.failed``) and is left to the
collector, so the scheduler must hold none of its tasks.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import small_cloud_server
from repro.core.engine import Engine
from repro.jobs.task import Job, TaskState
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.server.server import Server


def _farm():
    engine = Engine()
    servers = [
        Server(engine, small_cloud_server(n_cores=2), server_id=i) for i in range(2)
    ]
    return engine, GlobalScheduler(engine, servers)


def _join_job(first_s: float, second_s: float) -> Job:
    """Tasks 0 and 1 feed task 2 with 1,000 bytes each."""
    job = Job()
    job.add_task(first_s)
    job.add_task(second_s)
    job.add_task(0.1)
    job.add_edge(0, 2, 1000.0)
    job.add_edge(1, 2, 1000.0)
    return job


class TestCompletedJob:
    def test_is_freed_by_reference_count(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            engine, scheduler = _farm()
            job = _join_job(0.1, 0.3)
            scheduler.submit_job(job)
            engine.run()
            assert job.finished
            tasks = list(job.tasks)
            assert all(task.job is None for task in tasks)
            ref = weakref.ref(job)
            del job
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()
        assert scheduler.jobs_completed == 1
        assert all(task.state is TaskState.FINISHED for task in tasks)

    def test_keeps_its_tasks_finish_state_and_latency(self):
        engine, scheduler = _farm()
        job = _join_job(0.1, 0.3)
        seen = []
        # The completion hook still reads the job through its tasks.
        scheduler.on_job_complete = lambda done: seen.append(
            [task.job is done for task in done.tasks]
        )
        scheduler.submit_job(job)
        engine.run()
        assert seen == [[True, True, True]]
        assert [task.index for task in job.tasks] == [0, 1, 2]
        assert job.finished
        assert job.latency() == pytest.approx(job.finish_time - job.arrival_time)
        assert job.latency() >= job.critical_path_s()
        assert repr(job.tasks[2]) == "<Task -:2 finished>"


class TestFailedJob:
    def test_blocked_child_is_not_held(self):
        # Task 0 finishes before the failure at t=0.2, task 1 after it, so
        # task 2 holds one recorded transfer source and is never placed.
        engine, scheduler = _farm()
        job = _join_job(0.1, 0.5)
        states = {}

        def fail():
            states["at_fail"] = [task.state for task in job.tasks]
            scheduler._fail_job(job)

        scheduler.submit_job(job)
        engine.schedule_at(0.2, fail)
        engine.run()
        assert states["at_fail"] == [
            TaskState.FINISHED, TaskState.RUNNING, TaskState.BLOCKED,
        ]
        assert scheduler.jobs_failed == 1
        # Its tasks keep their back-references: in-flight ones read
        # task.job.failed.
        assert all(task.job is job for task in job.tasks)
        assert scheduler._pending_sources == {}
        assert scheduler._placements == {}
        ref = weakref.ref(job)
        del job, states
        gc.collect()
        assert ref() is None
