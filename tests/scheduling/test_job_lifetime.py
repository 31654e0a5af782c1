"""Job lifetime: a completed job frees itself; a failed one lets go of its
blocked tasks, and its task waiting on a transfer or in the global queue
never starts.

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

from repro.core.config import LinkConfig, small_cloud_server
from repro.core.engine import Engine
from repro.jobs.task import Job, TaskState
from repro.network.flow import FlowNetwork
from repro.network.topology import star
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.policies import CapacityGatedPolicy, RoundRobinPolicy
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

    def test_task_behind_a_landing_transfer_never_starts(self):
        # Task 0 runs on server 0 until t=0.1; its 100 KB result takes 0.8 s
        # over 1 Mbps to task 1 on server 1 and lands after the failure at
        # t=0.3.
        engine = Engine()
        network = FlowNetwork(
            engine, star(engine, 2, link_config=LinkConfig(rate_bps=1e6))
        )
        servers = [
            Server(engine, small_cloud_server(n_cores=2), server_id=i) for i in range(2)
        ]
        scheduler = GlobalScheduler(
            engine, servers, policy=RoundRobinPolicy(), network=network
        )
        job = Job()
        job.add_task(0.1)
        job.add_task(0.5)
        job.add_edge(0, 1, 100_000.0)
        scheduler.submit_job(job)
        engine.schedule_at(0.3, scheduler._fail_job, job)
        engine.run()
        assert network.flows_completed == 1
        # Landed at t~0.9, after the failure.
        assert scheduler.transfer_delay.mean() == pytest.approx(0.8, abs=0.01)
        task = job.tasks[1]
        assert task.start_time is None
        assert task.state is not TaskState.FINISHED
        assert servers[1].tasks_completed == 0
        assert scheduler._placements == {}

    def test_queued_task_is_discarded_without_spending_a_core(self):
        # One core.  Task 0 feeds tasks 1 (1.0 s) and 2; task 1 takes the
        # core at t=0.1 and task 2 queues with its recorded source.  The job
        # fails at t=0.2 and another job queues at t=0.5.  When task 1 ends
        # at t=1.1, the drain must drop task 2 and start the other job.
        engine = Engine()
        server = Server(engine, small_cloud_server(n_cores=1), server_id=0)
        scheduler = GlobalScheduler(
            engine, [server], policy=CapacityGatedPolicy(RoundRobinPolicy()),
            use_global_queue=True,
        )
        job = Job()
        job.add_task(0.1)
        job.add_task(1.0)
        job.add_task(0.5)
        job.add_edge(0, 1, 1000.0)
        job.add_edge(0, 2, 1000.0)
        other = Job()
        other.add_task(0.3)
        scheduler.submit_job(job)
        engine.schedule_at(0.2, scheduler._fail_job, job)
        engine.schedule_at(0.5, scheduler.submit_job, other)
        engine.run()
        assert job.tasks[2].start_time is None
        assert other.tasks[0].start_time == pytest.approx(1.1)
        assert scheduler.jobs_failed == scheduler.jobs_completed == 1
        assert scheduler.global_queue_length == 0
        assert scheduler._pending_sources == {}
