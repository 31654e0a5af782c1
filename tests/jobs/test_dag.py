"""Tests for the job/task DAG model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.task import Job, Task, TaskState
from repro.jobs.templates import (
    fan_out_job,
    pipeline_job,
    random_dag_job,
    single_task_job,
    two_tier_job,
)


class TestTaskConstruction:
    def test_rejects_nonpositive_service_time(self):
        job = Job()
        with pytest.raises(ValueError):
            job.add_task(0.0)

    def test_rejects_bad_intensity(self):
        job = Job()
        with pytest.raises(ValueError):
            job.add_task(1.0, compute_intensity=1.5)

    def test_indices_follow_creation_order(self):
        job = Job()
        tasks = [job.add_task(1.0) for _ in range(3)]
        assert [t.index for t in tasks] == [0, 1, 2]

    def test_initial_state_blocked(self):
        job = Job()
        task = job.add_task(1.0)
        assert task.state is TaskState.BLOCKED


class TestEdges:
    def test_edge_validates_indices(self):
        job = Job()
        job.add_task(1.0)
        with pytest.raises(ValueError):
            job.add_edge(0, 5)

    def test_self_edge_rejected(self):
        job = Job()
        job.add_task(1.0)
        with pytest.raises(ValueError):
            job.add_edge(0, 0)

    def test_negative_transfer_rejected(self):
        job = Job()
        job.add_task(1.0)
        job.add_task(1.0)
        with pytest.raises(ValueError):
            job.add_edge(0, 1, transfer_bytes=-1)

    def test_cycle_rejected_and_rolled_back(self):
        job = Job()
        for _ in range(3):
            job.add_task(1.0)
        job.add_edge(0, 1)
        job.add_edge(1, 2)
        with pytest.raises(ValueError):
            job.add_edge(2, 0)
        # The rejected edge left no trace.
        assert len(job.edges) == 2
        assert job.tasks[0].remaining_parents == 0
        job.topological_order()  # still acyclic

    def test_two_node_cycle_rejected(self):
        job = Job()
        job.add_task(1.0)
        job.add_task(1.0)
        job.add_edge(0, 1)
        with pytest.raises(ValueError):
            job.add_edge(1, 0)

    def test_parents_and_children(self):
        job = two_tier_job(0.01, 0.02, transfer_bytes=100.0)
        assert job.children_of(0) == ((1, 100.0),)
        assert job.parents_of(1) == ((0, 100.0),)
        assert job.parents_of(0) == ()


NON_FINITE = [float("inf"), float("nan")]


class TestNonFiniteInputs:
    """Non-finite service times and transfer sizes are rejected when the job
    is built, not left to fail (or vanish) mid-run."""

    @pytest.mark.parametrize("bad", NON_FINITE + [float("-inf")])
    def test_service_time_must_be_finite(self, bad):
        job = Job()
        with pytest.raises(ValueError, match="service time must be positive and finite"):
            job.add_task(bad)
        assert job.tasks == []

    @pytest.mark.parametrize("bad", NON_FINITE + [-1.0])
    def test_add_edge_rejects_bad_transfer_size(self, bad):
        job = Job()
        job.add_task(1.0)
        job.add_task(1.0)
        with pytest.raises(ValueError, match="transfer size must be finite and >= 0"):
            job.add_edge(0, 1, transfer_bytes=bad)
        assert job.edges == ()
        assert job.children_of(0) == () and job.parents_of(1) == ()
        assert job.tasks[1].remaining_parents == 0

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("first", [(1, 2), (3, 2)], ids=["forward", "backward"])
    def test_bad_edge_mid_batch_leaves_the_job_as_it_was(self, bad, first):
        job = Job()
        for _ in range(4):
            job.add_task(1.0)
        job.add_edge(0, 1, transfer_bytes=2.0)

        def state():
            return (
                job.edges,
                [(job.children_of(i), job.parents_of(i)) for i in range(4)],
                [t.remaining_parents for t in job.tasks],
                job._forward,
            )

        before = state()
        with pytest.raises(ValueError, match="transfer size must be finite"):
            job.add_edges([(*first, 3.0), (1, 3, bad), (0, 3, 1.0)])
        assert state() == before
        job.add_edges([(1, 3, 1.0)])  # still usable afterwards
        assert len(job.edges) == 2


class TestDagQueries:
    def test_root_tasks(self):
        job = fan_out_job(0.01, [0.01] * 3, 0.02)
        roots = job.root_tasks()
        assert [t.index for t in roots] == [0]

    def test_topological_order_respects_edges(self):
        job = fan_out_job(0.01, [0.01] * 4, 0.02)
        order = job.topological_order()
        position = {idx: i for i, idx in enumerate(order)}
        for src, dst, _ in job.edges:
            assert position[src] < position[dst]

    def test_critical_path_of_pipeline(self):
        job = pipeline_job([1.0, 2.0, 3.0])
        assert job.critical_path_s() == pytest.approx(6.0)

    def test_critical_path_of_fan_out(self):
        job = fan_out_job(1.0, [2.0, 5.0, 3.0], 1.0)
        assert job.critical_path_s() == pytest.approx(1.0 + 5.0 + 1.0)

    def test_total_work(self):
        job = pipeline_job([1.0, 2.0, 3.0])
        assert job.total_work_s() == pytest.approx(6.0)


class TestRuntimeBookkeeping:
    def test_parent_finished_decrements(self):
        job = two_tier_job(0.01, 0.02)
        db = job.tasks[1]
        assert db.remaining_parents == 1
        db.parent_finished()
        assert db.dependencies_met

    def test_parent_finished_underflow_raises(self):
        job = single_task_job(0.01)
        with pytest.raises(RuntimeError):
            job.tasks[0].parent_finished()

    def test_transfer_bookkeeping(self):
        job = two_tier_job(0.01, 0.02)
        db = job.tasks[1]
        db.parent_finished()
        db.transfer_started()
        assert not db.dependencies_met
        db.transfer_finished()
        assert db.dependencies_met

    def test_transfer_underflow_raises(self):
        job = single_task_job(0.01)
        with pytest.raises(RuntimeError):
            job.tasks[0].transfer_finished()

    def test_job_completion_and_latency(self):
        job = two_tier_job(0.01, 0.02, arrival_time=5.0)
        assert not job.task_finished(job.tasks[0], 6.0)
        assert job.task_finished(job.tasks[1], 7.5)
        assert job.finished
        assert job.latency() == pytest.approx(2.5)

    def test_latency_before_finish_raises(self):
        job = single_task_job(0.01)
        with pytest.raises(RuntimeError):
            job.latency()

    def test_foreign_task_rejected(self):
        job_a = single_task_job(0.01)
        job_b = single_task_job(0.01)
        with pytest.raises(ValueError):
            job_a.task_finished(job_b.tasks[0], 1.0)

    def test_job_ids_unique(self):
        ids = {Job().job_id for _ in range(100)}
        assert len(ids) == 100


class TestTemplates:
    def test_single_task_shape(self):
        job = single_task_job(0.004)
        assert len(job.tasks) == 1
        assert job.edges == ()

    def test_two_tier_shape(self):
        job = two_tier_job(0.01, 0.02)
        assert len(job.tasks) == 2
        assert len(job.edges) == 1

    def test_fan_out_shape(self):
        job = fan_out_job(0.01, [0.01] * 5, 0.02)
        assert len(job.tasks) == 7
        assert len(job.edges) == 10

    def test_fan_out_requires_leaves(self):
        with pytest.raises(ValueError):
            fan_out_job(0.01, [], 0.02)

    def test_pipeline_requires_stages(self):
        with pytest.raises(ValueError):
            pipeline_job([])

    def test_pipeline_edges_are_sequential(self):
        job = pipeline_job([0.1] * 4)
        assert [(s, d) for s, d, _ in job.edges] == [(0, 1), (1, 2), (2, 3)]

    @given(
        n_tasks=st.integers(min_value=1, max_value=40),
        edge_probability=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_dag_always_acyclic(self, n_tasks, edge_probability, seed):
        rng = np.random.default_rng(seed)
        job = random_dag_job(rng, n_tasks, edge_probability=edge_probability)
        order = job.topological_order()
        assert len(order) == n_tasks
        position = {idx: i for i, idx in enumerate(order)}
        for src, dst, _ in job.edges:
            assert position[src] < position[dst]
        # Every DAG has at least one root.
        assert job.root_tasks()
