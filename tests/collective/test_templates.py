"""Collective job templates: chunk accounting and DAG shape."""

from __future__ import annotations

import pytest

from repro.collective import (
    CollectiveSpec,
    TaskGroup,
    all_to_all_job,
    ring_allreduce_job,
    training_step_job,
    tree_allreduce_job,
)
from repro.collective.templates import _binomial_pairs
from repro.jobs.task import Job


class TestRingAllreduce:
    def test_exact_spec(self):
        job = ring_allreduce_job(4, 4000.0)
        spec = job.collective
        assert spec.kind == "ring_allreduce"
        assert spec.phases == 6  # 2(p-1)
        assert spec.steps == 6
        assert spec.n_transfers == 6 * 4  # one per rank per phase
        assert spec.wire_bytes == pytest.approx(6 * 4000.0)  # 2(p-1) * S

    def test_phase_batch_is_byte_exact(self):
        exact = ring_allreduce_job(8, 8e6).collective
        for batch in (2, 3, 7, 14):
            folded = ring_allreduce_job(8, 8e6, phase_batch=batch).collective
            assert folded.wire_bytes == pytest.approx(exact.wire_bytes)
            assert folded.phases == exact.phases
            assert folded.steps == -(-exact.phases // batch)
            assert folded.n_transfers == folded.steps * 8

    def test_transfers_follow_fixed_ring(self):
        job = ring_allreduce_job(4, 4000.0, phase_batch=6)
        # One DAG round: byte-carrying edges go w -> (w+1) % p.
        byte_edges = [(s, d) for s, d, b in job.edges if b > 0]
        ranks = {t.index: t.rank for t in job.tasks}
        pairs = {(ranks[s], ranks[d]) for s, d in byte_edges}
        assert pairs == {(w, (w + 1) % 4) for w in range(4)}

    def test_large_ring_is_tractable(self):
        # The 1,024-rank bench shape must build in well under a second.
        job = ring_allreduce_job(1024, 1e6, phase_batch=256)
        assert job.collective.n_transfers == 8 * 1024
        assert len(job.tasks) == 1024 * 9  # entries + 8 rounds

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 2 ranks"):
            ring_allreduce_job(1, 100.0)
        with pytest.raises(ValueError, match="positive"):
            ring_allreduce_job(4, 0.0)
        with pytest.raises(ValueError, match="phase_batch"):
            ring_allreduce_job(4, 100.0, phase_batch=0)


class TestTreeAllreduce:
    def test_spec_2p_minus_2_transfers(self):
        for p in (2, 4, 5, 8, 13):
            spec = tree_allreduce_job(p, 1000.0).collective
            assert spec.n_transfers == 2 * (p - 1), p
            assert spec.wire_bytes == pytest.approx(2 * (p - 1) * 1000.0), p

    def test_binomial_pairs_merge_everyone_into_rank0(self):
        for p in (2, 3, 4, 7, 8):
            pairs = _binomial_pairs(p)
            assert len(pairs) == p - 1
            merged = {recv for _, recv in pairs} | {send for send, _ in pairs}
            assert merged == set(range(p))
            assert pairs[-1][1] == 0  # final merge lands on the root


class TestAllToAll:
    def test_spec(self):
        spec = all_to_all_job(4, 4000.0).collective
        assert spec.n_transfers == 4 * 3
        # Each rank ships (p-1) chunks of S/p.
        assert spec.wire_bytes == pytest.approx(4 * 3 * 1000.0)


class TestTrainingStepJob:
    def test_aggregates_over_steps(self):
        one = ring_allreduce_job(4, 4000.0).collective
        spec = training_step_job(4, 3, compute_s=0.01, size_bytes=4000.0).collective
        assert spec.kind == "training/ring"
        assert spec.n_transfers == 3 * one.n_transfers
        assert spec.wire_bytes == pytest.approx(3 * one.wire_bytes)

    def test_barriers_gate_next_step(self):
        job = training_step_job(3, 2, compute_s=0.01, size_bytes=3000.0)
        barriers = [t for t in job.tasks if t.task_type == "barrier"]
        assert len(barriers) == 2
        # Every step-1 compute task depends on the step-0 barrier.
        first_barrier = barriers[0].index
        step1_computes = [
            t.index for t in job.tasks
            if t.task_type == "compute" and t.name.startswith("compute-s1-")
        ]
        children = {d for s, d, _ in job.edges if s == first_barrier}
        assert set(step1_computes) <= children

    def test_jitter_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            training_step_job(
                2, 1, compute_s=0.01, size_bytes=100.0, compute_jitter=0.1
            )

    def test_deterministic_job_id(self):
        a = training_step_job(2, 1, compute_s=0.01, size_bytes=100.0, job_id=7)
        assert a.job_id == 7

    def test_group_attached(self):
        group = TaskGroup("g", 4)
        job = training_step_job(
            4, 1, compute_s=0.01, size_bytes=100.0, group=group
        )
        assert job.group is group
        assert all(t.rank is not None for t in job.tasks)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_buffer_size_must_be_finite(self, bad):
        for build in (ring_allreduce_job, tree_allreduce_job, all_to_all_job):
            with pytest.raises(ValueError, match="buffer must be positive and finite"):
                build(4, bad)
        with pytest.raises(ValueError, match="buffer must be positive and finite"):
            training_step_job(4, 1, compute_s=0.01, size_bytes=bad)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_compute_time_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="compute_s must be positive and finite"):
            training_step_job(4, 1, compute_s=bad, size_bytes=1e6)


class TestAddEdgesBulk:
    def test_matches_add_edge(self):
        a, b = Job(job_id=1), Job(job_id=2)
        for job in (a, b):
            for _ in range(3):
                job.add_task(0.01)
        a.add_edge(0, 1, 5.0)
        a.add_edge(1, 2, 0.0)
        b.add_edges([(0, 1, 5.0), (1, 2, 0.0)])
        assert list(a.edges) == list(b.edges)

    def test_cycle_rolls_back_whole_batch(self):
        job = Job(job_id=3)
        for _ in range(3):
            job.add_task(0.01)
        job.add_edge(0, 1, 0.0)
        before = list(job.edges)
        with pytest.raises(ValueError, match="cycle"):
            job.add_edges([(1, 2, 0.0), (2, 0, 0.0)])
        assert list(job.edges) == before
        # The rolled-back job still accepts valid edges afterwards.
        job.add_edges([(1, 2, 0.0)])
        assert len(list(job.edges)) == 2


class TestCollectiveSpec:
    def test_frozen(self):
        spec = CollectiveSpec("x", 2, 1.0, 1, 1, 1, 1.0)
        with pytest.raises(AttributeError):
            spec.wire_bytes = 2.0
