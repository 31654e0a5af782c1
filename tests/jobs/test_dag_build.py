"""Building job DAGs: what the collective builders emit, and how edges are
validated.

* The fingerprints pin every task (name, service time, type, rank,
  intensity) and every edge, in order, of the collective and GOAL builders:
  a faster build must produce the very same DAG.
* A test-local reference re-runs Kahn's algorithm after every call, as job
  construction once did; ``add_edge``/``add_edges`` must accept and reject
  exactly what it does and leave the same graph behind.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collective import ring_allreduce_job, training_step_job
from repro.jobs.task import Job
from repro.workload.goal import synthesize_training_goal


def _fingerprint(job: Job) -> str:
    tasks = [
        (t.name, repr(t.service_time_s), t.task_type, t.rank, t.compute_intensity)
        for t in job.tasks
    ]
    payload = repr((tasks, list(job.edges))).encode()
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _training(algorithm: str, group_size: int, phase_batch: int = 1) -> Job:
    return training_step_job(
        group_size, 2, compute_s=0.01, size_bytes=4e5, algorithm=algorithm,
        phase_batch=phase_batch, compute_jitter=0.2,
        rng=np.random.default_rng(5), job_id=0,
    )


BUILDERS = {
    "training-ring-batched": lambda: _training("ring", 6, phase_batch=3),
    "training-tree": lambda: _training("tree", 7),
    "training-all-to-all": lambda: _training("all_to_all", 5),
    "ring-allreduce": lambda: ring_allreduce_job(5, 1e6, phase_batch=2, job_id=0),
    "goal-training": lambda: synthesize_training_goal(
        4, 2, compute_s=0.01, size_bytes=4e5
    ).compile_job(job_id=0),
}

FINGERPRINTS = {
    "training-ring-batched": "9b8c5760558d4392287cbe3bf81cb14d",
    "training-tree": "45a5d5f11adbdf823cbedc6b03c92f21",
    "training-all-to-all": "cfa788ccff9d43f3ee6474b26fc8725b",
    "ring-allreduce": "fbcff39e5e7fee71c05f83f514ae2d9d",
    "goal-training": "88c3a601094e62e06f86177fd5428b2a",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_emit_the_pinned_dag(name):
    assert _fingerprint(BUILDERS[name]()) == FINGERPRINTS[name]


# ----------------------------------------------------------------------
# Acyclicity: the index-order rule against a Kahn-on-every-call reference
# ----------------------------------------------------------------------
class _KahnReference:
    """Edge validation as job construction once did it: after every
    ``add_edge``/``add_edges`` call, run Kahn's algorithm over the whole
    graph and roll the call back if it left a cycle."""

    def __init__(self, n_tasks: int):
        self.n_tasks = n_tasks
        self.edges: List[Tuple[int, int, float]] = []

    def children(self) -> Dict[int, List[Tuple[int, float]]]:
        out: Dict[int, List[Tuple[int, float]]] = {}
        for src, dst, size in self.edges:
            out.setdefault(src, []).append((dst, size))
        return out

    def parents(self) -> Dict[int, List[Tuple[int, float]]]:
        out: Dict[int, List[Tuple[int, float]]] = {}
        for src, dst, size in self.edges:
            out.setdefault(dst, []).append((src, size))
        return out

    def order(self) -> List[int]:
        """Kahn's algorithm, visiting nodes exactly as Job.topological_order."""
        children, parents = self.children(), self.parents()
        indegree = {i: len(parents.get(i, ())) for i in range(self.n_tasks)}
        frontier = [i for i, d in indegree.items() if d == 0]
        order: List[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for child, _ in children.get(node, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        return order

    def add(self, edges: List[Tuple[int, int, float]]) -> bool:
        self.edges.extend(edges)
        if len(self.order()) == self.n_tasks:
            return True
        del self.edges[len(self.edges) - len(edges):]
        return False


@st.composite
def _edge_calls(draw):
    """A task count and a sequence of edge batches.  Each batch is forward
    (src < dst), backward but consistent with one hidden topological order,
    or arbitrary (may close a cycle), and is fed either edge by edge or as
    one ``add_edges`` call."""
    n = draw(st.integers(2, 8))
    hidden = draw(st.permutations(range(n)))
    rank = {task: pos for pos, task in enumerate(hidden)}
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["forward", "hidden-order", "arbitrary"]))
        edges = []
        for _ in range(draw(st.integers(0, 4))):
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            if kind == "forward":
                a, b = min(a, b), max(a, b)
            elif kind == "hidden-order":
                a, b = sorted((a, b), key=rank.__getitem__)
            edges.append((a, b, draw(st.sampled_from([0.0, 1.0, 5e5]))))
        batches.append((draw(st.booleans()), edges))
    return n, batches


def _assert_same_graph(job: Job, ref: _KahnReference) -> None:
    children, parents = ref.children(), ref.parents()
    assert list(job.edges) == ref.edges
    for i, task in enumerate(job.tasks):
        assert job.children_of(i) == tuple(children.get(i, ()))
        assert job.parents_of(i) == tuple(parents.get(i, ()))
        assert task.remaining_parents == len(parents.get(i, ()))
    assert job.topological_order() == ref.order()


@settings(max_examples=300, deadline=None)
@given(_edge_calls())
def test_edge_validation_matches_the_kahn_reference(case):
    n, batches = case
    job = Job()
    for _ in range(n):
        job.add_task(1.0)
    ref = _KahnReference(n)
    for one_by_one, edges in batches:
        for call in ([[edge] for edge in edges] if one_by_one else [edges]):
            accepted = ref.add(call)
            try:
                if one_by_one:
                    job.add_edge(*call[0])
                else:
                    job.add_edges(call)
            except ValueError as err:
                assert not accepted, err
                assert "cycle" in str(err)
            else:
                assert accepted
            _assert_same_graph(job, ref)


def test_a_rejected_backward_edge_leaves_the_job_forward():
    job = Job()
    for _ in range(3):
        job.add_task(1.0)
    job.add_edges([(0, 1, 0.0), (1, 2, 0.0)])
    with pytest.raises(ValueError, match="cycle"):
        job.add_edge(2, 0)
    with pytest.raises(ValueError, match="cycle"):
        job.add_edges([(0, 2, 0.0), (2, 1, 0.0)])
    assert job._forward
    job.add_edge(0, 2)
    assert job._forward and len(job.edges) == 3


# ----------------------------------------------------------------------
# Cost: forward-only builders never run Kahn's algorithm
# ----------------------------------------------------------------------
def test_training_ring_build_runs_no_topological_sort(monkeypatch):
    calls = []
    original = Job.topological_order

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Job, "topological_order", counted)
    job = training_step_job(64, 4, compute_s=0.01, size_bytes=1e6,
                            algorithm="ring", job_id=0)
    assert len(job.tasks) == 4 * (64 + 2 * 63 * 64 + 1)
    assert calls == []
    job.topological_order()  # the counter itself works
    assert len(calls) == 1


# ----------------------------------------------------------------------
# Storage: one record per edge, against the former triple storage
# ----------------------------------------------------------------------
class _TripleStorage:
    """A job DAG stored as jobs once stored it: every edge three times, as
    an edge record, a ``(dst, bytes)`` child entry and a ``(src, bytes)``
    parent entry, each query read from the explicit maps."""

    def __init__(self, service_times: List[float]):
        self.service = service_times
        self.edges: List[Tuple[int, int, float]] = []
        self.children: Dict[int, List[Tuple[int, float]]] = {}
        self.parents: Dict[int, List[Tuple[int, float]]] = {}

    def add(self, src: int, dst: int, size: float) -> None:
        self.edges.append((src, dst, size))
        self.children.setdefault(src, []).append((dst, size))
        self.parents.setdefault(dst, []).append((src, size))

    def roots(self) -> List[int]:
        return [i for i in range(len(self.service)) if not self.parents.get(i)]

    def order(self) -> List[int]:
        indegree = {i: len(self.parents.get(i, ())) for i in range(len(self.service))}
        frontier = [i for i, d in indegree.items() if d == 0]
        order: List[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for child, _ in self.children.get(node, ()):
                indegree[child] -= 1
                if indegree[child] == 0:
                    frontier.append(child)
        return order

    def critical_path(self) -> float:
        longest: Dict[int, float] = {}
        for index in self.order():
            parents = self.parents.get(index, ())
            longest[index] = self.service[index] + max(
                (longest[p] for p, _ in parents), default=0.0
            )
        return max(longest.values()) if longest else 0.0


@st.composite
def _acyclic_dags(draw):
    """Service times plus an acyclic edge list, in order: forward only
    (index order is topological) or consistent with a hidden order, so
    edges may run backward; fed edge by edge or in batches."""
    n = draw(st.integers(1, 9))
    service = draw(st.lists(
        st.floats(1e-3, 10.0, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n,
    ))
    hidden = list(range(n)) if draw(st.booleans()) else draw(st.permutations(range(n)))
    rank = {task: pos for pos, task in enumerate(hidden)}
    edges = []
    if n > 1:
        for _ in range(draw(st.integers(0, 3 * n))):
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            a, b = sorted((a, b), key=rank.__getitem__)
            edges.append((a, b, draw(st.sampled_from([0.0, 1.0, 2.5e5]))))
    batch = draw(st.integers(1, 4))
    return service, edges, batch


@settings(max_examples=300, deadline=None)
@given(_acyclic_dags())
def test_structure_queries_match_the_triple_storage(case):
    service, edges, batch = case
    job = Job()
    for s in service:
        job.add_task(s)
    ref = _TripleStorage(service)
    for start in range(0, len(edges), batch):
        chunk = edges[start:start + batch]
        if len(chunk) == 1:
            job.add_edge(*chunk[0])
        else:
            job.add_edges(chunk)
        for edge in chunk:
            ref.add(*edge)
    assert list(job.edges) == ref.edges
    for i in range(len(service)):
        assert job.children_of(i) == tuple(ref.children.get(i, ()))
        assert job.parents_of(i) == tuple(ref.parents.get(i, ()))
    assert [t.index for t in job.root_tasks()] == ref.roots()
    assert job.topological_order() == ref.order()
    assert job.critical_path_s() == ref.critical_path()
