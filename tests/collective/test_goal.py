"""GOAL-style trace format: parse, validate, synthesize, replay."""

from __future__ import annotations

import pytest

from repro.core.config import small_cloud_server
from repro.core.engine import Engine
from repro.core.invariants import audit_collective
from repro.network.packet import PacketNetwork
from repro.network.topology import fat_tree
from repro.scheduling.global_scheduler import GlobalScheduler
from repro.scheduling.placement import GroupPlacementPolicy
from repro.server.server import Server
from repro.workload.goal import (
    GoalReplayDriver,
    GoalTrace,
    synthesize_training_goal,
)

SIMPLE = """\
# two ranks, one message
ranks 2
rank 0 calc c0 0.01
rank 0 send s0 1000 to 1 requires c0
rank 1 recv r0 1000 from 0
rank 1 calc c1 0.02 requires r0
"""

#: ``c0`` requires an op defined after it.
FORWARD = """\
ranks 1
rank 0 calc c0 0.001 requires c1
rank 0 calc c1 0.001
"""


class TestGoalParse:
    def test_parses_and_compiles(self):
        trace = GoalTrace.parse(SIMPLE)
        assert trace.n_ranks == 2
        assert len(trace.ops) == 4
        job = trace.compile_job(job_id=0)
        spec = job.collective
        assert spec.kind == "goal"
        assert spec.n_transfers == 1
        assert spec.wire_bytes == pytest.approx(1000.0)
        # The transfer edge joins send s0 -> recv r0 with the bytes.
        byte_edges = [(s, d, b) for s, d, b in job.edges if b > 0]
        assert len(byte_edges) == 1
        assert byte_edges[0][2] == pytest.approx(1000.0)

    def test_errors_name_offending_line(self):
        bad = "ranks 2\nrank 0 calc c0 NaN\n"
        with pytest.raises(ValueError, match=r"<goal>:2: calc duration is NaN"):
            GoalTrace.parse(bad)
        bad = "ranks 2\nrank 0 send s0 -5 to 1\nrank 1 recv r0 -5 from 0\n"
        with pytest.raises(ValueError, match=r"<goal>:2: negative byte count"):
            GoalTrace.parse(bad)

    def test_rejects_unmatched_send(self):
        bad = "ranks 2\nrank 0 send s0 100 to 1\n"
        with pytest.raises(ValueError, match="unmatched send"):
            GoalTrace.parse(bad)

    def test_rejects_mismatched_bytes(self):
        bad = (
            "ranks 2\n"
            "rank 0 send s0 100 to 1\n"
            "rank 1 recv r0 200 from 0\n"
        )
        with pytest.raises(ValueError, match="send of 100"):
            GoalTrace.parse(bad)

    def test_rejects_unknown_dependency(self):
        bad = "ranks 2\nrank 0 calc c0 0.1 requires nope\n"
        with pytest.raises(ValueError, match="unknown op 'nope'"):
            GoalTrace.parse(bad)

    def test_requires_may_name_a_later_op(self):
        trace = GoalTrace.parse(FORWARD)
        job = trace.compile_job(job_id=0)
        assert job.edges == ((1, 0, 0.0),)  # c1 -> c0

    def test_requires_cycle_is_a_value_error(self):
        cycle = ("ranks 1\nrank 0 calc a 0.001 requires b\n"
                 "rank 0 calc b 0.001 requires a\n")
        trace = GoalTrace.parse(cycle)
        with pytest.raises(ValueError, match="cycle"):
            trace.compile_job(job_id=0)

    def test_rejects_missing_ranks_directive(self):
        with pytest.raises(ValueError, match="'ranks N' must come before"):
            GoalTrace.parse("rank 0 calc c0 0.1\n")

    def test_rejects_duplicate_op_id(self):
        bad = "ranks 2\nrank 0 calc c0 0.1\nrank 0 calc c0 0.2\n"
        with pytest.raises(ValueError, match="duplicate op id"):
            GoalTrace.parse(bad)

    def test_file_roundtrip(self, tmp_path):
        trace = synthesize_training_goal(
            4, 2, compute_s=0.01, size_bytes=4000.0
        )
        path = tmp_path / "train.goal"
        trace.to_file(path)
        loaded = GoalTrace.from_file(path)
        assert loaded.n_ranks == trace.n_ranks
        assert len(loaded.ops) == len(trace.ops)
        assert [
            (o.rank, o.op_id, o.kind, o.size_bytes, o.peer) for o in loaded.ops
        ] == [
            (o.rank, o.op_id, o.kind, o.size_bytes, o.peer) for o in trace.ops
        ]


class TestSynthesizedTrainingTrace:
    def test_matches_ring_chunk_accounting(self):
        p, steps, size = 4, 3, 40_000.0
        trace = synthesize_training_goal(
            p, steps, compute_s=0.01, size_bytes=size
        )
        job = trace.compile_job(job_id=0)
        # 2(p-1) phases per step, one chunk of S/p per rank per phase.
        assert job.collective.n_transfers == steps * 2 * (p - 1) * p
        assert job.collective.wire_bytes == pytest.approx(
            steps * 2 * (p - 1) * size
        )

    def test_validates_inputs(self):
        with pytest.raises(ValueError, match=">= 2 ranks"):
            synthesize_training_goal(1, 1, compute_s=0.01, size_bytes=100.0)
        with pytest.raises(ValueError, match="n_steps"):
            synthesize_training_goal(2, 0, compute_s=0.01, size_bytes=100.0)
        with pytest.raises(ValueError, match="positive"):
            synthesize_training_goal(2, 1, compute_s=0.0, size_bytes=100.0)


class TestGoalReplay:
    def test_replay_conserves_bytes(self):
        engine = Engine()
        topo = fat_tree(engine, 4)
        servers = [
            Server(engine, small_cloud_server(n_cores=2), server_id=i)
            for i in range(topo.n_servers)
        ]
        net = PacketNetwork(engine, topo)
        scheduler = GlobalScheduler(
            engine, servers, policy=GroupPlacementPolicy(topo), network=net
        )
        traces = [
            (0.0, GoalTrace.parse(SIMPLE, name="a")),
            (0.5, synthesize_training_goal(
                4, 2, compute_s=0.005, size_bytes=20_000.0
            )),
        ]
        driver = GoalReplayDriver(engine, scheduler, traces)
        driver.start()
        while scheduler.jobs_completed < 2:
            if not engine.step():
                break
        assert scheduler.jobs_completed == 2
        assert driver.jobs_injected == 2
        audit_collective(scheduler, net, jobs=driver.jobs).raise_if_violated()
        wire = sum(j.collective.wire_bytes for j in driver.jobs)
        assert net.bytes_delivered == pytest.approx(wire)

    def test_forward_requires_replays_in_dependency_order(self):
        engine = Engine()
        topo = fat_tree(engine, 4)
        servers = [
            Server(engine, small_cloud_server(n_cores=2), server_id=i)
            for i in range(topo.n_servers)
        ]
        net = PacketNetwork(engine, topo)
        scheduler = GlobalScheduler(
            engine, servers, policy=GroupPlacementPolicy(topo), network=net
        )
        driver = GoalReplayDriver(engine, scheduler, [(0.0, GoalTrace.parse(FORWARD))])
        driver.start()
        engine.run()
        assert scheduler.jobs_completed == 1
        c0, c1 = driver.jobs[0].tasks
        assert c0.start_time >= c1.finish_time

    def test_driver_rejects_double_start(self):
        engine = Engine()
        driver = GoalReplayDriver(engine, None, [])
        driver.start()
        with pytest.raises(RuntimeError, match="already started"):
            driver.start()
