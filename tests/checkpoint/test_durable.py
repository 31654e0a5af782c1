"""Durable runs of the plain Table I experiment: restored rates and refusals.

The identity itself (killed at any cut, restored, the same result fields and
metrics snapshot) is the ``durable`` column of
``tests/test_execution_matrix.py``, which kills runs with the hook below.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import CheckpointError, DurabilityOptions, durable
from repro.experiments.scalability import run_scalability

#: ~0.026 simulated seconds of work: cuts every 5 ms give five checkpoints.
MODEL = dict(n_servers=64, n_jobs=400, seed=13)
EVERY_S = 0.005


class _Killed(Exception):
    """Stands in for the process dying right after a checkpoint landed."""


def _die_after_checkpoint(monkeypatch, n: int) -> None:
    real = durable.write_checkpoint
    written = []

    def write(*args, **kwargs):
        real(*args, **kwargs)
        written.append(True)
        if len(written) == n:
            raise _Killed

    monkeypatch.setattr(durable, "write_checkpoint", write)


class TestRestoredRates:
    def test_rates_count_only_the_restored_sessions_work(self, tmp_path, monkeypatch):
        path = str(tmp_path / "run.ckpt")
        _die_after_checkpoint(monkeypatch, 2)
        with pytest.raises(_Killed):
            run_scalability(**MODEL, pool=True, durability=DurabilityOptions(
                checkpoint_path=path, checkpoint_every_s=EVERY_S,
            ))
        monkeypatch.undo()
        cut_events = durable.read_checkpoint(path)[0]["events_executed"]
        result = run_scalability(**MODEL, pool=True,
                                 durability=DurabilityOptions(restore_from=path))
        assert 0 < result.restored_events == cut_events < result.events_executed
        assert 0 < result.restored_jobs < result.n_jobs == MODEL["n_jobs"]
        assert result.wall_seconds > 0
        assert result.events_per_second == (
            (result.events_executed - cut_events) / result.wall_seconds
        )
        assert result.jobs_per_wall_second == (
            (result.n_jobs - result.restored_jobs) / result.wall_seconds
        )

    def test_plain_run_rates_cover_the_whole_run(self):
        result = run_scalability(**MODEL, pool=True)
        assert result.restored_events == result.restored_jobs == 0
        assert result.events_per_second == result.events_executed / result.wall_seconds


class TestRestoreRefusals:
    @pytest.mark.parametrize("change", [
        {"seed": 14}, {"n_servers": 65}, {"pool": False},
    ], ids=["seed", "servers", "pool"])
    def test_other_model_refused_naming_both_fingerprints(self, tmp_path, change):
        path = str(tmp_path / "run.ckpt")
        run_scalability(**MODEL, pool=True, durability=DurabilityOptions(
            checkpoint_path=path, checkpoint_every_s=EVERY_S,
        ))
        found = durable.read_checkpoint(path)[0]["fingerprint"]
        with pytest.raises(CheckpointError) as exc:
            run_scalability(**{**MODEL, "pool": True, **change},
                            durability=DurabilityOptions(restore_from=path))
        message = str(exc.value)
        assert found in message
        assert message.count("fingerprint") == 2
