"""Tests for the declarative sweep runner.

That a real experiment sweep reports the same bytes at ``--jobs 1`` and on a
worker pool is the ``pool`` column of ``tests/test_execution_matrix.py``;
``TestParallelDeterminism`` checks the same through the Python API, where
``repr`` makes NaN fields (e.g. mean latency of a point that completed zero
jobs) compare equal.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.delay_timer import run_delay_timer_sweep
from repro.runner import SweepPoint, SweepSpec, run_sweep
from repro.workload.profiles import web_search_profile


def _add(a, b):
    return a + b


class TestSweepSpec:
    def test_add_assigns_sequential_indices(self):
        spec = SweepSpec("s")
        p0 = spec.add(_add, label="a", a=0, b=0)
        p1 = spec.add(_add, a=1, b=1)
        assert (p0.index, p1.index) == (0, 1)
        assert p0.label == "a"
        assert len(spec) == 2

    def test_point_execute(self):
        point = SweepPoint(index=0, fn=_add, kwargs={"a": 7, "b": 3})
        assert point.execute() == 10


class TestRunSweep:
    def test_results_in_point_order(self):
        spec = SweepSpec("s")
        for i in range(5):
            spec.add(_add, a=i, b=100)
        assert run_sweep(spec) == [i + 100 for i in range(5)]

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(SweepSpec("s"), jobs=0)

    def test_empty_spec(self):
        assert run_sweep(SweepSpec("s"), jobs=4) == []


def _point_reprs(sweep):
    return [repr(p) for p in sweep.points]


@pytest.mark.slow
@pytest.mark.usefixtures("real_pool")
class TestParallelDeterminism:
    """jobs=N output must equal jobs=1 exactly, per the determinism contract."""

    def test_delay_timer_sweep_bit_identical(self):
        kwargs = dict(
            tau_values=(0.0, 0.05, 0.2),
            utilizations=(0.3,),
            n_servers=4,
            n_cores=2,
            duration_s=3.0,
            seed=1,
        )
        serial = run_delay_timer_sweep(web_search_profile(), jobs=1, **kwargs)
        parallel = run_delay_timer_sweep(web_search_profile(), jobs=4, **kwargs)
        assert _point_reprs(serial) == _point_reprs(parallel)


class TestElasticWorkers:
    """Every sweep clamps its worker count to the host CPU count — an
    over-subscribed pool on a small host is pure spawn tax (the 0.666x sweep
    "speedup" this repo's bench once recorded)."""

    def _pid_spec(self, n=3):
        from tests.runner import _workers as w

        spec = SweepSpec("pids")
        for x in range(n):
            spec.add(w.report_pid, x=x)
        return spec

    def test_oversubscribed_jobs_run_inline_on_small_host(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "host_cpus", lambda: 1)
        pids = run_sweep(self._pid_spec(), jobs=4)
        assert set(pids) == {os.getpid()}

    def test_jobs_within_cpu_budget_still_pool(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "host_cpus", lambda: 8)
        pids = run_sweep(self._pid_spec(2), jobs=2)
        assert os.getpid() not in pids

    def test_explicit_options_keep_pool_semantics(self, monkeypatch):
        """Passing SweepOptions no longer skips the CPU clamp: on one CPU
        the sweep runs in-process.  Only a point timeout still needs a
        worker process, because a hung point can only be killed there."""
        import repro.runner.sweep as sweep_mod
        from repro.runner import SweepOptions, run_sweep_detailed

        monkeypatch.setattr(sweep_mod, "host_cpus", lambda: 1)
        result = run_sweep_detailed(
            self._pid_spec(2), jobs=2, options=SweepOptions()
        )
        assert set(result.values()) == {os.getpid()}
        result = run_sweep_detailed(
            self._pid_spec(2), jobs=2,
            options=SweepOptions(point_timeout_s=60.0),
        )
        assert os.getpid() not in result.values()

    @pytest.mark.parametrize("cpus, line", [
        (1, "3 point(s) on 1 worker (in-process) "
            "(requested jobs=4, host CPUs=1)"),
        (2, "3 point(s) on 2 worker process(es) "
            "(requested jobs=4, host CPUs=2)"),
    ])
    def test_worker_line_reports_requested_and_actual(
        self, monkeypatch, capsys, cpus, line
    ):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "host_cpus", lambda: cpus)
        run_sweep(self._pid_spec(3), jobs=4)
        assert f"[repro.sweep] 'pids': {line}" in capsys.readouterr().err

    def test_single_job_unaffected(self, monkeypatch):
        import repro.runner.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "host_cpus", lambda: 64)
        assert run_sweep(self._pid_spec(1), jobs=1) == [os.getpid()]
