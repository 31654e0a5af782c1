"""Failure-matrix tests for the sweep loop.

Covers the contract of :class:`SweepOptions`: a point that raises is
``failed`` (and stops the sweep unless ``keep_going``), a timeout or a dead
worker stops the sweep, Ctrl-C raises ``SweepInterrupted``, and the journal
makes a stopped or interrupted sweep resume bit-identically to an
uninterrupted run.  Worker functions live in ``tests/runner/_workers.py``
because spawn-based pools pickle callables by qualified name.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.runner import (
    SweepError,
    SweepInterrupted,
    SweepOptions,
    SweepSpec,
    derive_label,
    point_fingerprint,
    run_sweep,
    run_sweep_detailed,
)
from repro.runner.journal import SweepJournal, encode_result, stable_repr
from repro.telemetry import session as telemetry
from tests.runner import _workers as w


# ----------------------------------------------------------------------
# Labels
# ----------------------------------------------------------------------
class TestDerivedLabels:
    def test_add_derives_label_from_kwargs(self):
        spec = SweepSpec("s")
        point = spec.add(w.double, x=3, seed=7)
        assert point.label == "x=3,seed=7"

    def test_add_keeps_explicit_label(self):
        spec = SweepSpec("s")
        assert spec.add(w.double, label="mine", x=3).label == "mine"

    def test_derive_label_truncates(self):
        label = derive_label({"key": "v" * 200})
        assert len(label) <= 80 and label.endswith("...")


# ----------------------------------------------------------------------
# In-process execution (one worker, no timeout)
# ----------------------------------------------------------------------
class TestInlineResilience:
    def test_failure_without_keep_going_raises_sweep_error(self):
        spec = SweepSpec("s")
        spec.add(w.double, x=1)
        spec.add(w.always_raises, x=2)
        spec.add(w.double, x=3)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(spec, options=SweepOptions())
        result = excinfo.value.result
        assert [o.status for o in result.outcomes] == ["ok", "failed", "skipped"]
        assert "point 2 is broken" in str(excinfo.value)

    def test_keep_going_yields_none_holes(self):
        spec = SweepSpec("s")
        spec.add(w.double, x=1)
        spec.add(w.always_raises, x=2)
        spec.add(w.double, x=3)
        values = run_sweep(spec, options=SweepOptions(keep_going=True))
        assert values == [2, None, 6]

    def test_legacy_path_propagates_raw_exception(self):
        """Without options a failing point raises SweepError too; the
        point's own exception, traceback included, is its __cause__."""
        spec = SweepSpec("s")
        spec.add(w.always_raises, x=1)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(spec)
        cause = excinfo.value.__cause__
        assert isinstance(cause, ValueError)
        assert str(cause) == "point 1 is broken"
        assert cause.__traceback__ is not None
        assert str(excinfo.value) == (
            "sweep 's' point x=1 failed: ValueError: point 1 is broken"
        )


# ----------------------------------------------------------------------
# Journal + resume
# ----------------------------------------------------------------------
class TestJournalResume:
    def _spec(self, scratch_dir):
        spec = SweepSpec("resumable")
        for x in range(4):
            spec.add(w.record_execution, x=x, scratch_dir=str(scratch_dir))
        return spec

    def test_journal_records_every_point(self, tmp_path):
        journal_path = str(tmp_path / "sweep.jsonl")
        opts = SweepOptions(journal_path=journal_path)
        run_sweep(self._spec(tmp_path), options=opts)
        cache = SweepJournal(journal_path).load()
        assert len(cache) == 4
        assert all(es[0]["status"] == "ok" for es in cache.values())

    @staticmethod
    def _clear_markers(scratch_dir):
        for marker in scratch_dir.glob("ran-*.marker"):
            marker.unlink()

    def test_resume_is_bit_identical_and_skips_execution(self, tmp_path):
        """Resume must replay identical kwargs from the journal, not re-run.

        The fingerprint covers the kwargs, so the resumed spec is built with
        the *same* scratch_dir; execution breadcrumbs are cleared between
        runs to prove the cached pass never invoked the workers.
        """
        journal_path = str(tmp_path / "sweep.jsonl")
        baseline = run_sweep(self._spec(tmp_path), jobs=1)

        self._clear_markers(tmp_path)
        first = run_sweep(
            self._spec(tmp_path),
            options=SweepOptions(journal_path=journal_path),
        )
        assert repr(first) == repr(baseline)
        assert len(list(tmp_path.glob("ran-*.marker"))) == 4

        self._clear_markers(tmp_path)
        result = run_sweep_detailed(
            self._spec(tmp_path),
            options=SweepOptions(journal_path=journal_path, resume=True),
        )
        assert repr(result.values()) == repr(baseline)
        assert all(o.cached for o in result.outcomes)
        # No point actually re-ran: no fresh breadcrumbs.
        assert not list(tmp_path.glob("ran-*.marker"))

    def test_resume_after_partial_run_completes_the_rest(self, tmp_path):
        """The interrupted-sweep scenario: half the points journaled, the
        resumed run executes only the other half, and the combined values
        match an uninterrupted jobs=1 run exactly."""
        journal_path = str(tmp_path / "sweep.jsonl")
        baseline = run_sweep(self._spec(tmp_path), jobs=1)
        self._clear_markers(tmp_path)

        # Simulate a run killed after two points: journal only those.
        partial = SweepSpec("resumable")
        for x in range(2):
            partial.add(w.record_execution, x=x, scratch_dir=str(tmp_path))
        run_sweep(partial, options=SweepOptions(journal_path=journal_path))
        self._clear_markers(tmp_path)

        result = run_sweep_detailed(
            self._spec(tmp_path),
            options=SweepOptions(journal_path=journal_path, resume=True),
        )
        assert repr(result.values()) == repr(baseline)
        assert [o.cached for o in result.outcomes] == [True, True, False, False]
        ran = sorted(p.name for p in tmp_path.glob("ran-*.marker"))
        assert ran == ["ran-2.marker", "ran-3.marker"]

    def test_changed_kwargs_invalidate_cache_entry(self, tmp_path):
        journal_path = str(tmp_path / "sweep.jsonl")
        spec = SweepSpec("s")
        spec.add(w.double, x=1)
        run_sweep(spec, options=SweepOptions(journal_path=journal_path))

        changed = SweepSpec("s")
        changed.add(w.double, x=2)  # different kwargs -> different fingerprint
        result = run_sweep_detailed(
            changed, options=SweepOptions(journal_path=journal_path, resume=True)
        )
        assert result.values() == [4]
        assert not result.outcomes[0].cached

    def test_torn_journal_line_is_tolerated(self, tmp_path):
        journal_path = str(tmp_path / "sweep.jsonl")
        spec = SweepSpec("s")
        spec.add(w.double, x=1)
        run_sweep(spec, options=SweepOptions(journal_path=journal_path))
        with open(journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"fingerprint": "abc", "status": "o')  # torn write
        cache = SweepJournal(journal_path).load()
        assert len(cache) == 1  # the torn line is skipped, not fatal

    def test_journal_line_with_attempts_still_resumes(self, tmp_path):
        """Journal lines once carried an ``attempts`` key; a journal written
        in that format must still resume."""
        journal_path = tmp_path / "sweep.jsonl"
        spec = SweepSpec("s")
        spec.add(w.double, x=1)
        spec.add(w.double, x=2)
        fingerprint = point_fingerprint("s", w.double, {"x": 1})
        lines = [
            {"kind": "sweep-journal", "sweep": "s", "version": 1},
            {"attempts": 1, "duration_s": 0.001, "fingerprint": fingerprint,
             "index": 0, "label": "x=1", "result": encode_result(2),
             "status": "ok"},
        ]
        journal_path.write_text(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        )
        result = run_sweep_detailed(spec, options=SweepOptions(
            journal_path=str(journal_path), resume=True))
        assert result.values() == [2, 4]
        assert [o.cached for o in result.outcomes] == [True, False]
        appended = json.loads(journal_path.read_text().splitlines()[-1])
        assert appended["index"] == 1 and "attempts" not in appended

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            SweepOptions(resume=True)


class TestFingerprint:
    def test_stable_across_dict_order(self):
        a = point_fingerprint("s", w.double, {"x": 1, "seed": 2})
        b = point_fingerprint("s", w.double, {"seed": 2, "x": 1})
        assert a == b

    def test_sensitive_to_name_fn_and_kwargs(self):
        base = point_fingerprint("s", w.double, {"x": 1})
        assert point_fingerprint("t", w.double, {"x": 1}) != base
        assert point_fingerprint("s", w.add, {"x": 1}) != base
        assert point_fingerprint("s", w.double, {"x": 2}) != base

    def test_stable_repr_is_address_free(self):
        class Opaque:
            pass

        rendered = stable_repr({"obj": Opaque(), "xs": [1.0, -0.0]})
        assert "0x" not in rendered
        assert stable_repr(-0.0) == stable_repr(0.0)


# ----------------------------------------------------------------------
# Worker pool: fail-fast timeout, dead workers, Ctrl-C
# ----------------------------------------------------------------------
@pytest.mark.slow
@pytest.mark.timeout(120)
@pytest.mark.usefixtures("real_pool")
class TestPoolResilience:
    def test_parallel_matches_inline(self):
        spec = SweepSpec("s")
        for x in range(6):
            spec.add(w.double, x=x)
        assert run_sweep(spec, jobs=3) == run_sweep(spec, jobs=1)

    def test_worker_exception_is_the_cause(self):
        spec = SweepSpec("s")
        spec.add(w.always_raises, x=1)
        spec.add(w.double, x=2)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(spec, jobs=2)
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert "point 1 is broken" in str(excinfo.value)

    def test_timeout_without_retries_fails_point(self):
        spec = SweepSpec("hang")
        spec.add(w.sleeps_forever, x=1, sleep_s=60.0)
        opts = SweepOptions(point_timeout_s=1.0, keep_going=True)
        result = run_sweep_detailed(spec, jobs=1, options=opts)
        assert result.outcomes[0].status == "timeout"
        assert "point timeout" in result.outcomes[0].error

    def test_timeout_stops_sweep_even_with_keep_going(self, tmp_path):
        """A timeout stops the sweep: the overrunner is ``timeout`` and
        every unfinished point ``skipped``; keep_going does not turn the
        skipped points into silent None rows."""
        spec = SweepSpec("hang")
        spec.add(w.sleeps_forever, x=0, sleep_s=60.0)
        for x in range(1, 4):
            spec.add(w.record_execution, x=x, scratch_dir=str(tmp_path))
        opts = SweepOptions(point_timeout_s=1.0, keep_going=True)
        with pytest.raises(SweepError) as excinfo:
            run_sweep(spec, jobs=1, options=opts)
        result = excinfo.value.result
        assert [o.status for o in result.outcomes] == [
            "timeout", "skipped", "skipped", "skipped"
        ]
        assert excinfo.value.first_failure.index == 0
        assert str(excinfo.value) == (
            "sweep 'hang' point x=0,sleep_s=60 timeout: "
            "exceeded point timeout of 1s"
        )
        assert not list(tmp_path.glob("ran-*.marker"))

    def test_sigkilled_worker_stops_sweep_and_resume_completes(self, tmp_path):
        """A worker SIGKILLed mid-point stops a journaled jobs=2 sweep with
        SweepError, even under keep_going.  The points that completed are
        journaled, and --resume returns the uninterrupted values."""
        journal_path = str(tmp_path / "kill.jsonl")
        spec = SweepSpec("kill")
        spec.add(w.sigkill_self_once, x=0, scratch_dir=str(tmp_path))
        for x in range(1, 4):
            spec.add(w.record_execution, x=x, scratch_dir=str(tmp_path))
        with pytest.raises(SweepError) as excinfo:
            run_sweep(spec, jobs=2, options=SweepOptions(
                journal_path=journal_path, keep_going=True))
        first = excinfo.value.first_failure
        assert first.status == "failed"
        assert "BrokenProcessPool" in first.error
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        result = excinfo.value.result
        done = [o.index for o in result.outcomes if o.ok]
        assert 0 not in done

        resumed = run_sweep_detailed(spec, jobs=2, options=SweepOptions(
            journal_path=journal_path, resume=True))
        assert resumed.values() == [0, 1, 2, 3]
        assert [o.index for o in resumed.outcomes if o.cached] == done

    def test_worker_death_seen_at_submit_stops_sweep(self, tmp_path, monkeypatch):
        """The pool breaks after wait() returns and before the next submit.
        The point that finished is journaled and handed over, the point that
        could not be submitted fails with the pool's error, and the sweep
        stops with SweepError."""
        import repro.runner.sweep as sweep_mod

        class BreaksAtSecondSubmit(Executor):
            def __init__(self, *args, **kwargs):
                self.submits = 0

            def submit(self, fn, /, *args, **kwargs):
                self.submits += 1
                if self.submits == 2:
                    raise BrokenProcessPool("a worker died")
                future = Future()
                future.set_result(fn(*args, **kwargs))
                return future

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", BreaksAtSecondSubmit)
        journal_path = str(tmp_path / "sweep.jsonl")
        spec = SweepSpec("traced")
        for x in range(3):
            spec.add(w.traced_work, x=x)
        with telemetry.session(trace=True) as sess:
            with pytest.raises(SweepError) as excinfo:
                run_sweep(spec, jobs=2, options=SweepOptions(journal_path=journal_path))
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
        assert [o.status for o in excinfo.value.result.outcomes] == [
            "ok", "failed", "skipped"
        ]
        assert [label for label, _ in sess.point_captures] == ["x=0"]
        with open(journal_path) as fh:
            lines = [json.loads(line) for line in fh][1:]  # skip the header
        assert [(ln["label"], ln["status"]) for ln in lines] == [
            ("x=0", "ok"), ("x=1", "failed"),
        ]

    def test_worker_keyboard_interrupt_raises_sweep_interrupted(self):
        spec = SweepSpec("ctrl-c")
        spec.add(w.raises_keyboard_interrupt, x=0)
        spec.add(w.double, x=1)
        with pytest.raises(SweepInterrupted):
            run_sweep(spec, jobs=2)
        assert multiprocessing.active_children() == []


class TestTelemetryCapture:
    """Sweep points traced under an active telemetry session."""

    def _spec(self, n=4, **kwargs):
        spec = SweepSpec("traced")
        for x in range(n):
            spec.add(w.traced_work, x=x, **kwargs)
        return spec

    @pytest.mark.usefixtures("real_pool")
    def test_pool_capture_matches_inline(self):
        """Per-point telemetry reassembled in point order must be identical
        whether points ran inline or out-of-order across pool workers."""
        captures = []
        for jobs in (1, 2):
            with telemetry.session(trace=True, metrics=True) as sess:
                run_sweep(self._spec(), jobs=jobs)
            captures.append(json.dumps(sess.point_captures, sort_keys=True))
        assert captures[0] == captures[1]
        payloads = json.loads(captures[0])
        assert [label for label, _ in payloads] == [
            "x=0", "x=1", "x=2", "x=3"
        ]
        assert payloads[2][1]["metrics"]["counters"]["work.x"] == 2

    def test_resume_replays_telemetry_from_journal(self, tmp_path):
        """A resumed sweep must reassemble the same telemetry as an
        uninterrupted one — completed points replay their journaled
        payloads instead of re-running."""
        journal_path = str(tmp_path / "sweep.journal")
        full = self._spec()
        partial = SweepSpec("traced")
        for x in range(2):
            partial.add(w.traced_work, x=x)
        with telemetry.session(trace=True, metrics=True) as first:
            run_sweep(partial, options=SweepOptions(journal_path=journal_path))
        with telemetry.session(trace=True, metrics=True) as resumed:
            run_sweep(full, options=SweepOptions(
                journal_path=journal_path, resume=True))
        with telemetry.session(trace=True, metrics=True) as baseline:
            run_sweep(full)
        assert first.point_captures == resumed.point_captures[:2]
        assert json.dumps(resumed.point_captures, sort_keys=True) == (
            json.dumps(baseline.point_captures, sort_keys=True)
        )

    @staticmethod
    def _exported(sess):
        """Label and trace-event names of every payload handed over."""
        return [
            (label, [ev[2] for ev in payload["events"]])
            for label, payload in sess.point_captures
        ]

    @pytest.mark.usefixtures("real_pool")
    def test_keep_going_exports_the_failed_points_partial_trace(self):
        """Every finished point plus what the failed point recorded before
        raising, in point order, identically in-process and in workers."""
        spec = SweepSpec("traced")
        for x in range(4):
            spec.add(w.traced_work, x=x, fail_above=1 if x == 1 else 10)
        captures = []
        for jobs in (1, 2):
            with telemetry.session(trace=True, metrics=True) as sess:
                values = run_sweep(
                    spec, jobs=jobs, options=SweepOptions(keep_going=True)
                )
            assert values == [0, None, 2, 3]
            captures.append(json.dumps(sess.point_captures, sort_keys=True))
        assert captures[0] == captures[1]
        assert [events for _, events in self._exported(sess)] == [
            ["work-0", "tick"], ["work-1", "tick"],
            ["work-2", "tick"], ["work-3", "tick"],
        ]

    def test_stopped_sweep_exports_points_up_to_the_failure(self):
        with telemetry.session(trace=True) as sess:
            with pytest.raises(SweepError):
                run_sweep(self._spec(fail_above=1), jobs=1)
        assert self._exported(sess) == [
            ("x=0,fail_above=1", ["work-0", "tick"]),
            ("x=1,fail_above=1", ["work-1", "tick"]),
        ]

    def test_failed_points_journal_line_carries_no_telemetry(self, tmp_path):
        journal_path = str(tmp_path / "sweep.journal")
        with telemetry.session(trace=True) as sess:
            run_sweep(self._spec(2, fail_above=1), options=SweepOptions(
                journal_path=journal_path, keep_going=True))
        assert len(sess.point_captures) == 2
        with open(journal_path) as fh:
            lines = [json.loads(line) for line in fh][1:]  # skip the header
        assert [(ln["status"], "telemetry" in ln) for ln in lines] == [
            ("ok", True), ("failed", False),
        ]

    def test_interrupted_point_exports_its_partial_trace(self, tmp_path):
        """Ctrl-C inside an in-process point: the finished point and the
        interrupted point's events are handed over, only the finished point
        is journaled, and the sweep still raises SweepInterrupted."""
        journal_path = str(tmp_path / "sweep.journal")
        spec = SweepSpec("traced")
        spec.add(w.traced_work, x=0)
        spec.add(w.traced_then_interrupted, x=1)
        spec.add(w.traced_work, x=2)
        with telemetry.session(trace=True) as sess:
            with pytest.raises(SweepInterrupted):
                run_sweep(spec, options=SweepOptions(journal_path=journal_path))
        assert self._exported(sess) == [
            ("x=0", ["work-0", "tick"]), ("x=1", ["about-to-interrupt"]),
        ]
        with open(journal_path) as fh:
            lines = [json.loads(line) for line in fh][1:]
        assert [ln["label"] for ln in lines] == ["x=0"]

    def test_active_session_diverts_legacy_fast_path(self):
        """run_sweep with default options must still capture telemetry — the
        no-options fast path may only run when no session is active."""
        with telemetry.session(trace=True) as sess:
            values = run_sweep(self._spec(3))
        assert values == [0, 1, 2]
        assert len(sess.point_captures) == 3
