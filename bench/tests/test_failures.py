"""Failure accounting: crashes, audit violations, short runs, digest drift."""

import pytest

from bench.run import BenchError, Session, failures, timed_run

FAKES = "bench.tests.fakes:"


def _session(name: str, pinned=None) -> Session:
    return Session(FAKES + name, seed=3, pinned_digest=pinned)


def _good_digest() -> str:
    session = _session("OK")
    result = session.rep("plain")
    assert session.failures == []
    return result["digest"]


def test_passing_repetition_counts_no_failure():
    digest = _good_digest()
    session = _session("OK", pinned=digest)
    assert session.rep("plain")["digest"] == digest
    assert (session.attempted, session.failures) == (1, [])


def test_crash_counts_as_failed_with_no_result():
    session = _session("CRASH")
    assert session.rep("plain") is None
    assert session.attempted == 1
    assert len(session.failures) == 1
    assert "crashed" in session.failures[0] and "injected crash" in session.failures[0]


def test_crash_only_run_prints_no_result():
    with pytest.raises(BenchError, match="injected crash"):
        timed_run(_session("CRASH"), seconds=0.1, trace=False)


@pytest.mark.parametrize("name, marker", [
    ("VIOLATION", "audit: [fake.conservation]"),
    ("SHORT", "short: 20 of 21 jobs"),
])
def test_finished_but_wrong_repetition_fails(name, marker):
    session = _session(name)
    assert session.rep("plain") is not None
    assert len(session.failures) == 1 and marker in session.failures[0]


def test_pinned_digest_mismatch_fails():
    session = _session("OK", pinned="0" * 32)
    session.rep("plain")
    assert len(session.failures) == 1 and "digest" in session.failures[0]


def test_held_out_seed_requires_repetitions_to_agree():
    stable = _session("OK")
    stable.rep("plain")
    stable.rep("traced")
    assert stable.failures == []

    unstable = _session("UNSTABLE")
    unstable.rep("plain")
    unstable.rep("plain")
    assert unstable.attempted == 2
    assert len(unstable.failures) == 1 and "digest" in unstable.failures[0]


def test_timed_run_reports_failed_operations():
    result = timed_run(_session("SHORT"), seconds=0.1, trace=False)
    assert result["correct"] is False
    assert result["failed"] == 1
    # One repetition, then build-only repetitions for the set-up median.
    assert result["attempted"] == 3
    assert set(result["metrics"]) == {"run_s", "setup_s", "total_s", "peak_rss_mb"}


def test_failures_lists_every_problem():
    result = {"violations": ["[a] b: c"], "jobs_completed": 1, "jobs_target": 2,
              "digest": "x"}
    assert len(failures(result, "y")) == 3
    assert failures(result, None)[:2] == ["audit: [a] b: c",
                                          "short: 1 of 2 jobs completed"]
