"""Advisory file locks: second acquirer fails fast, SIGKILL can't leak one."""

from __future__ import annotations

import pytest

from repro.runner.journal import SweepJournal
from repro.runner.lock import FileLock, LockHeldError


class TestFileLock:
    def test_second_acquirer_fails_fast_with_holder(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        first = FileLock(path).acquire()
        with pytest.raises(LockHeldError) as err:
            FileLock(path).acquire()
        assert err.value.path == path
        assert "locked by another repro run" in str(err.value)
        assert "pid" in str(err.value)
        first.release()

    def test_release_allows_reacquire(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        lock = FileLock(path).acquire()
        lock.release()
        again = FileLock(path).acquire()
        assert again.held
        again.release()
        assert not again.held

    def test_release_idempotent(self, tmp_path):
        lock = FileLock(str(tmp_path / "x")).acquire()
        lock.release()
        lock.release()

    def test_distinct_paths_do_not_conflict(self, tmp_path):
        a = FileLock(str(tmp_path / "a")).acquire()
        b = FileLock(str(tmp_path / "b")).acquire()
        a.release()
        b.release()


class TestJournalLock:
    def test_concurrent_journal_open_refused(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        first = SweepJournal(path, "sweep")
        first.open()
        second = SweepJournal(path, "sweep")
        with pytest.raises(LockHeldError, match="locked by another repro run"):
            second.open()
        first.close()
        second.open()  # released lock can be taken over
        second.close()

    def test_reopen_same_journal_is_noop(self, tmp_path):
        journal = SweepJournal(str(tmp_path / "sweep.jsonl"), "sweep")
        journal.open()
        journal.open()  # already held by this journal: no self-conflict
        journal.close()
