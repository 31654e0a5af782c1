"""Advisory file locks for sweep journals.

Two concurrent ``--resume`` runs appending to the same journal would
interleave their lines.  A :class:`FileLock` makes the second acquirer fail
fast with a message naming the holder instead.

The lock is ``flock(2)`` on a ``.lock`` sibling of the protected path:

* **advisory** — only cooperating repro processes check it;
* **crash-safe** — the kernel drops the lock when the holding process dies
  (including SIGKILL), so a crashed run never wedges later ones.  The
  sibling file is deliberately *not* unlinked on release: unlink would race
  a concurrent opener onto a deleted inode, and a leftover ``.lock`` file
  is inert;
* **per open file description** — a second acquire in the same process
  conflicts too, which is what makes the failure mode testable in-process.

On platforms without ``fcntl`` (Windows) the lock degrades to a no-op:
single-host mutual exclusion is a POSIX-CI guarantee, not a portability
promise.
"""

from __future__ import annotations

import os

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]


class LockHeldError(RuntimeError):
    """Another process already holds the lock on this artifact."""

    def __init__(self, path: str, holder: str = ""):
        self.path = path
        held_by = f" (held by {holder})" if holder else ""
        super().__init__(
            f"{path} is locked by another repro run{held_by}; two concurrent "
            "runs cannot share a journal — wait for the other run or point "
            "this one at a different journal"
        )


class FileLock:
    """Advisory exclusive lock guarding ``path`` via a ``.lock`` sibling."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self.lock_path = self.path + ".lock"
        self._fh = None

    @property
    def held(self) -> bool:
        return self._fh is not None

    def acquire(self) -> "FileLock":
        """Take the lock or raise :class:`LockHeldError` immediately."""
        if self._fh is not None or fcntl is None:
            return self
        directory = os.path.dirname(os.path.abspath(self.lock_path))
        os.makedirs(directory, exist_ok=True)
        fh = open(self.lock_path, "a+", encoding="utf-8")
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            holder = self._read_holder(fh)
            fh.close()
            raise LockHeldError(self.path, holder) from None
        # Record the holder for the *other* side's error message; the lock
        # itself is the flock, not this advisory content.
        fh.seek(0)
        fh.truncate()
        fh.write(f"pid {os.getpid()}\n")
        fh.flush()
        self._fh = fh
        return self

    @staticmethod
    def _read_holder(fh) -> str:
        try:
            fh.seek(0)
            return fh.readline().strip()
        except OSError:  # pragma: no cover - unreadable lock file
            return ""

    def release(self) -> None:
        """Drop the lock (no-op if not held); closing the fd releases flock."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()
