"""On-disk sweep checkpointing: the journal that makes sweeps resumable.

A :class:`SweepJournal` is an append-only JSONL file with one line per
completed sweep point.  Each line is keyed by a **spec fingerprint** — a
stable hash of ``(sweep name, fn, kwargs)`` — so a later run of the *same*
spec can reuse the recorded result, while any change to the point (different
kwargs, renamed function, edited grid) silently invalidates the cache entry
for exactly that point.

Design constraints:

* **Crash safety.**  Lines are flushed (and fsync'd) as they are written, so
  a SIGKILL between points loses at most the point in flight.  ``load``
  tolerates a truncated final line — the torn write of the run that died.
* **Determinism.**  Fingerprints must not depend on memory addresses,
  ``PYTHONHASHSEED``, dict insertion order, or the machine the sweep ran on;
  :func:`stable_repr` canonicalises kwargs before hashing.
* **Opaque results.**  Point results are arbitrary picklable objects
  (experiment dataclasses, tuples, dicts); they are stored as base64-encoded
  pickles inside the JSON line.  The journal is a cache, not an interchange
  format — it is only ever read back by the code base that wrote it.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import hashlib
import io
import os
import pickle
from typing import Any, Callable, Dict, List, Optional

from repro.runner.lock import FileLock

#: Bump when the line format changes incompatibly; ``load`` ignores journals
#: written by a different version rather than mis-resuming from them.
JOURNAL_VERSION = 1


def stable_repr(value: Any) -> str:
    """A canonical, address-free rendering of ``value`` for fingerprinting.

    Containers are rendered recursively (dict keys sorted, sets sorted by
    their rendered form), dataclasses by class name + field map, and
    arbitrary objects by class name + ``repr`` **only if** the repr does not
    contain a memory address (``0x...``) — otherwise just the class name, so
    two runs of the same spec agree even for objects with default reprs.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        # repr() round-trips floats exactly; normalise -0.0 for stability.
        return repr(value + 0.0)
    if isinstance(value, bytes):
        return "b" + hashlib.blake2b(value, digest_size=8).hexdigest()
    if isinstance(value, (list, tuple)):
        inner = ",".join(stable_repr(v) for v in value)
        return ("[%s]" if isinstance(value, list) else "(%s)") % inner
    if isinstance(value, (set, frozenset)):
        return "{%s}" % ",".join(sorted(stable_repr(v) for v in value))
    if isinstance(value, dict):
        items = sorted((stable_repr(k), stable_repr(v)) for k, v in value.items())
        return "{%s}" % ",".join(f"{k}:{v}" for k, v in items)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: getattr(value, f.name) for f in dataclasses.fields(value)
        }
        return f"{type(value).__qualname__}({stable_repr(fields)})"
    if callable(value):
        mod = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", type(value).__qualname__)
        return f"<fn {mod}.{name}>"
    rendered = repr(value)
    if "0x" in rendered:
        return f"<{type(value).__module__}.{type(value).__qualname__}>"
    return f"<{type(value).__module__}.{type(value).__qualname__} {rendered}>"


def point_fingerprint(
    sweep_name: str, fn: Callable[..., Any], kwargs: Dict[str, Any]
) -> str:
    """The stable identity of one sweep point: hash of (name, fn, kwargs)."""
    payload = "\x1f".join(
        (
            sweep_name,
            getattr(fn, "__module__", "?"),
            getattr(fn, "__qualname__", repr(fn)),
            stable_repr(kwargs),
        )
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def encode_result(value: Any) -> str:
    """Pickle + base64 a point result for embedding in a JSON line."""
    return base64.b64encode(pickle.dumps(value, protocol=4)).decode("ascii")


def decode_result(blob: str) -> Any:
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


class SweepJournal:
    """Append-only JSONL checkpoint for one sweep.

    Usage::

        journal = SweepJournal(path, sweep_name="delay-timer")
        cached = journal.load()              # fingerprint -> [entry, ...]
        journal.open()
        journal.record(fingerprint, index=3, label="tau=0.1", status="ok",
                       duration_s=2.5, value=point_result)
        journal.close()

    ``load`` may be called before ``open``; opening appends to an existing
    file (resume) rather than truncating it.
    """

    def __init__(self, path: str, sweep_name: str = ""):
        self.path = os.fspath(path)
        self.sweep_name = sweep_name
        self._fh: Optional[io.TextIOWrapper] = None
        self._lock = FileLock(self.path)
        self.lines_written = 0

    # -- reading ----------------------------------------------------------
    def load(self) -> Dict[str, List[dict]]:
        """Entries of a previous run, keyed by fingerprint (in file order).

        Duplicate fingerprints (a spec that evaluates the same point twice)
        accumulate in order, so resume can hand one cached result to each
        occurrence.  Corrupt or truncated lines — the torn tail of a killed
        run — are skipped, as are journals with a foreign version header.
        """
        entries: Dict[str, List[dict]] = {}
        if not os.path.exists(self.path):
            return entries
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn write from an interrupted run
                if record.get("kind") == "sweep-journal":
                    if record.get("version") != JOURNAL_VERSION:
                        return {}
                    continue
                fingerprint = record.get("fingerprint")
                if not fingerprint:
                    continue
                entries.setdefault(fingerprint, []).append(record)
        return entries

    # -- writing ----------------------------------------------------------
    def open(self) -> None:
        """Open for appending; writes the header only on a fresh file.

        Takes an advisory exclusive lock first: two concurrent runs
        appending to one journal would interleave their checkpoint lines, so
        the second acquirer fails fast with
        :class:`~repro.runner.lock.LockHeldError` instead of corrupting the
        resume state.  The lock is dropped by the kernel even on SIGKILL.
        """
        if self._fh is not None:
            return
        fresh = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._lock.acquire()
        self._fh = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_line(
                {
                    "kind": "sweep-journal",
                    "version": JOURNAL_VERSION,
                    "sweep": self.sweep_name,
                }
            )

    def record(
        self,
        fingerprint: str,
        index: int,
        label: str,
        status: str,
        duration_s: float,
        value: Any = None,
        error: Optional[str] = None,
        telemetry: Optional[dict] = None,
    ) -> None:
        """Append one completed-point line and flush it to disk.

        ``telemetry`` is a point's captured telemetry payload; it is stored
        as plain JSON (not pickled) so resumed sweeps replay the exact trace
        events and a journal stays greppable for post-mortems.
        """
        self.open()
        record = {
            "fingerprint": fingerprint,
            "index": index,
            "label": label,
            "status": status,
            "duration_s": round(duration_s, 6),
        }
        if status == "ok":
            record["result"] = encode_result(value)
        if error is not None:
            record["error"] = error
        if telemetry is not None:
            record["telemetry"] = telemetry
        self._write_line(record)
        self.lines_written += 1

    def _write_line(self, record: dict) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._lock.release()

    def __enter__(self) -> "SweepJournal":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
