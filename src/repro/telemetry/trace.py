"""Structured trace recorder and Chrome/Perfetto trace-event exporter.

Events are recorded as flat tuples — ``(ts, cat, name, ph, track, dur, id,
*arg_keys, *arg_values)`` — into a bounded ring (``collections.deque``);
once the ring is full the oldest events are dropped and counted in
:attr:`TraceRecorder.dropped`.  Flat, because a tuple of atomic values is
untracked by the cyclic collector at its first pass, where an ``args``
dict (or a tuple holding one) stays tracked for the whole run: recorded
events leave the collector nothing to walk.  :func:`event_args` reads the
``args`` dict back.

Determinism contract
--------------------
Exported traces must be **byte-identical** for the same sweep point whether
it ran under ``--jobs 1`` or ``--jobs 4``, and whether the sweep was resumed
or uninterrupted.  Two rules follow:

* event content may only use *per-run* identifiers.  ``Job``/``Flow``/
  ``Packet`` ids come from process-global counters and differ between worker
  processes, so emit sites never embed them; they use
  :meth:`TraceRecorder.seq_id`, which numbers objects in first-touch order
  within one recorder (deterministic because the simulation itself is);
* the exporter assigns pids/tids in first-seen order from the event list and
  serialises with ``sort_keys`` + fixed separators.

Track naming
------------
The ``track`` string is hierarchical: the prefix selects the Perfetto
*process* row (``server/`` → "servers", ``switch/``/``net/`` → "network",
``sched`` → "scheduler", ``jobs`` → "jobs", ``fault/`` → "faults",
``facility/`` → "facility"), and the full string becomes the named *thread*
track.
"""

from __future__ import annotations

import functools
import json
import weakref
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

#: Event categories, in taxonomy order (see DESIGN.md).
CATEGORIES = ("task", "power", "net", "sched", "fault", "job", "facility", "collective")

#: One recorded event: (ts_s, cat, name, ph, track, dur_s, id, *arg_keys,
#: *arg_values); an event without args has just the first seven fields.
Event = Tuple[Any, ...]

#: Default ring capacity.  An event holds ~220 bytes (its tuple plus its own
#: timestamp floats and name strings; measured on a traced delay-timer run),
#: so the cap bounds memory at ~220 MB.
DEFAULT_MAX_EVENTS = 1_000_000

#: Chrome trace-event phases the exporter/validator understand.
_PHASES = frozenset({"X", "i", "b", "e", "M", "C"})

#: Track prefix → Perfetto process name, checked in order.
_TRACK_PROCESSES = (
    ("server/", "servers"),
    ("switch/", "network"),
    ("net/", "network"),
    ("sched", "scheduler"),
    ("jobs", "jobs"),
    ("fault/", "faults"),
    ("facility/", "facility"),
    ("collective/", "collective"),
)

#: Fixed pid offsets per process name so track layout is stable across runs.
_PROCESS_IDS = {
    "servers": 1,
    "network": 2,
    "scheduler": 3,
    "jobs": 4,
    "faults": 5,
    "sim": 6,
    "facility": 7,
    "collective": 8,
}

#: pid stride between sweep points in a merged multi-point trace.
PROCESS_STRIDE = 9


class TraceRecorder:
    """Category-filtered ring of typed trace events.

    The recorder itself never checks categories per event — emit sites guard
    on the per-category attributes of the active
    :class:`~repro.telemetry.session.TelemetrySession`, so a disabled
    category costs one attribute load and an ``is None`` test at the call
    site and nothing here.
    """

    def __init__(
        self,
        categories: Optional[Iterable[str]] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        cats = frozenset(CATEGORIES if categories is None else categories)
        unknown = cats - set(CATEGORIES)
        if unknown:
            raise ValueError(
                f"unknown trace categories {sorted(unknown)}; valid: {list(CATEGORIES)}"
            )
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.categories = cats
        self.max_events = max_events
        self.events: Deque[Event] = deque(maxlen=max_events)
        self.emitted = 0
        # Deterministic per-run object numbering, keyed by id().  CPython
        # reuses a dead object's id, so a numbered object is either watched
        # through a weak reference that drops its entry when it dies (jobs,
        # flows: finished ones are then neither kept alive nor walked by the
        # collector) or, when it takes no weak reference, pinned.
        self._seq_ids: Dict[Tuple[str, int], int] = {}
        self._seq_next: Dict[str, int] = {}
        self._seq_refs: Dict[Tuple[str, int], weakref.ref] = {}
        self._seq_pins: List[Any] = []

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """The oldest events evicted from the full ring."""
        return self.emitted - len(self.events)

    def seq_id(self, kind: str, obj: Any) -> int:
        """A per-recorder sequential id for ``obj``, assigned on first touch.

        Process-global counters (``Job._id_counter`` etc.) differ between
        ``--jobs 1`` and ``--jobs 4`` runs; these ids do not, because the
        per-point simulation touches objects in a deterministic order.
        """
        key = (kind, id(obj))
        seq = self._seq_ids.get(key)
        if seq is None:
            seq = self._seq_next.get(kind, 0)
            self._seq_next[kind] = seq + 1
            self._seq_ids[key] = seq
            try:
                self._seq_refs[key] = weakref.ref(
                    obj, functools.partial(self._forget, key)
                )
            except TypeError:
                self._seq_pins.append(obj)
        return seq

    def _forget(self, key: Tuple[str, int], _ref: weakref.ref) -> None:
        del self._seq_ids[key]
        del self._seq_refs[key]

    # ------------------------------------------------------------------
    # Emit surface (args must be JSON-serialisable)
    # ------------------------------------------------------------------
    def complete(
        self,
        cat: str,
        name: str,
        track: str,
        start: float,
        dur: float,
        args: Optional[dict] = None,
    ) -> None:
        """A span with known start and duration (Chrome ``ph="X"``)."""
        self._emit(start, cat, name, "X", track, dur, None, args)

    def instant(
        self, cat: str, name: str, track: str, ts: float, args: Optional[dict] = None
    ) -> None:
        """A point-in-time marker (Chrome ``ph="i"``)."""
        self._emit(ts, cat, name, "i", track, 0.0, None, args)

    def begin(
        self, cat: str, name: str, track: str, ts: float, eid: int,
        args: Optional[dict] = None,
    ) -> None:
        """Open an async span (Chrome ``ph="b"``); pair with :meth:`end`."""
        self._emit(ts, cat, name, "b", track, 0.0, eid, args)

    def end(
        self, cat: str, name: str, track: str, ts: float, eid: int,
        args: Optional[dict] = None,
    ) -> None:
        """Close the async span opened with the same ``(cat, name, eid)``."""
        self._emit(ts, cat, name, "e", track, 0.0, eid, args)

    def counter(
        self, cat: str, name: str, track: str, ts: float, values: dict
    ) -> None:
        """Sampled counter series (Chrome ``ph="C"``); one stacked chart per
        ``(track, name)``, one series per key in ``values``."""
        self._emit(ts, cat, name, "C", track, 0.0, None, values)

    def _emit(
        self, ts: float, cat: str, name: str, ph: str, track: str, dur: float,
        eid: Optional[int], args: Optional[dict],
    ) -> None:
        self.emitted += 1
        if args:
            self.events.append(
                (ts, cat, name, ph, track, dur, eid, *args, *args.values())
            )
        else:
            self.events.append((ts, cat, name, ph, track, dur, eid))


def event_args(event: Sequence[Any]) -> Optional[dict]:
    """The ``args`` dict of a recorded event, or None if it has none."""
    if len(event) == 8:
        # (ts, ..., id, args): sweep journals written before events were
        # flat (a flat event always has an odd length).
        return event[7]
    n = (len(event) - 7) // 2
    return dict(zip(event[7:7 + n], event[7 + n:])) if n else None


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def _process_for_track(track: str) -> str:
    for prefix, process in _TRACK_PROCESSES:
        if track.startswith(prefix):
            return process
    return "sim"


def chrome_events(
    events: Iterable[Event], pid_base: int = 0, label: Optional[str] = None
) -> List[dict]:
    """Convert recorded event tuples into Chrome trace-event dicts.

    Emits ``process_name``/``thread_name`` metadata as pids/tids are first
    seen, so the exported list is self-describing and deterministic.
    """
    out: List[dict] = []
    seen_pids: Dict[int, str] = {}
    tids: Dict[Tuple[int, str], int] = {}
    next_tid: Dict[int, int] = {}
    for event in events:
        ts, cat, name, ph, track, dur, eid = event[:7]
        process = _process_for_track(track)
        pid = pid_base + _PROCESS_IDS[process]
        if pid not in seen_pids:
            seen_pids[pid] = process
            pname = f"{label} · {process}" if label else process
            out.append({
                "name": "process_name", "ph": "M", "ts": 0,
                "pid": pid, "tid": 0, "args": {"name": pname},
            })
            out.append({
                "name": "process_sort_index", "ph": "M", "ts": 0,
                "pid": pid, "tid": 0, "args": {"sort_index": pid},
            })
        key = (pid, track)
        tid = tids.get(key)
        if tid is None:
            tid = next_tid.get(pid, 0) + 1
            next_tid[pid] = tid
            tids[key] = tid
            out.append({
                "name": "thread_name", "ph": "M", "ts": 0,
                "pid": pid, "tid": tid, "args": {"name": track},
            })
        entry: dict = {
            "name": name,
            "cat": cat,
            "ph": ph,
            "ts": round(ts * 1e6, 3),
            "pid": pid,
            "tid": tid,
        }
        if ph == "X":
            entry["dur"] = round(dur * 1e6, 3)
        if eid is not None:
            entry["id"] = eid
        args = event_args(event)
        if args:
            entry["args"] = args
        out.append(entry)
    return out


def chrome_trace(events: Iterable[Event], label: Optional[str] = None) -> dict:
    """A complete Chrome trace-event document for one run."""
    return {
        "displayTimeUnit": "ms",
        "traceEvents": chrome_events(events, pid_base=0, label=label),
    }


def chrome_trace_points(
    point_events: Sequence[Tuple[Optional[str], Sequence[Event]]]
) -> dict:
    """Merge per-sweep-point event lists into one document.

    Each point gets its own pid block (stride :data:`PROCESS_STRIDE`) with
    the point label prefixed onto process names, so a whole sweep opens as
    one Perfetto view with one process group per point.
    """
    merged: List[dict] = []
    for index, (label, events) in enumerate(point_events):
        merged.extend(
            chrome_events(events, pid_base=index * PROCESS_STRIDE, label=label)
        )
    return {"displayTimeUnit": "ms", "traceEvents": merged}


def write_chrome_trace(path: str, doc: dict) -> None:
    """Serialise deterministically (sorted keys, fixed separators).

    ``json.dumps`` rather than ``json.dump``: only ``dumps`` uses CPython's
    C encoder, which serialises a large trace several times faster.
    """
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a trace-event document; returns a list of problems.

    Covers the subset of the Chrome trace-event format the exporter emits;
    an empty list means the document will load in ``ui.perfetto.dev``.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing 'traceEvents' list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid", "tid", "ts"):
            if field not in ev:
                problems.append(f"{where}: missing {field!r}")
        ph = ev.get("ph")
        if ph not in _PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
        if not isinstance(ev.get("ts", 0), (int, float)):
            problems.append(f"{where}: non-numeric ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
        if ph in ("b", "e") and "id" not in ev:
            problems.append(f"{where}: async event needs an id")
        if ph == "M" and not isinstance(ev.get("args"), dict):
            problems.append(f"{where}: metadata event needs args")
    return problems


def check_chrome_trace(doc: Any) -> None:
    """Raise ``ValueError`` with the first few problems if the doc is invalid."""
    problems = validate_chrome_trace(doc)
    if problems:
        shown = "; ".join(problems[:5])
        more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
        raise ValueError(f"invalid chrome trace: {shown}{more}")
