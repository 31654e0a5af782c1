"""Runtime statistics: state residencies, energy accounting, latency, traces.

HolDCSim tracks several kinds of runtime statistics (paper §III, Fig. 1):
power and energy consumption, network delays, job latency, and power state
transitions.  The helpers in this module are the building blocks:

* :class:`StateTracker` — accumulates time spent per named state for a
  component (a core, a package, a server, a switch port ...) and counts
  transitions.  Residencies always sum to the tracked wall-clock interval.
* :class:`EnergyAccount` — integrates ``power × dt`` as a component's power
  draw changes; one per power component (CPU / DRAM / platform / chassis ...).
* :class:`LatencyCollector` — stores samples and answers mean / percentile /
  CDF queries (job latency, network delay).
* :class:`TimeSeriesSampler` — engine-driven periodic sampling of arbitrary
  probes, used to produce power-over-time traces (Figs. 4, 12, 13).
* :class:`AvailabilityTracker` — per-component up/down bookkeeping for the
  fault-injection subsystem: uptime fraction plus observed MTTF/MTTR.
"""

from __future__ import annotations

import bisect
import math
import sys
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import Engine


class StateTracker:
    """Track residency time and transition counts across named states.

    The tracker is event-driven: callers invoke :meth:`set_state` whenever the
    component changes state, passing the current simulation time.  Querying
    residencies with :meth:`residency` accounts for the in-progress state up
    to the query time, so the invariant ``sum(residencies) == now - start``
    always holds.

    A farm holds six trackers per server, so the layout is lean: slots, and
    one dict holding both residency seconds (keyed by state name) and
    transition counts (keyed by an interned ``"\\x1f{src}\\x1f{dst}"``
    string, see :func:`_transition_key`).  Every key is a plain string, so
    the dict never becomes tracked by the cyclic garbage collector.
    """

    __slots__ = ("_state", "_since", "_start", "_totals")

    def __init__(self, initial_state: str, start_time: float = 0.0):
        self._state = initial_state
        self._since = start_time
        self._start = start_time
        self._totals: Dict[Any, Any] = {}

    @property
    def state(self) -> str:
        """The current state name."""
        return self._state

    @property
    def start_time(self) -> float:
        """When tracking began; residencies over ``now - start_time`` sum to 1."""
        return self._start

    def set_state(self, state: str, now: float) -> None:
        """Move to ``state`` at time ``now``; same-state calls are no-ops."""
        prev = self._state
        if state == prev:
            return
        since = self._since
        if now < since:
            raise ValueError(f"time moved backwards: {now} < {since}")
        try:
            key = _TRANSITION_KEYS[prev][state]
        except KeyError:
            key = _transition_key(prev, state)
        totals = self._totals
        totals[prev] = totals.get(prev, 0.0) + (now - since)
        totals[key] = totals.get(key, 0) + 1
        self._state = state
        self._since = now

    def residency(self, now: float) -> Dict[str, float]:
        """Residency seconds per state, including the current open interval."""
        out = {k: v for k, v in self._totals.items() if k[:1] != _SEP}
        out[self._state] = out.get(self._state, 0.0) + (now - self._since)
        return out

    def residency_fractions(self, now: float) -> Dict[str, float]:
        """Residencies normalised by total tracked time (empty if zero)."""
        res = self.residency(now)
        total = now - self._start
        if total <= 0:
            return {}
        return {state: seconds / total for state, seconds in res.items()}

    def transition_count(self, src: Optional[str] = None, dst: Optional[str] = None) -> int:
        """Count transitions, optionally filtered by source and/or target."""
        total = 0
        for key, count in self._totals.items():
            if key[:1] != _SEP:
                continue
            _, from_state, to_state = key.split(_SEP)
            if src is not None and from_state != src:
                continue
            if dst is not None and to_state != dst:
                continue
            total += count
        return total

    @property
    def transitions(self) -> Dict[Tuple[str, str], int]:
        """The raw ``(src, dst) -> count`` transition map (read-only view)."""
        return {
            tuple(k.split(_SEP)[1:]): v
            for k, v in self._totals.items() if k[:1] == _SEP
        }


#: Leads and splits a transition key; no state name may contain it.
_SEP = "\x1f"

#: src -> dst -> the interned transition key, shared by every tracker; one
#: entry per distinct pair of state names, as small as the models' state
#: graphs.  A key is a plain string: a ``(src, dst)`` tuple built at run
#: time stays tracked by the cyclic collector until a collection untracks
#: it, and a dict that receives it meanwhile stays tracked for good (CPython
#: untracks dicts only in full collections).  The key spells out its pair,
#: so a tracker unpickled in another process decodes the same counts.
_TRANSITION_KEYS: Dict[str, Dict[str, str]] = {}


def _transition_key(src: str, dst: str) -> str:
    """The interned count key of transition ``src -> dst``."""
    if _SEP in src or _SEP in dst:
        raise ValueError(f"state names may not contain {_SEP!r}: {src!r} -> {dst!r}")
    by_dst = _TRANSITION_KEYS.setdefault(src, {})
    key = by_dst.get(dst)
    if key is None:
        key = by_dst[dst] = sys.intern(f"{_SEP}{src}{_SEP}{dst}")
    return key


class EnergyAccount:
    """Integrate energy for one power component of one device.

    Components report power changes with :meth:`set_power`; the account
    accrues ``previous_power × elapsed`` at each change.  :meth:`energy_j`
    closes the open interval up to the query time without disturbing state.
    """

    __slots__ = ("name", "_power_w", "_since", "_energy_j")

    def __init__(self, name: str, initial_power_w: float = 0.0, start_time: float = 0.0):
        self.name = name
        self._power_w = float(initial_power_w)
        self._since = start_time
        self._energy_j = 0.0

    @property
    def power_w(self) -> float:
        """Instantaneous power draw in watts."""
        return self._power_w

    def set_power(self, power_w: float, now: float) -> None:
        """Record that the component draws ``power_w`` watts from ``now`` on."""
        if now < self._since:
            raise ValueError(f"time moved backwards: {now} < {self._since}")
        self._energy_j += self._power_w * (now - self._since)
        self._power_w = float(power_w)
        self._since = now

    def energy_j(self, now: float) -> float:
        """Total energy in joules consumed up to ``now``."""
        return self._energy_j + self._power_w * (now - self._since)


class AvailabilityTracker:
    """Track one component's up/down history (see :mod:`repro.faults`).

    Built on :class:`StateTracker`; adds the derived reliability metrics the
    run summary reports: uptime fraction ("nines"), observed mean time to
    failure (mean length of completed up intervals) and observed mean time
    to repair (mean length of completed down intervals).
    """

    UP = "up"
    DOWN = "down"

    def __init__(self, name: str, start_time: float = 0.0):
        self.name = name
        self._tracker = StateTracker(self.UP, start_time)
        self.failures = 0
        self.repairs = 0

    @property
    def is_up(self) -> bool:
        return self._tracker.state == self.UP

    def mark_down(self, now: float) -> None:
        """The component failed at ``now``; repeated calls are no-ops."""
        if not self.is_up:
            return
        self.failures += 1
        self._tracker.set_state(self.DOWN, now)

    def mark_up(self, now: float) -> None:
        """The component was repaired at ``now``; repeated calls are no-ops."""
        if self.is_up:
            return
        self.repairs += 1
        self._tracker.set_state(self.UP, now)

    def uptime_fraction(self, now: float) -> float:
        """Fraction of tracked time the component was up (1.0 if untracked)."""
        fractions = self._tracker.residency_fractions(now)
        if not fractions:
            return 1.0
        return fractions.get(self.UP, 0.0)

    def observed_mttf_s(self, now: float) -> Optional[float]:
        """Mean length of completed up intervals, or None before any failure."""
        if self.failures == 0:
            return None
        up_time = self._tracker.residency(now).get(self.UP, 0.0)
        if not self.is_up:
            # All up intervals are complete; otherwise the open one is
            # excluded so the estimate is not biased low by the query time.
            return up_time / self.failures
        # Subtract the in-progress up interval (since the last repair).
        return max(0.0, up_time - self._open_interval_s(now)) / self.failures

    def observed_mttr_s(self, now: float) -> Optional[float]:
        """Mean length of completed down intervals, or None before any repair."""
        if self.repairs == 0:
            return None
        down_time = self._tracker.residency(now).get(self.DOWN, 0.0)
        if self.is_up:
            return down_time / self.repairs
        return max(0.0, down_time - self._open_interval_s(now)) / self.repairs

    def _open_interval_s(self, now: float) -> float:
        return now - self._tracker._since

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.UP if self.is_up else self.DOWN
        return f"<AvailabilityTracker {self.name} {state} failures={self.failures}>"


class CdfResult:
    """An empirical CDF: ``values[i]`` has cumulative probability ``probs[i]``.

    ``values`` is a *view* of the collector's sorted sample storage, not a
    copy — on a 20K-server run the sample set is millions of floats, and the
    CDF used to double that allocation.  ``probs`` is materialised lazily on
    first access (``quantile`` and rendering code touch it; many callers
    never do).  Treat both as read-only.
    """

    __slots__ = ("values", "_probs")

    def __init__(self, values: Sequence[float], probs: Optional[Sequence[float]] = None):
        self.values = values
        self._probs = probs

    @property
    def probs(self) -> Sequence[float]:
        """Cumulative probability per value, built on first access."""
        if self._probs is None:
            n = len(self.values)
            self._probs = array("d", ((i + 1) / n for i in range(n)))
        return self._probs

    def quantile(self, p: float) -> float:
        """Smallest value with cumulative probability >= p."""
        if not self.values:
            raise ValueError("empty CDF")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0, 1]")
        idx = bisect.bisect_left(self.probs, p)
        idx = min(idx, len(self.values) - 1)
        return self.values[idx]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CdfResult(n={len(self.values)})"


class LatencyCollector:
    """Collect latency (or any scalar) samples and answer distribution queries.

    Samples are stored in an ``array('d')`` (8 bytes per sample, no per-float
    object) so collectors stay compact on multi-million-job runs.
    """

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples: array = array("d")
        self._sorted: Optional[array] = None

    def record(self, value: float) -> None:
        """Add one sample."""
        self._samples.append(value)
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        """Bulk-add samples (one C-level extend instead of N ``record`` calls)."""
        self._samples.extend(values)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> Sequence[float]:
        """All recorded samples in arrival order (read-only by convention).

        Returns the backing ``array('d')`` without copying; do not mutate.
        """
        return self._samples

    def mean(self) -> float:
        """Arithmetic mean; raises on empty collector."""
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return sum(self._samples) / len(self._samples)

    def percentile(self, p: float) -> float:
        """p-th percentile (0..100) using nearest-rank on sorted samples."""
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        data = self._sorted_samples()
        if p == 0:
            return data[0]
        rank = max(1, math.ceil(p / 100.0 * len(data)))
        return data[rank - 1]

    def max(self) -> float:
        """Largest sample; raises on empty collector."""
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return self._sorted_samples()[-1]

    def cdf(self) -> CdfResult:
        """The empirical CDF of all samples.

        The result shares the collector's sorted sample storage (no copy);
        its probabilities are computed lazily on first access.
        """
        data = self._sorted_samples()
        if not data:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return CdfResult(values=data)

    def _sorted_samples(self) -> array:
        if self._sorted is None:
            self._sorted = array("d", sorted(self._samples))
        return self._sorted


@dataclass
class TimeSeries:
    """A sampled time series: parallel ``times`` and ``values`` arrays.

    Backed by ``array('d')`` so long power-over-time traces (one sample per
    probe per interval across a 20K-server run) cost 16 bytes per point
    instead of two boxed floats plus list slots.
    """

    name: str
    times: Sequence[float] = field(default_factory=lambda: array("d"))
    values: Sequence[float] = field(default_factory=lambda: array("d"))

    def append(self, t: float, v: float) -> None:
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.times)

    def mean(self) -> float:
        """Mean of the sampled values; raises on empty series."""
        if not self.values:
            raise ValueError(f"time series {self.name!r} is empty")
        return sum(self.values) / len(self.values)


class TimeSeriesSampler:
    """Periodically sample probe callables via the event engine.

    Register probes with :meth:`add_probe` and call :meth:`start`; the sampler
    reschedules itself every ``interval`` seconds until :meth:`stop` or the
    simulation ends.  This produces the power-over-time traces used in the
    validation experiments and the provisioning case study.
    """

    def __init__(self, engine: Engine, interval: float):
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval}")
        self.engine = engine
        self.interval = interval
        self._probes: List[Tuple[TimeSeries, Callable[[], float]]] = []
        self._handle: Optional[Any] = None
        self._running = False

    def add_probe(self, name: str, probe: Callable[[], float]) -> TimeSeries:
        """Register ``probe`` (no-arg callable) and return its series."""
        series = TimeSeries(name)
        self._probes.append((series, probe))
        return series

    def start(self, first_sample_at: Optional[float] = None) -> None:
        """Begin sampling; the first sample fires at ``first_sample_at`` or now."""
        if self._running:
            return
        self._running = True
        when = self.engine.now if first_sample_at is None else first_sample_at
        self._handle = self.engine.schedule_at(when, self._tick)

    def stop(self) -> None:
        """Stop sampling; any pending tick is cancelled."""
        self._running = False
        if self._handle is not None and self._handle.pending:
            self._handle.cancel()
        self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.engine.now
        for series, probe in self._probes:
            series.append(now, float(probe()))
        self._handle = self.engine.schedule(self.interval, self._tick)
