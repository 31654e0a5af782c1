"""Arrival-timestamp traces: file I/O, rescaling, and synthetic generators.

The paper drives its case studies with the Wikipedia request trace [59] and
its server validation with the NLANR web-request trace [2].  Neither ships
with this reproduction, so two synthetic generators produce traces with the
properties those studies exercise (see DESIGN.md "Substitutions"):

* :func:`synthesize_wikipedia_trace` — slowly fluctuating diurnal load with
  day/night swing and mild noise, which the provisioning and adaptive
  policies must track;
* :func:`synthesize_nlanr_trace` — bursty on/off request arrivals that make
  power traces wiggle on second timescales for the validation experiments.

Trace files use the simple BigHouse-style format: one arrival timestamp
(seconds, float) per line, sorted ascending; ``#`` comments allowed.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Union

import numpy as np


def check_time_value(value: float, where: str, what: str = "timestamp") -> float:
    """Reject NaN and negative time/size values with an attributed error.

    ``where`` names the offending location (``"trace.txt:17"`` or
    ``"trace[4]"``) so malformed inputs fail at the cause, not three modules
    later.  Shared by :class:`ArrivalTrace` and the GOAL-style reader in
    :mod:`repro.workload.goal`.
    """
    if math.isnan(value):
        raise ValueError(f"{where}: {what} is NaN")
    if value < 0:
        raise ValueError(f"{where}: negative {what} {value!r}")
    return value


def validate_timestamps(
    timestamps: Sequence[float],
    *,
    label: str = "trace",
    locate: Optional[Callable[[int], str]] = None,
) -> None:
    """Reject NaN, negative, or unsorted timestamps, naming the offender.

    ``locate`` maps a sequence index to a human-readable location (file
    loaders pass ``path:line_no``); by default errors read ``label[index]``.
    """
    where = locate or (lambda i: f"{label}[{i}]")
    previous: Optional[float] = None
    for i, t in enumerate(timestamps):
        check_time_value(t, where(i))
        if previous is not None and t < previous:
            raise ValueError(
                f"{where(i)}: timestamps not sorted ({t!r} after {previous!r})"
            )
        previous = t


class ArrivalTrace:
    """An immutable-ish sequence of arrival timestamps with utilities."""

    def __init__(self, timestamps: Sequence[float], name: str = "trace"):
        ts = [float(t) for t in timestamps]
        validate_timestamps(ts, label=name)
        self.timestamps = ts
        self.name = name

    # -- basic properties ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def duration_s(self) -> float:
        """Span from time zero to the last arrival."""
        return self.timestamps[-1] if self.timestamps else 0.0

    def mean_rate(self) -> float:
        """Average arrivals per second over the trace duration."""
        if len(self.timestamps) < 2 or self.duration_s == 0:
            raise ValueError("trace too short to estimate a rate")
        return len(self.timestamps) / self.duration_s

    def rate_in_bins(self, bin_s: float) -> List[float]:
        """Arrival rate per fixed-width bin (for plotting load over time)."""
        if bin_s <= 0:
            raise ValueError(f"bin width must be positive, got {bin_s}")
        if not self.timestamps:
            return []
        n_bins = int(math.ceil(self.duration_s / bin_s)) or 1
        counts = [0] * n_bins
        for t in self.timestamps:
            counts[min(int(t / bin_s), n_bins - 1)] += 1
        return [c / bin_s for c in counts]

    # -- transforms -----------------------------------------------------------
    def scaled_to_rate(self, target_rate: float) -> "ArrivalTrace":
        """Time-rescale the trace so its average rate becomes ``target_rate``.

        Stretching time preserves the *shape* of the load curve (burst
        structure, diurnal pattern) while hitting a desired utilization —
        exactly how the case studies run one trace at several ρ levels.
        """
        if target_rate <= 0:
            raise ValueError(f"target rate must be positive, got {target_rate}")
        factor = self.mean_rate() / target_rate
        return ArrivalTrace(
            [t * factor for t in self.timestamps], name=f"{self.name}@{target_rate:g}/s"
        )

    def clipped(self, duration_s: float) -> "ArrivalTrace":
        """Keep only arrivals within the first ``duration_s`` seconds."""
        return ArrivalTrace(
            [t for t in self.timestamps if t <= duration_s], name=self.name
        )

    # -- I/O ----------------------------------------------------------------
    @classmethod
    def from_file(cls, path: Union[str, Path], name: Optional[str] = None) -> "ArrivalTrace":
        """Load a one-timestamp-per-line trace file (``#`` comments skipped)."""
        path = Path(path)
        timestamps: List[float] = []
        line_nos: List[int] = []
        with open(path) as handle:
            for line_no, line in enumerate(handle, 1):
                text = line.strip()
                if not text or text.startswith("#"):
                    continue
                try:
                    timestamps.append(float(text))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: not a timestamp: {text!r}") from exc
                line_nos.append(line_no)
        # Validate here with file:line attribution; the constructor would
        # only be able to blame an index.
        validate_timestamps(timestamps, locate=lambda i: f"{path}:{line_nos[i]}")
        return cls(timestamps, name=name or path.stem)

    def to_file(self, path: Union[str, Path]) -> None:
        """Write the trace in the one-timestamp-per-line format."""
        path = Path(path)
        with open(path, "w") as handle:
            handle.write(f"# arrival trace {self.name!r}: {len(self)} arrivals\n")
            for t in self.timestamps:
                handle.write(f"{t:.9f}\n")


def _require_finite_positive(**values: float) -> None:
    """Reject a synthesizer's rates and spans unless finite and > 0: with a
    NaN or infinite one the arrival clock never reaches the end, or the
    trace comes out silently empty."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def _inhomogeneous_poisson(
    rng: np.random.Generator,
    rate_fn: Callable[[float], float],
    max_rate: float,
    duration_s: float,
) -> List[float]:
    """Sample an inhomogeneous Poisson process by thinning."""
    _require_finite_positive(max_rate=max_rate, duration_s=duration_s)
    timestamps: List[float] = []
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / max_rate))
        if t > duration_s:
            break
        if rng.random() * max_rate <= rate_fn(t):
            timestamps.append(t)
    return timestamps


def synthesize_wikipedia_trace(
    rng: np.random.Generator,
    duration_s: float,
    mean_rate: float,
    daily_amplitude: float = 0.45,
    weekly_amplitude: float = 0.1,
    noise_amplitude: float = 0.08,
    day_length_s: float = 86400.0,
    name: str = "wikipedia-synth",
) -> ArrivalTrace:
    """Diurnal web-request trace in the style of the Wikipedia workload [59].

    Rate(t) combines a daily sinusoid, a weekly modulation and slow random
    noise, floored at 5% of the mean so the farm never goes fully quiet.
    ``day_length_s`` can be shrunk to compress days into simulateable spans.
    """
    _require_finite_positive(
        duration_s=duration_s, mean_rate=mean_rate, day_length_s=day_length_s
    )
    week_length_s = 7.0 * day_length_s
    # Slow noise: a random walk sampled per 1/20th of a day, linearly held.
    n_knots = max(2, int(duration_s / (day_length_s / 20.0)) + 2)
    knots = rng.normal(0.0, noise_amplitude, size=n_knots)
    knot_spacing = duration_s / (n_knots - 1)

    def rate_fn(t: float) -> float:
        daily = daily_amplitude * math.sin(2.0 * math.pi * t / day_length_s - math.pi / 2)
        weekly = weekly_amplitude * math.sin(2.0 * math.pi * t / week_length_s)
        idx = min(int(t / knot_spacing), n_knots - 2)
        frac = t / knot_spacing - idx
        noise = knots[idx] * (1 - frac) + knots[idx + 1] * frac
        return max(0.05 * mean_rate, mean_rate * (1.0 + daily + weekly + noise))

    max_rate = mean_rate * (1.0 + daily_amplitude + weekly_amplitude + 4 * noise_amplitude)
    timestamps = _inhomogeneous_poisson(rng, rate_fn, max_rate, duration_s)
    return ArrivalTrace(timestamps, name=name)


def synthesize_nlanr_trace(
    rng: np.random.Generator,
    duration_s: float,
    mean_rate: float,
    burst_rate_ratio: float = 4.0,
    mean_burst_s: float = 8.0,
    mean_gap_s: float = 25.0,
    name: str = "nlanr-synth",
) -> ArrivalTrace:
    """Bursty web-request trace in the style of the NLANR archives [2].

    Alternates exponential-length bursty and quiet phases (an on/off
    modulated Poisson process), producing the second-scale power wiggles the
    server validation experiment replays.
    """
    _require_finite_positive(
        duration_s=duration_s, mean_rate=mean_rate,
        mean_burst_s=mean_burst_s, mean_gap_s=mean_gap_s,
    )
    if not 1 < burst_rate_ratio < math.inf:
        raise ValueError(
            f"burst_rate_ratio must exceed 1 and be finite, got {burst_rate_ratio}"
        )
    p_burst = mean_burst_s / (mean_burst_s + mean_gap_s)
    base_rate = mean_rate / (p_burst * burst_rate_ratio + (1 - p_burst))
    timestamps: List[float] = []
    t = 0.0
    bursty = False
    while t < duration_s:
        phase_len = float(
            rng.exponential(mean_burst_s if bursty else mean_gap_s)
        )
        phase_end = min(t + phase_len, duration_s)
        rate = base_rate * (burst_rate_ratio if bursty else 1.0)
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= phase_end:
                break
            timestamps.append(t)
        t = phase_end
        bursty = not bursty
    return ArrivalTrace(timestamps, name=name)
